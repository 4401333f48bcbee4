"""List the lines of src/dimix that no recorded CLI command runs, and say
whether the tests reach each one.

    python3 tools/unreached.py

runs every command that ``tools/cli_outputs.py`` records (``run --plots``,
``sweep --plots`` and ``theory`` at ``--jobs 1`` and ``--jobs 2``,
``validate``, ``lemmas``, the ``--seed`` overrides and ``lemmas`` without a
config) on the same configs, except that the benchmark workloads run at
their tiny sizes, each in its own temporary directory.  Then it runs pytest
on ``tests/``.  Both run in this process under a trace function that
records the lines run in ``src/dimix`` frames, with dimix imported under it
too.  Every executable line of ``src/dimix/*.py`` that none of the commands
ran is printed as ``path:line: tag: source``, where the tag is ``tests`` if
a test runs the line and ``nothing`` if none does.  The tracer does not
follow worker processes of a pool, but this process starts the pool and
collects its traces, so those lines count.

The exit status is 1 when any line is tagged ``nothing`` other than
``cli.py``'s ``sys.exit(main())``, which only a ``python -m`` subprocess
runs, and 0 otherwise.
"""

import contextlib
import dis
import io
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dimix"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]


def executable_lines(path: Path) -> set[int]:
    """The lines that start a bytecode instruction in any code object of
    the file, as a trace function's line events count them."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)  # 0: no source line
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def tracer(ran: set):
    """A trace function that adds (file, line) to ``ran`` for every line run
    in a frame of src/dimix, and traces no other frame."""
    package, inside = os.path.realpath(PACKAGE), {}  # file name -> in src/dimix

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.dirname(os.path.realpath(name)) == package
        return line if inside[name] else None

    return call


def traced(ran: set, func, *args):
    sys.settrace(tracer(ran))
    try:
        return func(*args)
    finally:
        sys.settrace(None)


def run_commands() -> None:
    from cli_outputs import CONFIGS, MATRIX_FILES, commands
    from workloads import WORKLOADS

    from dimix.cli import main

    configs = {**CONFIGS, **{name: (wl.config_text(0, wl.tiny), ()) for name, wl in WORKLOADS.items()}}
    start = Path.cwd()
    for name, (text, theory_extra) in configs.items():
        for label, args in commands(name, theory_extra).items():
            with tempfile.TemporaryDirectory() as here:
                os.chdir(here)
                try:
                    Path("config.cfg").write_text(text, encoding="utf-8")
                    for fname, body in MATRIX_FILES.items():
                        Path(fname).write_text(body, encoding="utf-8")
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        code = main([*args, "--out", "out"])
                finally:
                    os.chdir(start)
            print(f"{name}/{label}: exit {code}", file=sys.stderr)


def main() -> int:
    if any(name == "dimix" or name.startswith("dimix.") for name in sys.modules):
        raise RuntimeError("dimix must be imported under the tracer")
    import pytest

    by_cli, by_tests = set(), set()
    traced(by_cli, run_commands)
    with contextlib.redirect_stdout(sys.stderr):
        traced(by_tests, pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])

    def lines(ran):
        out = {}
        for filename, line in ran:
            out.setdefault(os.path.realpath(filename), set()).add(line)
        return out

    by_cli, by_tests = lines(by_cli), lines(by_tests)
    status = 0
    for path in sorted(PACKAGE.glob("*.py")):
        key = os.path.realpath(path)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - by_cli.get(key, set())):
            tag = "tests" if line in by_tests.get(key, set()) else "nothing"
            text = source[line - 1].strip()
            print(f"{path.relative_to(ROOT)}:{line}: {tag}: {text}")
            if tag == "nothing" and (path.name, text) != ("cli.py", "sys.exit(main())"):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
