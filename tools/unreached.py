"""List the lines of src/dimix that no recorded CLI command runs.

    python3 tools/unreached.py

runs every command that ``tools/cli_outputs.py`` records (``run --plots``,
``sweep --plots`` and ``theory`` at ``--jobs 1`` and ``--jobs 2``,
``validate``, ``lemmas``, the ``--seed`` overrides and ``lemmas`` without a
config) on the same configs, except that the benchmark workloads run at
their tiny sizes.  The commands run in this process, each in its own
temporary directory, under the standard library's ``trace`` module, with
dimix imported under it too; then every executable line of
``src/dimix/*.py`` that none of them ran is printed as ``path:line: source``.
The tracer does not follow the worker processes of a ``--jobs 2`` pool, but
this process starts the pool and collects its traces, so those lines count.
A line listed here is reached only by the tests, or by nothing.
"""

import contextlib
import dis
import io
import os
import sys
import tempfile
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dimix"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]


def executable_lines(path: Path) -> set[int]:
    """The lines that start a bytecode instruction in any code object of
    the file, as the ``trace`` module counts them."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)  # 0: no source line
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


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
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(run_commands)
    ran = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(executable_lines(path) - ran.get(os.path.realpath(path), set()))
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
