"""Drive the dimix CLI over random configs and report what gets out.

    PYTHONPATH=<tree>/src python3 tools/fuzz_cli.py

draws CONFIGS = 1000 configs from a generator seeded with SEED = 0 and
runs ``validate``, ``theory --assume-q0 1``, ``sweep`` and ``run`` on
each, in this process through ``dimix.cli.main``, at ``--jobs 1`` and with
``--out`` in a temporary directory.  A config has n in {1, 2, 3, 4, 6}
agents on a built-in family or on a matrix file of doubly stochastic
slots, d in 1..8, N from 1 (below d) to 10 d points, any noise model, and
T <= 60 with a T_grid up to 2 T.  Half the configs draw alpha0, the noise
scale, the quantizer levels and the weight scores within a decade of the
defaults, and beta0, mu and nu in 10^-1 .. 1; the other half draw them over
six decades (10^-6 .. 1 for beta0, mu and nu).

It reports, per config and command:

* ``escaped``: an exception that got out of ``main``;
* ``exit``: an exit code outside {0, 1, 2};
* ``library``: an ``error:`` line whose exception was raised outside
  src/dimix (the innermost Python frame of its traceback), i.e. a bare
  library message such as numpy's ``Singular matrix``;
* ``inf/nan``: a printed ``inf`` or ``nan`` token.

The exit status is 1 when anything is ``escaped`` or ``exit``, else 0; the
other two kinds are reported only.
"""

import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

import dimix.cli

COMMANDS = {
    "validate": ["validate"],
    "theory": ["theory", "--assume-q0", "1"],
    "sweep": ["sweep"],
    "run": ["run"],
}
KINDS = ("escaped", "exit", "library", "inf/nan")
SEED, CONFIGS = 0, 1000
PACKAGE = os.path.realpath(os.path.dirname(dimix.cli.__file__))
INF_NAN = re.compile(r"(?<![\w.])[-+]?(inf|nan)(?![\w.])")


def draw_config(rng: np.random.Generator) -> dict[str, str]:
    """One random config: file name -> text of ``config.cfg`` and, for
    ``family = matrix_file``, of the ``matrix.txt`` it names."""
    decades = 6.0 if rng.random() < 0.5 else 1.0

    def around(default):
        return float(default * 10.0 ** rng.uniform(-decades, decades))

    n, d, T = int(rng.choice([1, 2, 3, 4, 6])), int(rng.integers(1, 9)), int(rng.integers(1, 61))
    family = str(rng.choice(["fixed_cycle", "gossip", "matrix_file"]))
    noise = str(rng.choice(["noiseless", "gaussian_channel", "stochastic_quantizer"]))
    p_low, p_high = sorted((around(0.01), around(0.09)))
    values = {
        "family": family,
        **({"matrix_file": "matrix.txt"} if family == "matrix_file" else {"n": n}),
        "d": d,
        "N": int(rng.integers(1, 10 * d + 1)),
        "seed": int(rng.integers(0, 1000)),
        "noise": noise,
        **({"sigma": around(0.5)} if noise == "gaussian_channel" else {}),
        **({"quantizer_levels": max(1, int(around(4.0)))} if noise == "stochastic_quantizer" else {}),
        "alpha0": around(0.1),
        "nu": float(10.0 ** -rng.uniform(0.0, decades)),
        "beta0": float(10.0 ** -rng.uniform(0.0, decades)),
        "mu": float(10.0 ** -rng.uniform(0.0, decades)),
        "T": T,
        "runs": int(rng.integers(1, 5)),
        "T_grid": ", ".join(map(str, sorted(rng.integers(1, 2 * T + 1, size=int(rng.integers(1, 4)))))),
        "p_low": p_low,
        "p_high": p_high,
    }
    files = {"config.cfg": "".join(f"{key} = {value}\n" for key, value in values.items())}
    if family == "matrix_file":
        # Doubly stochastic slots a I + (1 - a) P^k, P the cyclic shift.
        slots = [a * np.eye(n) + (1.0 - a) * np.roll(np.eye(n), k, axis=1)
                 for a, k in zip(rng.random(int(rng.integers(1, 4))), rng.integers(1, n + 1, size=3))]
        files["matrix.txt"] = "\n".join("".join(", ".join(repr(float(x)) for x in row) + "\n" for row in W) for W in slots)
    return files


@contextlib.contextmanager
def origins(found: list):
    """While active, each command function of ``dimix.cli`` appends to
    ``found`` the file of the innermost Python frame of any exception it
    raises, then re-raises it."""

    def wrap(func):
        def wrapped(args):
            try:
                return func(args)
            except BaseException as exc:
                tb = exc.__traceback__
                while tb.tb_next is not None:
                    tb = tb.tb_next
                found.append(os.path.realpath(tb.tb_frame.f_code.co_filename))
                raise

        return wrapped

    names = [f"cmd_{name}" for name in COMMANDS]
    saved = {name: getattr(dimix.cli, name) for name in names}
    for name, func in saved.items():
        setattr(dimix.cli, name, wrap(func))
    try:
        yield
    finally:
        for name, func in saved.items():
            setattr(dimix.cli, name, func)


def check(files: dict[str, str], command: str) -> list[tuple[str, str]]:
    """(kind, detail) for every property that one command on the config
    ``files`` breaks.  It runs in a temporary directory holding the files."""
    found, raised = [], []
    out, err = io.StringIO(), io.StringIO()
    start = Path.cwd()
    with tempfile.TemporaryDirectory() as here:
        os.chdir(here)
        try:
            for name, text in files.items():
                Path(name).write_text(text, encoding="utf-8")
            with origins(raised), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = dimix.cli.main([*COMMANDS[command], "--config", "config.cfg", "--out", "out"])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:
                    found.append(("escaped", f"{type(exc).__name__}: {exc}"))
                    code = None
        finally:
            os.chdir(start)
    if code is not None and code not in (0, 1, 2):
        found.append(("exit", f"exit code {code}"))
    printed = out.getvalue() + err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if errors and raised and os.path.dirname(raised[-1]) != PACKAGE:
        found.append(("library", f"{errors[0]} (raised in {raised[-1]})"))
    if INF_NAN.search(printed):
        found.append(("inf/nan", next(line for line in printed.splitlines() if INF_NAN.search(line))))
    return found


def fuzz(seed: int, configs: int) -> list[tuple[int, dict, str, str, str]]:
    """(config index, config files, command, kind, detail) for every
    finding on ``configs`` configs drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    findings = []
    for k in range(configs):
        files = draw_config(rng)
        for command in COMMANDS:
            findings += [(k, files, command, kind, detail) for kind, detail in check(files, command)]
    return findings


def main() -> int:
    findings = fuzz(SEED, CONFIGS)
    for k, files, command, kind, detail in findings:
        print(f"{kind}: config {k} {command}: {detail}")
        for name, text in files.items():
            print(f"    {name}: {'; '.join(line for line in text.splitlines() if line)}")
    counts = {kind: sum(f[3] == kind for f in findings) for kind in KINDS}
    print(f"seed {SEED}, {CONFIGS} configs x {len(COMMANDS)} commands: "
          + ", ".join(f"{kind} {count}" for kind, count in counts.items()))
    return 1 if counts["escaped"] or counts["exit"] else 0


if __name__ == "__main__":
    sys.exit(main())
