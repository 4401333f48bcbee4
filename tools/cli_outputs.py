"""Record what the dimix CLI prints and writes, for byte-identity checks.

    PYTHONPATH=<tree>/src python3 tools/cli_outputs.py DEST

runs ``run --plots``, ``sweep --plots`` and ``theory`` (each at --jobs 1 and
2), ``validate`` and ``lemmas`` on thirty configs with whichever dimix
the PYTHONPATH gives (only the commands in ONLY on the configs it names),
and on the configs in SEEDED the three with ``--seed 3`` and ``lemmas``
without a config.  The configs include a theory
T_grid past the simulated horizon, seeds that diverge and are reset in
place, steps that admit no burn-in thresholds, steps whose constant xi5 is
beyond the float range (once with runs that diverge, once with runs that
stay finite and write a manifest noting it), nu >= mu, an n that the
matrix file contradicts, a key set twice, a single agent, a two-agent gossip family, weight scores
whose sum overflows, a matrix file with no positive stationary vector,
one whose stationary vector misses the residual tolerance, seeds that all
diverge, a T_grid out of order with a horizon listed twice, an identity
schedule that no window connects (``validate``, ``run --jobs 1`` and
``theory`` only), the same schedule at horizon 10^7 (``validate`` only),
a negative seed, and arms A and B of the reproduction study's config S
(``tests/test_reproduction.py``; ``sweep --jobs 1`` only).  Each
command runs in its own directory DEST/<config>/<command> with a relative
--out, so nothing it prints holds an absolute path; stdout, stderr, the
exit code and every output file are kept there.
DEST/lemma_reports.json holds every field of the lemma suite's reports,
exactly (repr), for seeds 0-2 at 0, 60, 150, 1000 and 2500 instances: the
``lemmas`` command prints min slack to four digits only.
Record two trees into two DEST directories and compare them with
``diff -r``: an empty diff means the CLI output is byte-identical.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

# Matrix files written next to every config.  slots.txt: two doubly
# stochastic slots on three agents, connected over any window of 2.
# gaps.txt: a cycle slot then two identity slots, so at window 2 only the
# starts t = 1 (mod 3), whose window holds both identities, are disconnected.
# one.txt: a single agent.  eye3.txt: the 3x3 identity, so no window is
# ever connected.  transient.txt: agent 1 moves to agent 0, so
# every stationary vector vanishes on agent 1.  residual.txt: three slots on
# four agents whose stacked system has singular value 2.8e-9, inside the
# null threshold 3e-9, so the candidate has residual 1.09e-09, just past the
# tolerance.
MATRIX_FILES = {
    "slots.txt": "0.5, 0.5, 0\n0, 0.5, 0.5\n0.5, 0, 0.5\n\n0.5, 0, 0.5\n0.5, 0.5, 0\n0, 0.5, 0.5\n",
    "gaps.txt": "0.5, 0.5, 0\n0, 0.5, 0.5\n0.5, 0, 0.5\n\n1, 0, 0\n0, 1, 0\n0, 0, 1\n\n1, 0, 0\n0, 1, 0\n0, 0, 1\n",
    "one.txt": "1\n",
    "eye3.txt": "1, 0, 0\n0, 1, 0\n0, 0, 1\n",
    "transient.txt": "1, 0\n1, 0\n",
    "residual.txt": (
        "0, 0, 1, 0\n1, 0, 0, 0\n0, 1, 0, 0\n4.348884529200771e-09, 0, 0, 0.9999999956511155\n\n"
        "0, 0, 1, 0\n1, 0, 0, 0\n0, 1, 0, 0\n0, 0, 0, 1\n\n"
        "0, 0, 1, 0\n0, 1, 0, 0\n0, 0, 0, 1\n1, 0, 0, 0\n"
    ),
}
SMALL = "T = 60\nruns = 3\nT_grid = 20, 40, 60\n"

# name -> (config text, extra theory arguments)
CONFIGS = {
    **{name: (wl.config_text(0, wl.size), ()) for name, wl in WORKLOADS.items()},
    "noiseless_cycle": ("family = fixed_cycle\nn = 5\nd = 6\nN = 30\n" + SMALL, ()),
    "matrix_file": ("family = matrix_file\nmatrix_file = slots.txt\nd = 4\nN = 12\n" + SMALL, ()),
    "matrix_file_gaps": ("family = matrix_file\nmatrix_file = gaps.txt\nwindow = 2\nd = 4\nN = 12\n" + SMALL, ()),
    # gaps.txt with noise: each seed takes 6 d values at a cycle slot and 3 d
    # at an identity slot, so the iterations of a chunk draw unequal counts.
    "matrix_file_gaps_gauss": (
        "family = matrix_file\nmatrix_file = gaps.txt\nd = 4\nN = 12\n"
        "noise = gaussian_channel\nsigma = 0.5\n" + SMALL,
        ("--assume-q0", "1"),
    ),
    # The same with T_grid past the horizon: theory prints "T, bound, -, -" rows.
    "matrix_file_gaps_gauss_past_T": (
        "family = matrix_file\nmatrix_file = gaps.txt\nd = 4\nN = 12\n"
        "noise = gaussian_channel\nsigma = 0.5\nT = 60\nruns = 3\nT_grid = 20, 60, 120\n",
        ("--assume-q0", "1"),
    ),
    "matrix_file_gaps_quant": (
        "family = matrix_file\nmatrix_file = gaps.txt\nd = 4\nN = 12\n"
        "noise = stochastic_quantizer\nquantizer_levels = 4\n" + SMALL,
        ("--assume-q0", "1"),
    ),
    # T0 = 1025 lies inside the horizon but off the T_grid (500, 1030).
    "certify_gossip_n4_tiny": (
        WORKLOADS["certify_gossip_n4"].config_text(0, WORKLOADS["certify_gossip_n4"].tiny),
        (),
    ),
    # The n = 20 mu + nu < 1 certificate, whose burn-in lies far past T.
    "regime1_n20": (
        "family = gossip\nn = 20\nseed = 3\nnoise = stochastic_quantizer\n"
        "quantizer_levels = 4\nalpha0 = 0.25\nnu = 0.05\nbeta0 = 0.8\nmu = 0.1\n"
        "T = 60\nruns = 2\nT_grid = 30, 60\n",
        ("--assume-q0", "1"),
    ),
    # A one-level quantizer and large gradient steps: seeds 1-11 abort at
    # t = 30 to 34 and seed 0 completes, so run and sweep cover the
    # engine's path for reset rows.
    "divergent_quant": (
        "family = fixed_cycle\nn = 3\nd = 2\nN = 12\nnoise = stochastic_quantizer\n"
        "quantizer_levels = 1\nalpha0 = 25\nnu = 0.05\nbeta0 = 1.0\nmu = 0.5\n"
        "T = 40\nruns = 12\nT_grid = 20, 40\n",
        ("--assume-q0", "1"),
    ),
    # mu = 0.99 admits no burn-in thresholds: run and sweep note why in the
    # manifest (derived.theory_note), theory fails with a one-line error.
    "no_thresholds": ("family = gossip\nmu = 0.99\nnu = 0.01\nT = 20\nruns = 2\nT_grid = 10, 20\n", ()),
    # mu + nu = 1 with alpha0 = 1000: xi5's factor T0^(c2*alpha0*beta0) is
    # beyond the float range, so theory fails with a one-line error.
    "xi5_overflow": (
        "family = gossip\nn = 20\nalpha0 = 1000\nT = 20\nruns = 2\nT_grid = 10, 20\n",
        ("--assume-q0", "1"),
    ),
    # mu + nu = 1 with alpha0 = 200 and runs that stay finite: run and sweep
    # exit 0 and note xi5's overflow in the manifest (derived.theory_note),
    # theory fails with the same one-line error.
    "xi5_overflow_note": (
        "family = gossip\nn = 20\nalpha0 = 200\nnu = 0.05\nmu = 0.95\nbeta0 = 1.0\n"
        "T = 4\nruns = 2\nT_grid = 2, 4\n",
        (),
    ),
    # nu >= mu is outside the guarantee: run and sweep note it in the
    # manifest, theory fails with the "needs nu < mu" line.
    "nu_above_mu": ("family = gossip\nnu = 0.8\nmu = 0.6\nT = 20\nruns = 2\nT_grid = 10, 20\n", ()),
    # n disagrees with the three agents of slots.txt: every command but
    # lemmas fails with a one-line error.
    "matrix_file_n_conflict": ("family = matrix_file\nmatrix_file = slots.txt\nn = 4\nd = 4\nN = 12\n" + SMALL, ()),
    # T set twice: rejected with both line numbers (older trees ran T = 30).
    "duplicate_key": ("family = gossip\nT = 20\nruns = 2\nT_grid = 10, 20\nT = 30\n", ()),
    # One agent: deviation_sq is 0 at every iteration, so run --plots writes
    # no deviation.svg (older trees failed with "nothing positive to plot").
    "one_agent": (
        "family = matrix_file\nmatrix_file = one.txt\nd = 3\nN = 5\nT = 20\nruns = 2\nT_grid = 10, 20\n",
        ("--assume-q0", "1"),
    ),
    # A built-in family needs three agents: every command but lemmas fails
    # with a one-line error naming the family (older trees named the weight
    # vector).
    "two_agents": ("family = gossip\nn = 2\nT = 20\nruns = 2\nT_grid = 10, 20\n", ()),
    # The weight scores' sum overflows: every command but lemmas fails with a
    # one-line error (older trees printed numpy's overflow warning first).
    "weights_overflow": ("p_low = 1e308\np_high = 1e308\nT = 20\nruns = 2\nT_grid = 10, 20\n", ()),
    # Matrix files the stationary-weight solver rejects: every command but
    # lemmas fails with a one-line error.
    "no_positive_r": ("family = matrix_file\nmatrix_file = transient.txt\nd = 4\nN = 12\n" + SMALL, ()),
    "near_null_residual": ("family = matrix_file\nmatrix_file = residual.txt\nd = 4\nN = 12\n" + SMALL, ()),
    # Seeds 1, 2 and 3 abort at t = 8, 7 and 10: run and sweep fail naming
    # the earliest, t = 7 (older trees named seed 1's t = 8).  nu >= mu, so
    # theory fails before it simulates.
    "all_diverged": (
        "family = fixed_cycle\nn = 3\nd = 2\nN = 12\nnoise = gaussian_channel\nsigma = 1.3e12\n"
        "alpha0 = 0.1\nnu = 0.25\nbeta0 = 0.7\nmu = 0.1\nT = 12\nruns = 3\nseed = 1\nT_grid = 6, 12\n",
        (),
    ),
    # T_grid out of order with 20 twice: theory and sweep both read the
    # horizons 20 then 40, once each (older trees' theory printed the rows
    # 40, 20, 20).
    "grid_unsorted": (
        "family = fixed_cycle\nn = 3\nd = 2\nN = 12\nT = 40\nruns = 2\nT_grid = 40, 20, 20\n",
        ("--assume-q0", "1"),
    ),
    # No window of the identity schedule is connected: validate fails,
    # theory warns and marks every row "mixing assumptions fail, not
    # covered", and run's manifest gives the same reason as
    # derived.theory_note (older trees certified them).  Only validate,
    # theory and run at --jobs 1 run: a sweep to T = 1e8 would take hours.
    "identity_schedule": (
        "family = matrix_file\nmatrix_file = eye3.txt\nd = 2\nN = 6\nT = 2000\nruns = 2\n"
        "T_grid = 2000, 100000000\nalpha0 = 0.25\nnu = 0.05\nbeta0 = 0.8\nmu = 0.1\n",
        (),
    ),
    # The identity schedule at horizon 10^7: every one of the 9,999,999
    # window starts fails, and validate prints the first five and the count
    # from one period of failing residues.  Only validate runs.
    "identity_long_horizon": (
        "family = matrix_file\nmatrix_file = eye3.txt\nd = 2\nN = 6\nhorizon = 10000000\n",
        (),
    ),
    # Every command fails with "seed must be >= 0, got -1" (older trees
    # printed numpy's "expected non-negative integer").
    "negative_seed": ("family = gossip\nseed = -1\nT = 20\nruns = 2\nT_grid = 10, 20\n", ()),
    # Study config S, the one Gaussian fixed cycle at alpha0 = 16: arm A
    # (mu = 0.75, nu = 0.25) falls like T^-1/2, arm B (mu = 0.02, nu = 0.98)
    # grows.  Only sweep at --jobs 1 runs.
    **{
        f"study_s_arm_{arm}": (
            "family = fixed_cycle\nn = 4\nd = 5\nN = 400\nnoise = gaussian_channel\nsigma = 0.5\n"
            f"alpha0 = 16\nbeta0 = 1.0\n{steps}T = 5000\nruns = 10\nT_grid = 500, 1000, 2000, 3000, 4000, 5000\n",
            (),
        )
        for arm, steps in (("a", "mu = 0.75\nnu = 0.25\n"), ("b", "mu = 0.02\nnu = 0.98\n"))
    },
}

# Configs whose run, theory and lemmas are also recorded with --seed 3, and
# lemmas with neither --seed nor --config.
SEEDED = ("matrix_file_gaps_gauss",)
# Configs recorded with only the listed command labels.
ONLY = {
    "identity_schedule": ("validate", "run-j1", "theory-j1", "theory-j2"),
    "identity_long_horizon": ("validate",),
    "study_s_arm_a": ("sweep-j1",),
    "study_s_arm_b": ("sweep-j1",),
}


def commands(name, theory_extra):
    """label -> CLI arguments, each but ``lemmas-no-config`` reading
    config.cfg."""
    out = {"validate": ["validate"], "lemmas": ["lemmas"]}
    for jobs in ("1", "2"):
        out[f"run-j{jobs}"] = ["run", "--plots", "--jobs", jobs]
        out[f"sweep-j{jobs}"] = ["sweep", "--plots", "--jobs", jobs]
        out[f"theory-j{jobs}"] = ["theory", "--jobs", jobs, *theory_extra]
    if name in SEEDED:
        out["run-seed3"] = ["run", "--seed", "3"]
        out["theory-seed3"] = ["theory", "--seed", "3", *theory_extra]
        out["lemmas-seed3"] = ["lemmas", "--seed", "3"]
    out = {label: [*args, "--config", "config.cfg"] for label, args in out.items()}
    if name in SEEDED:
        out["lemmas-no-config"] = ["lemmas"]
    return {label: args for label, args in out.items() if label in ONLY.get(name, out)}


def lemma_reports():
    """One row per check report: (seed, instances asked, name, instances,
    violations, repr(min_slack), repr(tol), repr(worst))."""
    from dimix.lemmas import run_suite

    return [
        [seed, size, rep.name, rep.instances, rep.violations, repr(rep.min_slack), repr(rep.tol), repr(rep.worst)]
        for seed in (0, 1, 2)
        for size in (1000, 150, 60, 0, 2500)
        for rep in run_suite(seed, size).reports
    ]


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    Path(argv[0]).mkdir(parents=True, exist_ok=True)
    rows = ",\n".join(json.dumps(row) for row in lemma_reports())
    (Path(argv[0]) / "lemma_reports.json").write_text(f"[\n{rows}\n]\n", encoding="utf-8")
    # Commands run in their own directories, so relative entries resolve here.
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(Path(p).resolve()) for p in entries if p)}
    for name, (text, theory_extra) in CONFIGS.items():
        for label, args in commands(name, theory_extra).items():
            here = Path(argv[0]) / name / label
            here.mkdir(parents=True, exist_ok=True)
            (here / "config.cfg").write_text(text, encoding="utf-8")
            for fname, body in MATRIX_FILES.items():
                (here / fname).write_text(body, encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, "-m", "dimix.cli", *args, "--out", "out"],
                cwd=here,
                env=env,
                capture_output=True,
                text=True,
            )
            results = {"stdout": proc.stdout, "stderr": proc.stderr, "exit": f"{proc.returncode}\n"}
            for fname, body in results.items():
                (here / fname).write_text(body, encoding="utf-8")
            print(f"{name}/{label}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
