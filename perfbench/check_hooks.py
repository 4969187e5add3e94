"""Hand-count check of the tracer's wrappers.

Traces one tiny instance per CLI mode (and one direct transport solve) and
compares the traced counts with values counted by hand: counts that the
configuration fixes must match, the others must be non-zero.
It also removes two hook points that a later change may delete and checks
that the tracer reports them as missing instead of failing.

    python3 perfbench/check_hooks.py    # from the root of a checkout
"""

from __future__ import annotations

import sys
from pathlib import Path


def _mu(name, dump):
    return name, {
        "mode": "mu-subproblem",
        "f": {"kind": "quadratic"},
        "p": 2.0,
        "n": 1,
        "grid": 16,
        "domain": [[0.0, 1.0]],
        "atoms": [{"point": [0.5], "mass": 1.0}],
        "dump_plans": dump,
    }


# Counts that a correct, faster program may change (workspace reuse, fewer
# R(m) inversions, merged file writers, ...) are only required to be
# non-zero; counts that the configuration fixes are pinned.
RAN = "ran"

# Each case: (name, raw config, expected counts). Pinned counts by hand:
# - mu-subproblem, one atom: one cli.run call makes one weight solve, and the
#   single atom takes the LP route (one transport solve); dump_plans adds
#   one transport solve for the written plan.
# - plan-bounded, one centred atom: one solve_bounded call.
# - validate, one site, 4 mass units: one brute-force call over one
#   configuration (one inner solve), then one bounded solve.
# - plan-rn with k_max 1: one mass optimization and one assembly; the single
#   ball takes the LP route.
# - energy-curve: one cli.run call that evaluates the energy.
CASES = [
    (
        *_mu("mu-one-atom", False),
        {
            "cli.run.calls": 1,
            "semidiscrete.weight_solve.calls": 1,
            "semidiscrete.weight_solve.converged_ratio": 1,
            "discrete_transport.solve.calls": 1,
            "discrete_transport.solve.pairs": RAN,
            "semidiscrete.radius_of_mass.calls": RAN,
            "semidiscrete.workspace.builds": RAN,
            "semidiscrete.workspace.cells_x_atoms": RAN,
            "semidiscrete.density.calls": RAN,
            "measures.io.calls": RAN,
        },
    ),
    (
        *_mu("mu-one-atom-dump", True),
        {
            "semidiscrete.weight_solve.calls": 1,
            "discrete_transport.solve.calls": 2,
            "measures.io.calls": RAN,
        },
    ),
    (
        "bounded-one-atom",
        {
            "mode": "plan-bounded",
            "f": {"kind": "quadratic"},
            "g": {"kind": "power", "b": 0.4, "r": 0.5},
            "p": 2.0,
            "n": 1,
            "grid": 16,
            "domain": [[0.0, 1.0]],
            "atoms": [{"point": [0.5], "mass": 1.0}],
            "rounds": 3,
        },
        {
            "planner.bounded.calls": 1,
            "planner.bounded.candidates": RAN,
            "planner.bounded.rounds": RAN,
            "semidiscrete.weight_solve.calls": RAN,
            "measures.io.calls": RAN,
        },
    ),
    (
        "validate-one-site",
        {
            "mode": "validate",
            "f": {"kind": "quadratic"},
            "g": {"kind": "power", "b": 0.3, "r": 0.5},
            "p": 2.0,
            "n": 1,
            "domain": [[0.0, 1.0]],
            "rounds": 3,
            "validate": {"grid": 8, "sites": [[0.5]], "mass_units": 4},
        },
        {
            "oracle.brute_force.calls": 1,
            "oracle.inner_solves": 1,
            "planner.bounded.calls": 1,
            "planner.bounded.candidates": RAN,
            "semidiscrete.weight_solve.calls": RAN,
        },
    ),
    (
        "rn-one-atom",
        {
            "mode": "plan-rn",
            "f": {"kind": "power", "a": 1.0, "q": 2.0},
            "g": {"kind": "power", "b": 1.0, "r": 0.5},
            "p": 2.0,
            "n": 1,
            "k_max": 1,
        },
        {
            "cli.run.calls": 1,
            "planner.optimize_masses.calls": 1,
            "planner.assemble_rn.calls": 1,
            "discrete_transport.solve.calls": 1,
            "subcity.curve_build.calls": RAN,
            "subcity.energy.calls": RAN,
            "semidiscrete.radius_of_mass.calls": RAN,
            "semidiscrete.density.calls": RAN,
            "measures.io.calls": RAN,
        },
    ),
    (
        "energy-curve-8",
        {
            "mode": "energy-curve",
            "f": {"kind": "quadratic"},
            "g": {"kind": "power", "b": 1.0, "r": 0.5},
            "p": 2.0,
            "n": 2,
            "curve_samples": 8,
        },
        {
            "cli.run.calls": 1,
            "subcity.energy.calls": RAN,
            "semidiscrete.radius_of_mass.calls": RAN,
        },
    ),
]

# hook points a later change may delete; removed here to check the report
_DELETABLE = ("_coordinate_sweep", "_level_polish")


def _traced_counts(tracer_cls, raw, outdir):
    from subcities import cli

    with tracer_cls() as tracer:
        status = cli.run(cli.RunConfig(dict(raw, out=str(outdir))))
    counts = dict(tracer.counts)
    counts.update(tracer.metrics())
    return status, counts, tracer.missing


def _mismatch(want, got) -> bool:
    return got == 0 if want == RAN else got != want


def run_checks(outdir: Path) -> int:
    """Run every case; print each mismatch and return how many there were."""
    import subcities
    from subcities import semidiscrete

    from tracer import Tracer

    mismatches = 0
    src = subcities.WeightedPointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.5, 0.25, 0.25])
    tgt = subcities.WeightedPointCloud([[0.5, 0.5], [1.0, 1.0]], [0.5, 0.5])
    with Tracer() as tracer:
        subcities.solve_discrete_transport(src, tgt, 2.0)
    got = (tracer.counts["discrete_transport.solve.calls"], tracer.counts["discrete_transport.solve.pairs"])
    if got != (1, 6):
        print(f"  hook check transport-3x2: calls, pairs {got} != (1, 6)")
        mismatches += 1

    for name, raw, expected in CASES:
        status, counts, missing = _traced_counts(Tracer, raw, outdir / name)
        if status != 0 or missing:
            print(f"  hook check {name}: exit {status}, missing {missing}")
            mismatches += 1
        for key, want in expected.items():
            if _mismatch(want, counts.get(key, 0)):
                print(f"  hook check {name}: {key} = {counts.get(key, 0)}, expected {want}")
                mismatches += 1

    saved = {attr: getattr(semidiscrete, attr) for attr in _DELETABLE}
    try:
        for attr in _DELETABLE:
            delattr(semidiscrete, attr)
        name, raw, expected = CASES[0]
        status, counts, missing = _traced_counts(Tracer, raw, outdir / "missing-hooks")
    finally:
        for attr, value in saved.items():
            setattr(semidiscrete, attr, value)
    want_missing = sorted(f"semidiscrete.{attr}" for attr in _DELETABLE)
    if sorted(missing) != want_missing or status != 0:
        print(f"  hook check missing-hooks: exit {status}, missing {missing} != {want_missing}")
        mismatches += 1
    if counts.get("semidiscrete.weight_solve.calls") != expected["semidiscrete.weight_solve.calls"]:
        print("  hook check missing-hooks: other hooks stopped counting")
        mismatches += 1
    return mismatches


if __name__ == "__main__":
    import shutil
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    root = Path.cwd() / ".perfbench-work"
    root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root))
    try:
        mismatches = run_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print("hand-count check:", "pass" if not mismatches else f"{mismatches} mismatches")
    sys.exit(0 if not mismatches else 1)
