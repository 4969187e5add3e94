"""Benchmark of the subcities solver stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout and nowhere else. One run is one process, single-threaded:
it builds the workload's instances from the seed, times passes over them
while the ``--seconds`` budget allows, checks every output, prints a
readable table, and prints as its last line one JSON object with the run's
verdict and metrics. ``--trace 1`` adds a traced pass over the same
instances and reports per-layer metrics instead of the end-to-end ones.
Times are CPU seconds of this process (and of any child it waited for), so
that other processes competing for the CPU do not count, rescaled by a
fixed probe timed beside them so that the host's speed drift does not
count either (``norm_cpu_s``, ``setup_s``).
"""

import os

# Single-threaded numerics: set before numpy is imported anywhere.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import heapq
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5
# Each instance is timed once per pass and its median is used, so that a
# burst of load on the machine moves one sample only.
MIN_PASSES = 2
# The host's speed drifts: the same code's CPU time moves by up to 1.7x
# between stretches of minutes. A fixed probe (pure-Python heap, dict and
# float work, the kind of work the solvers do) is timed before and after
# every instance, and the instance's CPU time is rescaled to a host on which
# the probe takes PROBE_REF_S. The probe is part of the benchmark, so no
# change to the program moves it.
PROBE_REF_S = 0.025
# A traced pass takes up to about 1.5 times an untraced one (plan-rn, whose
# radius_of_mass calls are many and short); the traced run keeps room for it.
TRACE_RESERVE = 1.6

# End-to-end metrics in the JSON line (and in BENCHMARK.json); the table
# also prints cpu_s, wall_s, solve_s_p50, objective_sum, fail_frac and
# mass_residual_ratio_max.
GATED = ("setup_s", "norm_cpu_s", "objective_mean", "solved_frac", "peak_rss_mb")


def cpu_clock() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def probe() -> float:
    """CPU seconds of the fixed probe work (about 25 ms)."""
    t0 = time.process_time()
    heap, counts, total = [], {}, 0.0
    for i in range(20000):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i))
        counts[i % 257] = counts.get(i % 257, 0.0) + 1.5
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    return time.process_time() - t0


def _import_package():
    """Import numpy and subcities from this checkout's src/ only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import subcities

    where = Path(subcities.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"subcities imported from {where}, not from {src}")


def _clear_caches():
    """Empty every functools cache on a module of the package, so that each
    pass starts as cold as the first (the instances repeat; a user's do not)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "subcities" or name.startswith("subcities.")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _solve_all(workload, instances, workdir, tracer=None, probed=True):
    """One pass: solve and check every instance; returns per-instance records
    (instance, CPU time, probe-scaled CPU time, outcome, traced counts).
    Without ``probed`` no probe runs and the scaled time is the CPU time."""
    from workloads import Outcome

    _clear_caches()
    records = []
    speed = probe() if probed else PROBE_REF_S
    for inst in instances:
        before = dict(tracer.counts) if tracer is not None else None
        outcome = None
        t0 = cpu_clock()
        try:
            raw = workload.solve(inst, workdir)
        except Exception as exc:  # a raising instance fails; the run goes on
            outcome = Outcome(False, reason=f"raised {type(exc).__name__}: {exc}")
        elapsed = cpu_clock() - t0
        after = probe() if probed else PROBE_REF_S
        scaled = elapsed * PROBE_REF_S / (0.5 * (speed + after))
        speed = after
        if outcome is None:
            try:
                outcome = workload.check(inst, raw, workdir)
            except Exception as exc:  # malformed output is a wrong output
                outcome = Outcome(False, True, f"check raised {type(exc).__name__}: {exc}")
        delta = None
        if tracer is not None:
            delta = {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()}
        records.append((inst, elapsed, scaled, outcome, delta))
    return records


def _timed_passes(workload, instances, workdir, budget, min_passes, reserve=0.0, tracer=None):
    """Repeat whole passes, at least ``min_passes``, while another pass (and
    ``reserve`` passes' worth of later work) fits the wall-clock ``budget``.
    Returns (wall seconds, records) per pass."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records = _solve_all(workload, instances, workdir, tracer)
        passes.append((time.perf_counter() - t0, records))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p[0] for p in passes)
        if len(passes) >= min_passes and elapsed + (1.0 + reserve) * typical > budget:
            return passes


def _instance_times(passes, scaled=True) -> list:
    """Each instance's median (probe-scaled) CPU time over the passes."""
    column = 2 if scaled else 1
    return [statistics.median(row) for row in zip(*([r[column] for r in recs] for _, recs in passes))]


def _setup(workload, seed, workdir):
    """Probe-scaled CPU time of one set-up: a fresh interpreter imports numpy
    and the package, then this process generates the instances and solves
    the fixed warm-up instances."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = probe()
    t0 = cpu_clock()
    subprocess.run([sys.executable, "-c", "import numpy, subcities"], env=env, cwd=ROOT, check=True)
    t_import = cpu_clock()
    instances = workload.make(seed)
    warm = _solve_all(workload, workload.warmups(), workdir, probed=False)
    t_end = cpu_clock()
    scale = PROBE_REF_S / (0.5 * (before + probe()))
    return (t_import - t0) * scale, (t_end - t_import) * scale, instances, warm


def _census(records, traced: bool) -> dict:
    """Share of instances with each input or output property."""
    total = len(records)
    props = Counter()
    for inst, _, _, outcome, delta in records:
        for key, value in {**inst.props, **outcome.props}.items():
            props[f"{key}={value}"] += 1
        if not outcome.ok:
            props["failed"] += 1
        if traced:
            props[f"fallback_ran={bool(delta.get('semidiscrete.fallback.sweeps', 0))}"] += 1
    return {key: count / total for key, count in sorted(props.items())}


def _end_to_end(setup_s, passes) -> dict:
    times = _instance_times(passes)
    raw_times = _instance_times(passes, scaled=False)
    records = passes[0][1]
    solved = [o for _, _, _, o, _ in records if o.ok]
    objectives = [o.objective for o in solved if o.objective is not None]
    # per part, so that a failure does not move the mean towards another
    # part's objectives
    by_part = {}
    for inst, _, _, o, _ in records:
        if o.ok and o.objective is not None:
            by_part.setdefault(inst.props.get("part"), []).append(o.objective)
    ratios = [o.residual_ratio for _, _, _, o, _ in records if o.residual_ratio is not None]
    metrics = {
        "setup_s": (setup_s, "s"),
        "norm_cpu_s": (math.fsum(times), "s"),
        "cpu_s": (math.fsum(raw_times), "s"),
        "wall_s": (statistics.median(wall for wall, _ in passes), "s"),
        "solve_s_p50": (statistics.median(times), "s"),
        # 0 only when no instance produced an objective; solved_frac then reads 0 too
        "objective_mean": (
            statistics.fmean(statistics.fmean(v) for v in by_part.values()) if by_part else 0.0,
            "cost",
        ),
        "objective_sum": (math.fsum(objectives), "cost"),
        "solved_frac": (len(solved) / len(records), "ratio"),
        "fail_frac": (1.0 - len(solved) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if ratios:
        metrics["mass_residual_ratio_max"] = (max(ratios), "ratio")
    parts = Counter()
    for (inst, _, _, _, _), t in zip(records, times):
        if "part" in inst.props:
            parts[inst.props["part"]] += t
    for part, total in parts.items():
        metrics[f"norm_cpu_s.{part}"] = (total, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 1

    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workload, workdir, numpy.__version__)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, workload, workdir, numpy_version) -> int:
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  nproc {os.cpu_count()}"
        f"  python {platform.python_version()}  numpy {numpy_version}"
    )
    # set-up, repeated: import in a fresh interpreter, generate the
    # instances, solve the fixed warm-up instances
    setups = [_setup(workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    import_s = statistics.median(s[0] for s in setups)
    prepare_s = statistics.median(s[1] for s in setups)
    instances = setups[-1][2]
    warm_records = [r for s in setups for r in s[3]]
    print(
        f"set-up (median of {SETUP_REPEATS}, probe-scaled CPU): import {import_s:.4f} s,"
        f" instances + warm-up {prepare_s:.4f} s"
    )

    if args.trace:
        from check_hooks import run_checks

        t0 = time.perf_counter()
        mismatches = run_checks(workdir / "hook-check")
        budget = args.seconds - (time.perf_counter() - t0)
        print(f"hand-count check of the wrappers: {'pass' if not mismatches else f'{mismatches} mismatches'}")
        passes = _timed_passes(workload, instances, workdir, budget, 1, TRACE_RESERVE)
    else:
        passes = _timed_passes(workload, instances, workdir, args.seconds, MIN_PASSES)
    metrics = _end_to_end(import_s + prepare_s, passes)
    records = passes[0][1]
    traced = None
    if args.trace:
        from tracer import LAYER_METRICS, Tracer

        with Tracer() as tracer:
            traced = _timed_passes(workload, instances, workdir, 0.0, 1, tracer=tracer)
        layer = tracer.metrics()
        traced_cpu = math.fsum(_instance_times(traced))
        layer["trace.norm_cpu_s"] = traced_cpu
        layer["trace.overhead_s"] = traced_cpu - metrics["norm_cpu_s"][0]
        layer["trace.missing_hooks"] = float(len(tracer.missing))
        layer["trace.hook_check_failures"] = float(mismatches)
        units = dict(
            LAYER_METRICS,
            **{
                "trace.norm_cpu_s": "s",
                "trace.overhead_s": "s",
                "trace.missing_hooks": "count",
                "trace.hook_check_failures": "count",
            },
        )
        records = traced[0][1]
        if tracer.missing:
            print("missing hooks: " + ", ".join(tracer.missing))

    print(
        f"instances {len(records)}  passes {len(passes)}  solve samples {len(records) * len(passes)}"
        "  (times: per-instance median over the passes)"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print("census (share of instances):")
    for key, share in _census(records, traced is not None).items():
        print(f"  {key:<40} {share:.3f}")
    failures = [(inst.name, o.reason) for inst, _, _, o, _ in records if not o.ok]
    for name, reason in failures:
        print(f"  failed {name}: {reason}")

    checked = warm_records + [r for _, recs in passes + (traced or []) for r in recs]
    correct = not any(o.wrong for _, _, _, o, _ in checked)
    if args.trace:
        print("per-layer (traced pass):")
        for name in units:
            print(f"  {name:<44} {layer[name]:>14.6g} {units[name]}")
        out_metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        out_metrics = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in GATED}
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": len(records),
                "failed": len(failures),
                "metrics": out_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
