"""radd benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the benchmark imports radd from ``src/``. The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run's record (versions, BLAS
configuration, input sizes, per-op medians and sample counts), which is
also written with the spans of a traced run to ``.perfbench_out/``.
``--all`` runs every workload in a fresh process each and prints a table of
metric, unit and value. See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"setup_s": "s", "job_s": "s", "queries_per_s": "1/s", "peak_rss_mb": "MB"}


def _import_radd():
    src = ROOT / "src"
    if not (src / "radd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'radd'} not found; run from a checkout of the radd repository")
    sys.path.insert(0, str(src))
    import radd
    import radd.cli

    if Path(radd.__file__).resolve().parent != src / "radd":
        raise SystemExit(f"perfbench: imported radd from {radd.__file__}, not from {src}")
    return radd


def _median(values):
    return statistics.median(values) if values else 0.0


def _op_times(passes, attr="seconds") -> dict[str, list[float]]:
    by_name: dict[str, list[float]] = {}
    for _, ops in passes:
        for op in ops:
            if op.error is None:
                by_name.setdefault(op.name, []).append(getattr(op, attr))
    return by_name


def _op_medians(passes, attr="seconds") -> dict:
    """Per op: the median of ``attr`` (wall or scaled seconds)."""
    queries = {op.name: op.queries for _, ops in passes for op in ops}
    return {name: {"median_s": _median(v), "samples": len(v), "queries": queries[name]}
            for name, v in _op_times(passes, attr).items()}


def _job_metrics(ops: dict) -> tuple[float, float]:
    """One pass's time and its scoring rate, both from per-op medians, so
    that a stall in one op of one pass moves neither."""
    job = sum(op["median_s"] for op in ops.values())
    scoring = [op for op in ops.values() if op["queries"]]
    seconds = sum(op["median_s"] for op in scoring)
    return job, sum(op["queries"] for op in scoring) / seconds if seconds else 0.0


def _check(workload, passes) -> tuple[int, int, list[str]]:
    """Compare every op against the reference; returns attempted, failed
    and the problems found."""
    expected = workload.expected()
    bad_tags = workload.sample_check(expected)
    problems = sorted(set(bad_tags.values()))
    attempted = failed = 0
    for _, ops in passes:
        for op in ops:
            attempted += 1
            reason = op.error
            if reason is None and op.output != expected.outputs[op.name]:
                reason = f"output differs from the reference: {json.dumps(op.output)[:300]}"
            if reason is None and bad_tags.keys() & set(op.tags):
                reason = "sample neighbour check failed"
            if reason is not None:
                failed += 1
                problems.append(f"{op.name}: {reason}")
    return attempted, failed, problems


def run_untraced(workload, seconds: float) -> dict:
    """On a workload marked ``scaled``, times are scaled by the speed
    reference (see speed.py), and the record keeps the wall times too."""
    scaled = workload.scaled
    setup_scaled, setup_wall = [], []
    for _ in range(workload.setup_reps):
        workload.release()
        gc.collect()
        before = speed.reference_s() if scaled else 0.0
        start = time.perf_counter()
        workload.setup()
        setup_wall.append(time.perf_counter() - start)
        if scaled:
            setup_scaled.append(speed.scale(setup_wall[-1], before, speed.reference_s()))
    setup = setup_scaled if scaled else setup_wall
    setup_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = []
    started = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - started < seconds:
        workload.prepare_pass()
        gc.collect()
        start = time.perf_counter()
        ops = workload.run_pass(bracket=scaled)
        passes.append((time.perf_counter() - start, ops))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = _check(workload, passes)
    attr = "scaled_s" if scaled else "seconds"
    ops = _op_medians(passes, attr)
    job_s, queries_per_s = _job_metrics(ops)
    wall_job_s, wall_queries_per_s = _job_metrics(_op_medians(passes))
    metrics = {"setup_s": _median(setup), "job_s": job_s, "queries_per_s": queries_per_s, "peak_rss_mb": peak_mb}
    record = {
        "samples": {"setup_s": len(setup), "job_s": len(passes), "queries_per_s": len(passes), "peak_rss_mb": 1},
        "peak_rss_mb_after_setup": setup_peak_mb,
        "timing": "scaled" if scaled else "wall",
        "wall": {"setup_s": _median(setup_wall), "job_s": wall_job_s, "queries_per_s": wall_queries_per_s},
        "setup_s_all": setup,
        "setup_wall_s_all": setup_wall,
        "pass_wall_s_all": [wall for wall, _ in passes],
        "op_s_all": _op_times(passes, attr),
        "op_wall_s_all": _op_times(passes),
        "ops": ops,
    }
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics, "record": record}


def run_traced(radd, workload, seconds: float) -> dict:
    probe = layers.Probe()
    tracer = Tracer(radd, probe.observers())
    with tracer, tracer.span("setup") as setup_root:
        workload.setup()
    roots = {"setup": setup_root, "pass": []}
    plain, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        workload.prepare_pass()
        gc.collect()
        start = time.perf_counter()
        ops = workload.run_pass()
        plain.append((time.perf_counter() - start, ops))
        workload.prepare_pass()
        gc.collect()
        with tracer, tracer.span("pass") as root:
            ops = workload.run_pass(tracer)
        traced.append((tracer.spans[root][3] - tracer.spans[root][2], ops))
        roots["pass"].append(root)
    attempted, failed, problems = _check(workload, plain + traced)
    for (_, a), (_, b) in zip(plain, traced):
        for op_a, op_b in zip(a, b):
            if op_a.output != op_b.output:
                failed += 1
                problems.append(f"{op_b.name}: traced output differs from untraced output")
    problems += probe.check_returned()
    metrics = layers.metrics(
        tracer.spans, roots, probe.blas_rates(),
        overhead=_median([w for w, _ in traced]) / _median([w for w, _ in plain]) - 1.0,
    )
    record = {
        "samples": {"per_layer": len(traced), "untraced_passes": len(plain)},
        "ops": _op_medians(traced),
        "spans": tracer.spans,
    }
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics, "record": record}


def environment(radd) -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 2 has no mode argument
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "radd": radd.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def run_one(args) -> int:
    radd = _import_radd()
    cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(radd, args.seed, workdir)
        if args.trace:
            result = run_traced(radd, workload, args.seconds)
        else:
            result = run_untraced(workload, args.seconds)
        sizes = workload.sizes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(radd), "inputs": sizes, "problems": result["problems"][:20],
        **result["record"],
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps({**record, "metrics": result["metrics"]}) + "\n", encoding="utf-8")
    record.pop("spans", None)
    units = layers.UNITS if args.trace else UNITS
    final = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }
    print(json.dumps(record))
    print(json.dumps(final), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, "correct", "", result["correct"]))
        rows.append((name, "failed/attempted", "", f"{result['failed']}/{result['attempted']}"))
        rows.extend((name, m, v["unit"], v["value"]) for m, v in result["metrics"].items())
    for workload, metric, unit, value in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<16} {metric:<32} {unit:<8} {text}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0, help="measure passes for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
