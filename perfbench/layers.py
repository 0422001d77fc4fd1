"""Per-layer metrics of a traced run.

:class:`Probe` supplies the tracer's observers (bytes moved by save/load,
rows ingested, retrieval shape, flops and hybrid overlap, the predictions
each report was computed from), times a bare matmul for every retrieval
shape seen, and re-checks each returned EER and accuracy against
brute-force enumeration over the returned scores. :func:`metrics` folds the
spans of one traced set-up plus the mean traced pass into the per-layer
figures listed in :data:`UNITS`.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import reference
from tracer import layer_totals, subtree

CLI_COMMANDS = ("build", "evaluate_raw", "evaluate_hybrid", "sweep", "ablate")
# (metric, unit, span name, field); field None marks a derived metric.
LAYERS = [
    ("store.ingest_jsonl.s", "s", "store.ingest_jsonl", "s"),
    ("store.ingest_jsonl.rows_per_s", "rows/s", None, None),
    ("store.build.s", "s", "store.build", "s"),
    ("store.from_arrays.s", "s", "store.from_arrays", "s"),
    ("store.save.s", "s", "store.save", "s"),
    ("store.save.mb_per_s", "MB/s", None, None),
    ("store.load.s", "s", "store.load", "s"),
    ("store.load.mb_per_s", "MB/s", None, None),
    ("store.load.calls", "count", "store.load", "calls"),
    ("store.read_queries_jsonl.s", "s", "store.read_queries_jsonl", "s"),
    ("retrieval.retrieve_batch.s", "s", "retrieval.retrieve_batch", "s"),
    ("retrieval.retrieve_batch.calls", "count", "retrieval.retrieve_batch", "calls"),
    ("retrieval.queries", "count", "retrieval.retrieve_batch", "queries"),
    ("retrieval.cm.s", "s", "retrieval.cm", "s"),
    ("retrieval.prof.s", "s", "retrieval.prof", "s"),
    ("retrieval.hybrid.s", "s", "retrieval.hybrid", "s"),
    ("retrieval.gflop", "GFLOP", None, None),
    ("retrieval.gflop_per_s", "GFLOP/s", None, None),
    ("blas.gflop_per_s", "GFLOP/s", None, None),
    ("blas.f32_gflop_per_s", "GFLOP/s", None, None),
    ("retrieval.blas_frac", "frac", None, None),
    ("retrieval.hybrid_dedup_frac", "frac", None, None),
    ("ensemble.predict.s", "s", "ensemble.predict", "s"),
    ("ensemble.predict.calls", "count", "ensemble.predict", "calls"),
    ("metrics.eer.s", "s", "metrics.eer", "s"),
    ("metrics.accuracy.s", "s", "metrics.accuracy", "s"),
    ("metrics.report.s", "s", "metrics.report_from_predictions", "s"),
    ("ablation.mask_base.s", "s", "ablation.mask_base", "s"),
    ("ablation.mask_queries.s", "s", "ablation.mask_queries", "s"),
    ("synthetic.generate.s", "s", "synthetic.generate", "s"),
    *[(f"cli.{c}.{f}", "s", f"cli.{c}", f) for c in CLI_COMMANDS for f in ("s", "self_s")],
    ("trace.overhead_frac", "frac", None, None),
    ("trace.coverage", "frac", None, None),
]
UNITS = {name: unit for name, unit, _, _ in LAYERS}


class Probe:
    """Observers for the tracer plus the measurements made after the passes."""

    def __init__(self):
        self.shapes: dict[tuple[str, int, int], object] = {}  # (space, n, d) -> a base of that shape
        self.returned: list[tuple[list[float], list[int], object]] = []

    def observers(self) -> dict:
        def file_bytes(args, result):
            return {"bytes": os.path.getsize(args["path"])}

        def ingest(args, result):
            return {"rows": len(result)}

        def retrieve(args, result):
            base, queries, strategy, k = args["base"], args["queries"], args["strategy"], args["k"]
            spaces = ("cm", "prof") if strategy.value == "hybrid" else (strategy.value,)
            attrs = {"strategy": strategy.value, "queries": len(queries), "flop": 0.0}
            for space in spaces:
                key = (space, base.n, base.dim(space))
                self.shapes.setdefault(key, base)
                flop = 2.0 * base.n * base.dim(space) * len(queries)
                attrs["flop"] += flop
                attrs["flop@%s:%d:%d" % key] = flop
            if strategy.value == "hybrid":
                attrs["hybrid_queries"] = len(result)
                attrs["dedup_sum"] = sum(1.0 - len(ns) / k for ns in result)
            return attrs

        def report(args, result):
            scores = [p.score for p in args["predictions"]]
            labels = [q.label for q in args["queries"]]
            self.returned.append((scores, labels, result))

        return {
            "store.save": file_bytes,
            "store.load": file_bytes,
            "store.ingest_jsonl": ingest,
            "retrieval.retrieve_batch": retrieve,
            "metrics.report_from_predictions": report,
        }

    def check_returned(self) -> list[str]:
        """Each report's EER and accuracy against brute-force enumeration
        over the scores it was computed from."""
        problems = []
        for scores, labels, rep in self.returned:
            s, y = np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=np.int64)
            want = (reference.eer(s, y), reference.accuracy(s, y))
            if (rep.eer, rep.accuracy) != want:
                problems.append(f"report ({rep.strategy}/{rep.ensemble}, k={rep.k}): eer/accuracy "
                                f"{rep.eer}/{rep.accuracy} != brute force {want[0]}/{want[1]}")
        return problems

    def blas_rates(self) -> dict:
        """(float64, float32) GFLOP/s of a bare (n, d) @ (d, 64) matmul per
        retrieval shape, on the base's own matrices."""
        rng = np.random.default_rng(0)
        rates = {}
        for (space, n, d), base in self.shapes.items():
            q64 = rng.standard_normal((64, d))
            pair = []
            for matrix, q in ((base.matrix64(space), q64), (base.matrix(space), q64.astype(np.float32))):
                matrix @ q.T  # warm-up
                times, spent = [], 0.0
                while len(times) < 5 or (spent < 0.2 and len(times) < 200):
                    start = time.perf_counter()
                    matrix @ q.T
                    times.append(time.perf_counter() - start)
                    spent += times[-1]
                pair.append(2.0 * n * d * 64 / statistics.median(times) / 1e9)
            rates["%s:%d:%d" % (space, n, d)] = tuple(pair)
        return rates


def metrics(spans, roots, blas_rates: dict, overhead: float) -> dict:
    """Per-layer figures for one traced set-up plus the mean traced pass."""
    setup = layer_totals(spans, subtree(spans, roots["setup"]))
    passes = [layer_totals(spans, subtree(spans, r)) for r in roots["pass"]]

    def total(name: str, field: str) -> float:
        return setup[name][field] + sum(p[name][field] for p in passes) / len(passes)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {metric: total(name, field) for metric, _, name, field in LAYERS if field is not None}
    out["store.ingest_jsonl.rows_per_s"] = ratio(total("store.ingest_jsonl", "rows"), out["store.ingest_jsonl.s"])
    out["store.save.mb_per_s"] = ratio(total("store.save", "bytes") / 1e6, out["store.save.s"])
    out["store.load.mb_per_s"] = ratio(total("store.load", "bytes") / 1e6, out["store.load.s"])
    flop = total("retrieval.retrieve_batch", "flop")
    out["retrieval.gflop"] = flop / 1e9
    out["retrieval.gflop_per_s"] = ratio(flop / 1e9, out["retrieval.retrieve_batch.s"])
    blas64 = sum(total("retrieval.retrieve_batch", f"flop@{key}") / 1e9 / r[0] for key, r in blas_rates.items())
    blas32 = sum(total("retrieval.retrieve_batch", f"flop@{key}") / 1e9 / r[1] for key, r in blas_rates.items())
    out["blas.gflop_per_s"] = ratio(flop / 1e9, blas64)
    out["blas.f32_gflop_per_s"] = ratio(flop / 1e9, blas32)
    out["retrieval.blas_frac"] = ratio(out["retrieval.gflop_per_s"], out["blas.gflop_per_s"])
    out["retrieval.hybrid_dedup_frac"] = ratio(
        total("retrieval.retrieve_batch", "dedup_sum"), total("retrieval.retrieve_batch", "hybrid_queries"))
    out["trace.overhead_frac"] = overhead
    covered = [sum(spans[i][3] - spans[i][2] for i in range(len(spans)) if spans[i][1] == r)
               / (spans[r][3] - spans[r][2]) for r in roots["pass"]]
    out["trace.coverage"] = sum(covered) / len(covered)
    return {name: out[name] for name in UNITS}
