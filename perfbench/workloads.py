"""The benchmark's workloads.

Each workload makes its inputs from the seed in :meth:`setup`, runs one
timed pass of ops in :meth:`run_pass`, and computes after the timed part the
outputs every op must reproduce (:meth:`expected`) plus a neighbour-index
check on a seeded sample of queries (:meth:`sample_check`). An op is one CLI
command or one ``radd.evaluate`` call. On a workload marked ``scaled``,
untraced passes bracket each op with the speed reference of ``speed.py``
and record its scaled time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import reference
import speed

SAMPLE_QUERIES = 32


@dataclass
class Op:
    name: str
    seconds: float  # wall time
    queries: int  # labelled queries scored
    tags: tuple[str, ...]  # the sample checks this op depends on
    output: object = None
    error: str | None = None
    scaled_s: float = 0.0  # wall time at the speed reference's nominal speed


def _timed(op: Op, fn, bracket: bool):
    """Run ``fn`` and record its wall time on ``op``; with ``bracket``, also
    time the speed reference before and after it and record the scaled time."""
    before = speed.reference_s() if bracket else 0.0
    start = time.perf_counter()
    result = fn()
    op.seconds = time.perf_counter() - start
    if bracket:
        op.scaled_s = speed.scale(op.seconds, before, speed.reference_s())
    return result


@dataclass
class Expected:
    outputs: dict[str, object]  # op name -> output the op must produce
    neighbours: dict[str, list[np.ndarray]]  # tag -> neighbour rows per query position


def _ensemble_report(rule, strategy, k, neighbours, labels, scores32, q_labels) -> dict:
    scores = reference.ensemble(rule, labels, scores32, neighbours)
    out = reference.report(scores, q_labels)
    out["threshold_used"] = 0.5
    out["config"] = {"strategy": strategy, "ensemble": rule, "k": k}
    return out


def _eer_key(value):
    return float("inf") if value is None else value


def _rows(ranked) -> list[np.ndarray]:
    return list(ranked[0])


def _compare_sample(radd, base, records, positions, strategy, k, want, parallelism=1) -> str | None:
    try:
        got = radd.retrieve_batch(base, [records[i] for i in positions], strategy, k, parallelism)
    except Exception as exc:  # reported as a failed check
        return f"{strategy.value} k={k}: retrieve_batch raised {type(exc).__name__}: {exc}"
    for i, ns in zip(positions, got):
        if not np.array_equal(ns.indices, want[i]):
            return f"{strategy.value} k={k} query {i}: neighbours {ns.indices[:8]}... != reference {want[i][:8]}..."
    return None


class Workload:
    name = ""
    setup_reps = 3
    min_passes = 1
    scaled = False  # report times scaled by the speed reference (speed.py)

    def __init__(self, radd, seed: int, workdir):
        self.radd = radd
        self.seed = seed
        self.workdir = workdir
        self.sample = np.sort(np.random.default_rng(seed).choice(self.n_queries, SAMPLE_QUERIES, replace=False))

    def release(self) -> None:
        """Drop the state of an earlier set-up before the next one."""

    def prepare_pass(self) -> None:
        """Untimed work between passes."""


class CliQuickstart(Workload):
    name = "cli-quickstart"
    # Its commands are short, single-threaded and mostly pure Python, the
    # timings most exposed to the host's changing speed, so a run takes
    # medians over at least 6 passes and scales them by the speed reference.
    min_passes = 6
    scaled = True
    n_queries = 400
    synth = dict(n_real=2000, n_seen_fake=2000, n_query_real=200, n_query_zeroday=200)
    masks = ((), ("age", "gender"), ("emotion",), ("voice_quality",))
    k_grid = (5, 10, 20, 50, 100, 200)

    def __init__(self, radd, seed, workdir):
        super().__init__(radd, seed, workdir)
        self.knowledge = workdir / "knowledge.jsonl"
        self.queries = workdir / "queries.jsonl"
        self.base_path = workdir / "base.rakb"
        self.runs = workdir / "runs"

    def setup(self) -> None:
        radd = self.radd
        entries, queries = radd.generate(radd.SynthConfig(seed=self.seed, **self.synth))
        radd.store.write_jsonl(self.knowledge, (radd.store.entry_to_json(e) for e in entries))
        radd.store.write_jsonl(self.queries, (radd.store.query_to_json(q) for q in queries))
        self.entries, self.records = entries, queries

    def release(self) -> None:
        self.entries = self.records = None

    def prepare_pass(self) -> None:
        shutil.rmtree(self.runs, ignore_errors=True)
        self.base_path.unlink(missing_ok=True)

    def commands(self):
        ev = ["--base", str(self.base_path), "--queries", str(self.queries)]
        return [
            ("build", 0, ("base",), ["build", str(self.knowledge), "--out", str(self.base_path)], None),
            ("evaluate_raw", self.n_queries, (),
             ["evaluate", *ev, "--strategy", "none", "--out", str(self.runs / "baseline")], "baseline/report.json"),
            ("evaluate_hybrid", self.n_queries, ("hybrid",),
             ["evaluate", *ev, "--strategy", "hybrid", "--ensemble", "mv", "--k", "20",
              "--out", str(self.runs / "hybrid-mv")], "hybrid-mv/report.json"),
            ("sweep", self.n_queries * len(self.k_grid), ("hybrid",),
             ["sweep", *ev, "--strategy", "hybrid", "--ensemble", "ratio", "--out", str(self.runs / "sweep")],
             "sweep/sweep.json"),
            ("ablate", self.n_queries * len(self.masks), ("hybrid",),
             ["ablate", *ev, "--strategy", "hybrid", "--ensemble", "ratio", "--k", "10",
              "--out", str(self.runs / "ablate")], "ablate/ablation.json"),
        ]

    def run_pass(self, tracer=None, bracket=False) -> list[Op]:
        ops = []
        for name, queries, tags, argv, output in self.commands():
            op = Op(name, 0.0, queries, tags)
            span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()

            def command(span=span, argv=argv):
                with span, contextlib.redirect_stdout(io.StringIO()):
                    return self.radd.cli.main(argv)

            try:
                code = _timed(op, command, bracket)
                if code != 0:
                    op.error = f"exit code {code}"
                elif output is None:
                    op.output = {"written": self.base_path.stat().st_size > 0}
                else:
                    op.output = json.loads((self.runs / output).read_text(encoding="utf-8"))
            except Exception as exc:  # an op that raises is a failed op, not a crash
                op.error = f"{type(exc).__name__}: {exc}"
            ops.append(op)
        return ops

    def arrays(self):
        e, q = self.entries, self.records
        return (
            np.stack([x.cm for x in e]), np.stack([x.prof for x in e]),
            np.array([x.label for x in e], dtype=np.int64), np.array([x.score for x in e], dtype=np.float32),
            np.stack([x.cm for x in q]), np.stack([x.prof for x in q]),
            np.array([x.label for x in q], dtype=np.int64), np.array([x.score for x in q], dtype=np.float64),
        )

    def expected(self) -> Expected:
        cm, prof, labels, scores32, q_cm, q_prof, q_labels, q_scores = self.arrays()
        kmax = max(self.k_grid)
        cm_rank = reference.rank(cm, q_cm, kmax, full_sort=True)
        spans, start = {}, 0
        for attr, width in self.radd.DEFAULT_PROFILE_LAYOUT.attributes:
            spans[attr] = range(start, start + width)
            start += width

        def prof_rank(mask):
            cols = [c for attr, r in spans.items() if attr not in mask for c in r]
            return reference.rank(prof[:, cols], q_prof[:, cols], kmax, full_sort=True)

        def hybrid_report(rule, k, prof_ranked):
            rows = reference.hybrid(cm_rank, prof_ranked, k)
            return _ensemble_report(rule, "hybrid", k, rows, labels, scores32, q_labels)

        full = prof_rank(())
        raw = reference.report(q_scores, q_labels)
        raw.update(threshold_used=0.5, config={"strategy": "none", "ensemble": "none", "k": 0})
        sweep = [hybrid_report("ratio", k, full) for k in self.k_grid]
        best = min(range(len(self.k_grid)), key=lambda i: (_eer_key(sweep[i]["eer"]), self.k_grid[i]))
        ablate = []
        for mask in self.masks:
            label = "w/o " + "+".join(sorted(mask)) if mask else "full"
            ablate.append({"mask": sorted(mask), "label": label, "report": hybrid_report("ratio", 10, prof_rank(mask))})
        outputs = {
            "build": {"written": True},
            "evaluate_raw": raw,
            "evaluate_hybrid": hybrid_report("mv", 20, full),
            "sweep": {"grid": list(self.k_grid), "reports": sweep, "best_k": self.k_grid[best], "selected_by": "eval"},
            "ablate": ablate,
        }
        return Expected(outputs, {"hybrid": reference.hybrid(cm_rank, full, 20)})

    def sample_check(self, expected: Expected) -> dict[str, str]:
        radd = self.radd
        try:
            base = radd.load(self.base_path)
        except Exception as exc:  # reported as a failed check
            return {"base": f"cannot load the built base: {type(exc).__name__}: {exc}", "hybrid": "no base"}
        cm, prof, labels, scores32 = self.arrays()[:4]
        problems = {}
        ids = np.array([e.id for e in self.entries], dtype=np.uint64)
        for got, want, what in ((base.ids, ids, "ids"), (base.labels, labels, "labels"), (base.scores, scores32, "scores"),
                                (base.cm_matrix, cm, "cm"), (base.prof_matrix, prof, "prof")):
            if not np.array_equal(got, want):
                problems["base"] = f"base.rakb {what} differs from the knowledge JSONL"
        problem = _compare_sample(radd, base, self.records, self.sample, radd.RetrievalStrategy.HYBRID, 20,
                                  expected.neighbours["hybrid"])
        if problem:
            problems["hybrid"] = problem
        return problems

    def sizes(self) -> dict:
        return {
            "rows": len(self.entries), "d_cm": self.entries[0].cm.shape[0], "d_prof": self.entries[0].prof.shape[0],
            "queries": self.n_queries,
            "knowledge_jsonl_bytes": self.knowledge.stat().st_size,
            "queries_jsonl_bytes": self.queries.stat().st_size,
            "base_rakb_bytes": self.base_path.stat().st_size if self.base_path.exists() else None,
        }


class LibraryWorkload(Workload):
    """Ops are radd.evaluate calls over a base built in memory in set-up."""

    k = 20
    parallelism = 1

    def release(self) -> None:
        self.base = self.records = self.inputs = None

    def op_specs(self):
        radd = self.radd
        R, E = radd.RetrievalStrategy, radd.EnsembleStrategy
        return [(f"{s.value}/{e.value}", s, e) for s, e in self.configs(R, E)]

    def run_pass(self, tracer=None, bracket=False) -> list[Op]:
        ops = []
        for name, strategy, ensemble in self.op_specs():
            op = Op(name, 0.0, len(self.records), (strategy.value,))
            try:
                report = _timed(op, lambda: self.radd.evaluate(self.base, self.records, strategy, ensemble, self.k,
                                                                parallelism=self.parallelism), bracket)
                op.output = report.to_json_dict()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                op.error = f"{type(exc).__name__}: {exc}"
            ops.append(op)
        return ops

    def expected(self) -> Expected:
        cm, prof, labels, scores32, q_cm, q_prof, q_labels = self.arrays()
        ranked = {"cm": reference.rank(cm, q_cm, self.k)}
        if prof is not None:
            ranked["prof"] = reference.rank(prof, q_prof, self.k)
        neighbours = {space: _rows(r) for space, r in ranked.items()}
        if prof is not None:
            neighbours["hybrid"] = reference.hybrid(ranked["cm"], ranked["prof"], self.k)
        outputs = {
            name: _ensemble_report(e.value, s.value, self.k, neighbours[s.value], labels, scores32, q_labels)
            for name, s, e in self.op_specs()
        }
        return Expected(outputs, neighbours)

    def sample_check(self, expected: Expected) -> dict[str, str]:
        """The program's neighbours on the sample against the full-sort
        oracle, and the oracle against the reference used for all queries."""
        cm, prof, _, _, q_cm, q_prof, _ = self.arrays()
        pos = self.sample.tolist()
        ranked = {"cm": reference.rank(cm, q_cm[pos], self.k, full_sort=True)}
        if prof is not None:
            ranked["prof"] = reference.rank(prof, q_prof[pos], self.k, full_sort=True)
        oracle = {space: _rows(r) for space, r in ranked.items()}
        if prof is not None:
            oracle["hybrid"] = reference.hybrid(ranked["cm"], ranked["prof"], self.k)
        problems = {}
        for _, strategy, _ in self.op_specs():
            tag = strategy.value
            want = dict(zip(pos, oracle[tag]))
            if any(not np.array_equal(expected.neighbours[tag][i], want[i]) for i in pos):
                problems[tag] = f"{tag}: block reference disagrees with the full-sort oracle"
                continue
            problem = _compare_sample(self.radd, self.base, self.records, pos, strategy, self.k, want, self.parallelism)
            if problem:
                problems[tag] = problem
        return problems


class Kb40kLibrary(LibraryWorkload):
    name = "kb40k-library"
    n_queries = 2000
    synth = dict(n_real=20000, n_seen_fake=20000, n_query_real=1000, n_query_zeroday=1000)

    def configs(self, R, E):
        return [(R.CM_ONLY, E.AVERAGE), (R.PROFILE_ONLY, E.RATIO), (R.HYBRID, E.MAJORITY_VOTE)]

    def setup(self) -> None:
        radd = self.radd
        self.inputs, self.records = radd.generate(radd.SynthConfig(seed=self.seed, **self.synth))
        self.base = radd.build(self.inputs)

    def arrays(self):
        e, q = self.inputs, self.records
        return (
            np.stack([x.cm for x in e]), np.stack([x.prof for x in e]),
            np.array([x.label for x in e], dtype=np.int64), np.array([x.score for x in e], dtype=np.float32),
            np.stack([x.cm for x in q]), np.stack([x.prof for x in q]), np.array([x.label for x in q], dtype=np.int64),
        )

    def sizes(self) -> dict:
        return {"rows": self.base.n, "d_cm": self.base.d_cm, "d_prof": self.base.d_prof, "queries": self.n_queries}


class Wide1024(LibraryWorkload):
    name = "wide-1024"
    n_queries = 1000
    n_rows, d_cm, d_prof = 100_000, 1024, 8
    k = 200
    min_passes = 2
    block_rows = 8192

    def __init__(self, radd, seed, workdir):
        super().__init__(radd, seed, workdir)
        self.parallelism = min(2, os.cpu_count() or 1)

    def configs(self, R, E):
        return [(R.CM_ONLY, E.AVERAGE)]

    def make_inputs(self):
        """Seeded Gaussian CM rows generated in float32 blocks, random
        profiles, labels and scores."""
        rng = np.random.default_rng(self.seed)
        cm = np.empty((self.n_rows, self.d_cm), dtype=np.float32)
        for r0 in range(0, self.n_rows, self.block_rows):
            rng.standard_normal(dtype=np.float32, out=cm[r0 : r0 + self.block_rows])
        prof = rng.standard_normal((self.n_rows, self.d_prof), dtype=np.float32)
        labels = rng.integers(0, 2, size=self.n_rows).astype(np.uint8)
        scores = rng.uniform(0.01, 0.99, size=self.n_rows).astype(np.float32)
        q_cm = rng.standard_normal((self.n_queries, self.d_cm), dtype=np.float32)
        q_prof = rng.standard_normal((self.n_queries, self.d_prof), dtype=np.float32)
        q_labels = rng.integers(0, 2, size=self.n_queries)
        q_scores = rng.uniform(0.01, 0.99, size=self.n_queries).astype(np.float32)
        return cm, prof, labels, scores, q_cm, q_prof, q_labels, q_scores

    def setup(self) -> None:
        """The inputs go to from_arrays as ordinary writeable arrays that the
        caller keeps (as in acceptance criterion 9); then one pass fills
        radd's lazy float64 cache."""
        radd = self.radd
        cm, prof, labels, scores, q_cm, q_prof, q_labels, q_scores = self.make_inputs()
        self.inputs = (cm, labels, scores, q_cm, q_labels)
        self.base = radd.from_arrays(
            ids=np.arange(self.n_rows, dtype=np.uint64), labels=labels, scores=scores,
            cm_matrix=cm, prof_matrix=prof, layout=radd.ProfileLayout((("profile", self.d_prof),)),
        )
        self.records = [
            radd.QueryRecord(id=i, cm=q_cm[i], prof=q_prof[i], score=float(q_scores[i]), label=int(q_labels[i]))
            for i in range(self.n_queries)
        ]
        (_, strategy, ensemble), = self.op_specs()
        radd.evaluate(self.base, self.records, strategy, ensemble, self.k, parallelism=self.parallelism)

    def arrays(self):
        cm, labels, scores, q_cm, q_labels = self.inputs
        return cm, None, labels.astype(np.int64), scores, q_cm, None, q_labels.astype(np.int64)

    def sizes(self) -> dict:
        return {"rows": self.n_rows, "d_cm": self.d_cm, "d_prof": self.d_prof, "queries": self.n_queries,
                "parallelism": self.parallelism}


WORKLOADS = {w.name: w for w in (CliQuickstart, Kb40kLibrary, Wide1024)}
