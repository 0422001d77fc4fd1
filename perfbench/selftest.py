"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # about a minute on 2 cores

They check that inputs are byte-identical per seed, that the references
agree with the repository's naive oracles and with hand-built tie and
zero-norm cases, that a traced pass gives the same outputs as an untraced
one and restores every wrapped function, and that the benchmark refuses to
run without the radd sources.
"""

from __future__ import annotations

import hashlib
import importlib.util
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import radd  # noqa: E402
import radd.cli  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _naive_oracles():
    """tests/reference.py, the oracles the repository's own tests use."""
    spec = importlib.util.spec_from_file_location("naive_reference", ROOT / "tests" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class WorkDir(unittest.TestCase):
    def setUp(self):
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_work"))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class InputsAreSeeded(WorkDir):
    def test_cli_jsonl_identical_per_seed(self):
        digests = []
        for run, seed in enumerate((3, 3, 4)):
            (self.dir / str(run)).mkdir()
            w = workloads.CliQuickstart(radd, seed, self.dir / str(run))
            w.setup()
            digests.append(hashlib.sha256(w.knowledge.read_bytes() + w.queries.read_bytes()).hexdigest())
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0], digests[2])

    def test_library_inputs_identical_per_seed(self):
        digests = []
        for seed in (3, 3, 4):
            w = workloads.Kb40kLibrary(radd, seed, self.dir)
            w.setup()
            digests.append(_digest(*w.arrays(), w.sample))
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0], digests[2])
        wide = [_digest(*workloads.Wide1024(radd, seed, self.dir).make_inputs()) for seed in (3, 3, 4)]
        self.assertEqual(wide[0], wide[1])
        self.assertNotEqual(wide[0], wide[2])


class ReferenceConventions(unittest.TestCase):
    def test_ties_and_zero_norms(self):
        rows = np.array([[1, 0], [2, 0], [0, 0], [0, 1], [3, 0], [1, 1]], dtype=np.float32)
        queries = np.array([[1, 0], [0, 0], [0, 5]], dtype=np.float32)
        for full_sort in (True, False):
            idx, sim = reference.rank(rows, queries, 4, full_sort=full_sort)
            # rows 0, 1, 4 tie at 1.0 (ascending row), then row 5 at 1/sqrt(2)
            self.assertEqual(idx[0].tolist(), [0, 1, 4, 5])
            # a zero query scores -1.0 against every row: first four rows
            self.assertEqual(idx[1].tolist(), [0, 1, 2, 3])
            self.assertEqual(sim[1].tolist(), [-1.0] * 4)
            # cosine 0.0 (rows 0, 1, 4) ranks above the zero row's -1.0
            self.assertEqual(idx[2].tolist(), [3, 5, 0, 1])
        # both halves of k=4 find rows 0 and 1: the union keeps two rows
        cm = reference.rank(rows, queries, 4)
        prof = reference.rank(rows[:, ::-1], queries[:, ::-1], 4)
        self.assertEqual(reference.hybrid(cm, prof, 4)[0].tolist(), [0, 1])

    def test_block_merge_matches_full_sort_and_naive_oracle(self):
        naive = _naive_oracles()
        rng = np.random.default_rng(5)
        rows = rng.integers(-2, 3, size=(300, 3)).astype(np.float32)  # many exact ties
        rows[::37] = 0.0
        queries = rng.integers(-2, 3, size=(20, 3)).astype(np.float32)
        queries[3] = 0.0
        saved = reference._BLOCK_VALUES
        reference._BLOCK_VALUES = 20 * 64  # force 64-row blocks
        try:
            fast = reference.rank(rows, queries, 25)
        finally:
            reference._BLOCK_VALUES = saved
        full = reference.rank(rows, queries, 25, full_sort=True)
        np.testing.assert_array_equal(fast[0], full[0])
        for q in range(len(queries)):
            want = naive.naive_retrieve(rows, rows, queries[q], queries[q], "cm", 25)
            self.assertEqual(full[0][q].tolist(), [i for i, _ in want])
            want = naive.naive_retrieve(rows, rows[:, ::-1], queries[q], queries[q][::-1], "hybrid", 25)
            cm, prof = reference.rank(rows, queries[q : q + 1], 25), reference.rank(rows[:, ::-1], queries[q : q + 1, ::-1], 25)
            self.assertEqual(reference.hybrid(cm, prof, 25)[0].tolist(), [i for i, _ in want])

    def test_eer_matches_naive_brute_force(self):
        naive = _naive_oracles()
        rng = np.random.default_rng(6)
        for trial in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            labels[:2] = (0, 1)
            kind = trial % 3
            if kind == 0:
                scores = rng.random(n)
            elif kind == 1:
                scores = rng.integers(0, 2, size=n).astype(np.float64)  # binary outputs
            else:
                scores = rng.integers(0, 5, size=n) / 4.0  # heavy ties
            want = naive.brute_force_eer(scores.tolist(), labels.tolist())
            self.assertEqual(reference.eer(scores, labels), want)
            self.assertEqual(reference.eer(scores, labels), radd.eer(
                [radd.ScoredSample(float(s), int(y)) for s, y in zip(scores, labels)]))


class TracedRun(WorkDir):
    def test_traced_pass_equals_untraced_and_restores(self):
        originals = {name: getattr(radd.cli, name) for name in ("load", "save", "score_queries")}
        original_retrieve = radd.metrics.retrieve_batch
        w = workloads.CliQuickstart(radd, 9, self.dir)
        w.setup()
        w.prepare_pass()
        plain = w.run_pass()
        probe = layers.Probe()
        tracer = Tracer(radd, probe.observers())
        w.prepare_pass()
        with tracer, tracer.span("pass"):
            self.assertIsNot(radd.cli.load, originals["load"])
            self.assertIsNot(radd.metrics.retrieve_batch, original_retrieve)
            traced = w.run_pass(tracer)
        self.assertEqual([op.error for op in plain + traced], [None] * 10)
        self.assertEqual([op.output for op in plain], [op.output for op in traced])
        expected = w.expected()
        self.assertEqual([op.output for op in traced], [expected.outputs[op.name] for op in traced])
        self.assertEqual(probe.check_returned(), [])
        for name, fn in originals.items():
            self.assertIs(getattr(radd.cli, name), fn)
        self.assertIs(radd.metrics.retrieve_batch, original_retrieve)
        names = {span[0] for span in tracer.spans}
        for name in ("cli.build", "store.load", "store.save", "retrieval.retrieve_batch", "ensemble.predict",
                     "metrics.eer", "ablation.mask_base", "store.read_queries_jsonl"):
            self.assertIn(name, names)


class SpeedReference(unittest.TestCase):
    def test_scaling_cancels_a_uniform_slowdown(self):
        import speed

        self.assertAlmostEqual(speed.scale(3.0, speed.NOMINAL_S, speed.NOMINAL_S), 3.0)
        # The host at half speed: the op and the reference both take twice as long.
        self.assertAlmostEqual(speed.scale(6.0, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S), 3.0)
        self.assertGreater(speed.reference_s(), 0.0)

    def test_only_bracketed_passes_are_scaled(self):
        w = workloads.Kb40kLibrary(radd, 3, None)
        w.synth = dict(n_real=300, n_seen_fake=300, n_query_real=20, n_query_zeroday=20)
        w.setup()
        self.assertTrue(all(op.scaled_s > 0 for op in w.run_pass(bracket=True)))
        self.assertTrue(all(op.scaled_s == 0 for op in w.run_pass()))


class BenchmarkJson(unittest.TestCase):
    def test_metric_names_and_units_match_what_runs_report(self):
        import json

        import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layers.UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class RefusesWithoutSources(WorkDir):
    def test_exits_non_zero_without_src(self):
        shutil.copytree(HERE, self.dir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", self.dir)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-quickstart", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=self.dir, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
