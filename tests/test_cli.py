from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from radd import AttributeMask, EnsembleStrategy, RetrievalStrategy, apply_mask, evaluate, retrieval
from radd.cli import DEFAULT_MASKS, main
from radd.store import entry_to_json, load, profile_zscore, query_to_json, read_queries_jsonl, write_jsonl
from radd.synthetic import SynthConfig, generate

from conftest import INVALID_CONFIGS


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small synthetic world written through the production JSONL path."""
    root = tmp_path_factory.mktemp("data")
    config = SynthConfig(seed=21, n_real=100, n_seen_fake=100, n_query_real=25, n_query_zeroday=25)
    entries, queries = generate(config)
    knowledge = root / "knowledge.jsonl"
    query_file = root / "queries.jsonl"
    write_jsonl(knowledge, (entry_to_json(e) for e in entries))
    write_jsonl(query_file, (query_to_json(q) for q in queries))
    base_path = root / "base.rakb"
    assert main(["build", str(knowledge), "--out", str(base_path)]) == 0
    return {"root": root, "knowledge": knowledge, "queries": query_file, "base": base_path}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*argv, **kwargs) -> subprocess.CompletedProcess:
    """`python -m radd.cli *argv` in a child process that imports radd from
    this checkout, killed after 120 s."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "radd.cli", *map(str, argv)], capture_output=True, text=True,
                          env=env, timeout=120, **kwargs)


class TestBuild:
    def test_reports_counts_and_balance(self, dataset, capsys, tmp_path):
        out = tmp_path / "b.rakb"
        code = main(["build", str(dataset["knowledge"]), "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "n=200" in captured
        assert "real 50.0% / fake 50.0%" in captured
        assert out.exists()
        assert (tmp_path / "b.rakb.manifest.json").exists()

    def test_malformed_line_exits_2_and_names_line(self, tmp_path, capsys):
        lines = [json.dumps({"id": i, "label": 0, "score": 0.5, "cm": [1.0], "prof": [1.0]}) for i in range(10)]
        lines[6] = "{broken"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["build", str(bad), "--layout", "p:1", "--out", str(tmp_path / "x.rakb")])
        assert code == 2
        assert "line 7" in capsys.readouterr().err

    def test_id_above_u64_exits_2(self, tmp_path, capsys):
        lines = [json.dumps({"id": i, "label": 0, "score": 0.5, "cm": [1.0], "prof": [1.0]}) for i in (0, 2**64)]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["build", str(bad), "--layout", "p:1", "--out", str(tmp_path / "x.rakb")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "x.rakb").exists()

    @pytest.mark.parametrize("layout, message", [
        # No array can be this wide, so the reader may size its blocks only
        # from a row whose widths pass.
        ("age:1,gender:2,emotion:257,voice_quality:99999999999999999999",
         "line 1: field 'prof' has length 285, expected 100000000000000000259"),
        # An empty layout is an error, not the default layout.
        ("", "layout descriptor pair '' lacks ':'"),
        # int() reads each of these widths: a sign, an underscore, a space, an Arabic-Indic one.
        ("age:+1,gender:2,emotion:2_57,voice_quality: 25",
         "bad span width in 'age:+1': not an integer in ASCII digits: '+1'"),
        ("age:1,gender:2,emotion:2_57,voice_quality:25",
         "bad span width in 'emotion:2_57': not an integer in ASCII digits: '2_57'"),
        ("age:1,gender:2,emotion:257,voice_quality: 25",
         "bad span width in 'voice_quality: 25': not an integer in ASCII digits: ' 25'"),
        ("age:\u0661,gender:2,emotion:257,voice_quality:25",
         "bad span width in 'age:\u0661': not an integer in ASCII digits: '\u0661'"),
    ], ids=["wider-than-every-row", "empty", "signed", "underscore", "space", "arabic-indic"])
    def test_bad_layout_exits_2_without_output(self, dataset, tmp_path, capsys, caplog, layout, message):
        out = tmp_path / "x.rakb"
        code = main(["build", str(dataset["knowledge"]), "--layout", layout, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n"
        assert "Traceback" not in err + caplog.text
        assert not out.exists() and not (tmp_path / "x.rakb.manifest.json").exists()

    def test_custom_layout(self, tmp_path, capsys):
        lines = [json.dumps({"id": i, "label": i % 2, "score": 0.4, "cm": [1.0, 2.0], "prof": [0.1, 0.2, 0.3]}) for i in range(4)]
        src = tmp_path / "k.jsonl"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["build", str(src), "--layout", "a:1,b:2", "--out", str(tmp_path / "k.rakb")])
        assert code == 0
        assert "d_prof=3" in capsys.readouterr().out

    def test_unbalanced_label_report(self, tmp_path, capsys):
        labels = [0] * 39 + [1] * 61
        lines = [
            json.dumps({"id": i, "label": y, "score": 0.4, "cm": [1.0], "prof": [0.1]})
            for i, y in enumerate(labels)
        ]
        src = tmp_path / "k.jsonl"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["build", str(src), "--layout", "p:1", "--out", str(tmp_path / "k.rakb")])
        assert code == 0
        assert "real 39.0% / fake 61.0%" in capsys.readouterr().out

    def test_boolean_or_string_vector_element_exits_2(self, tmp_path, capsys):
        # Line 2's profile vector holds a numeric string and a boolean.
        good = {"id": 0, "label": 0, "score": 0.5, "cm": [1.0, 2.0], "prof": [0.5] * 285}
        bad = {**good, "id": 1, "prof": ["1.5", True] + [0.5] * 283}
        path = tmp_path / "k.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        assert main(["build", str(path), "--out", str(tmp_path / "b.rakb")]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'1.5'" in err and "Traceback" not in err
        assert not (tmp_path / "b.rakb").exists()


class TestEvaluate:
    def test_writes_report_predictions_manifest(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "evaluate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "cm", "--ensemble", "mv", "--k", "20", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"] == {"strategy": "cm", "ensemble": "mv", "k": 20}
        assert report["eer"] <= 0.1
        tsv = (out / "predictions.tsv").read_text().splitlines()
        assert len(tsv) == 50
        assert tsv[0].split("\t")[2] == "mv"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        assert set(manifest["inputs"]) == {"base", "queries"}
        assert "cm" in capsys.readouterr().out

    def test_baseline_strategy_none(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = main([
            "evaluate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "none", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["strategy"] == "none"
        assert report["eer"] >= 0.35  # miscalibrated zero-day scores

    def test_missing_ensemble_exits_2(self, dataset, tmp_path):
        code = main([
            "evaluate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "cm", "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_unlabeled_queries_exit_3(self, dataset, tmp_path, capsys):
        entries, queries = generate(SynthConfig(seed=1, n_real=10, n_seen_fake=10, n_query_real=2, n_query_zeroday=2))
        stripped = tmp_path / "unlabeled.jsonl"
        lines = []
        for q in queries:
            obj = json.loads(query_to_json(q))
            del obj["label"]
            lines.append(json.dumps(obj))
        stripped.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([
            "evaluate", "--base", str(dataset["base"]), "--queries", str(stripped),
            "--strategy", "cm", "--ensemble", "mv", "--k", "3", "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert "query 0" in capsys.readouterr().err

    def test_mask_flag(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = main([
            "evaluate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "prof", "--ensemble", "ratio", "--k", "10",
            "--mask", "voice_quality", "--out", str(out),
        ])
        assert code == 0

    @pytest.mark.parametrize("command, flags", [("evaluate", ["--k", "5"]), ("sweep", ["--k-grid", "3,5"])])
    def test_cm_only_mask_warns_no_effect(self, dataset, tmp_path, caplog, command, flags):
        with caplog.at_level("WARNING", logger="radd.ablation"):
            code = main([
                command, "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
                "--strategy", "cm", "--ensemble", "mv", *flags,
                "--mask", "emotion", "--out", str(tmp_path / "x"),
            ])
        assert code == 0
        assert [rec.message for rec in caplog.records] == ["mask w/o emotion has no effect on cm-only retrieval"]

    def test_raw_baseline_mask_warns_no_effect(self, dataset, tmp_path, caplog):
        def run(out, *mask):
            return main([
                "evaluate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
                "--strategy", "none", *mask, "--out", str(tmp_path / out),
            ])

        assert run("plain") == 0
        with caplog.at_level("WARNING", logger="radd.ablation"):
            assert run("masked", "--mask", "emotion") == 0
        assert [rec.message for rec in caplog.records] == ["mask w/o emotion has no effect on the raw-score baseline"]
        assert (tmp_path / "masked" / "report.json").read_bytes() == (tmp_path / "plain" / "report.json").read_bytes()
        assert run("bogus", "--mask", "bogus") == 2

    def test_normalize_profile_flag(self, dataset, tmp_path):
        code = main([
            "evaluate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "prof", "--ensemble", "ratio", "--k", "10",
            "--normalize-profile", "--out", str(tmp_path / "run"),
        ])
        assert code == 0

    def test_missing_base_file_exits_2(self, dataset, tmp_path):
        code = main([
            "evaluate", "--base", str(tmp_path / "nope.rakb"), "--queries", str(dataset["queries"]),
            "--strategy", "cm", "--ensemble", "mv", "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    @pytest.mark.parametrize("command, flags", [
        ("evaluate", ["--strategy", "cm", "--ensemble", "mv", "--k", "5"]),
        ("sweep", ["--strategy", "cm", "--ensemble", "mv"]),
        ("ablate", ["--strategy", "cm", "--ensemble", "mv", "--k", "5"]),
        ("evaluate", ["--strategy", "none"]),
        ("sweep", ["--strategy", "none"]),
    ])
    def test_zero_parallelism_exits_2_without_output(self, dataset, tmp_path, capsys, command, flags):
        code = main([
            command, "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            *flags, "--parallelism", "0", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "parallelism must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()

    @pytest.mark.parametrize("k", ["0", "-3"])
    @pytest.mark.parametrize("strategy", [["--strategy", "cm", "--ensemble", "mv"], ["--strategy", "none"]])
    def test_k_below_1_exits_2_without_output(self, dataset, tmp_path, capsys, strategy, k):
        # The raw-score baseline uses no k, but a bad one is still an error.
        code = main([
            "evaluate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            *strategy, "--k", k, "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert f"k must be >= 1, got {k}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_raw_baseline_ignores_ensemble_with_warning(self, dataset, tmp_path, caplog, capsys, command):
        def run(out, *flags):
            return main([
                command, "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
                "--strategy", "none", *flags, "--out", str(tmp_path / out),
            ])

        assert run("plain") == 0
        plain_out = capsys.readouterr().out
        with caplog.at_level("WARNING", logger="radd.cli"):
            assert run("mv", "--ensemble", "mv") == 0
        assert [rec.message for rec in caplog.records] == ["ensemble mv has no effect on the raw-score baseline"]
        assert capsys.readouterr().out == plain_out
        name = "report.json" if command == "evaluate" else "sweep.json"
        assert (tmp_path / "mv" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        if command == "evaluate":
            config = json.loads((tmp_path / "mv" / "report.json").read_text())["config"]
            assert config == {"strategy": "none", "ensemble": "none", "k": 0}


class TestUnseekableInputs:
    """An input that is not a regular file (a named FIFO here, like a pipe
    or /dev/stdin) is read once: the command exits 0 with the outputs of the
    same bytes read from a file, and its manifest entry has "sha256": null,
    while a file input keeps its hash. Each command runs in a child process,
    so a second read of the FIFO, which waits for a second writer, fails the
    test by its timeout instead of hanging it."""

    @staticmethod
    def fifo_of(tmp_path, source: Path) -> Path:
        """A named FIFO that a writer thread fills with *source*'s bytes once
        a reader opens it."""
        fifo = tmp_path / f"{source.stem}.fifo"
        os.mkfifo(fifo)
        data = source.read_bytes()

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)

        threading.Thread(target=feed, daemon=True).start()
        return fifo

    def test_build_from_a_fifo(self, dataset, tmp_path):
        fifo = self.fifo_of(tmp_path, dataset["knowledge"])
        run = run_cli("build", fifo, "--out", tmp_path / "k.rakb")
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "k.rakb").read_bytes() == dataset["base"].read_bytes()
        manifest = json.loads((tmp_path / "k.rakb.manifest.json").read_text())
        assert manifest["inputs"] == {"jsonl": {"path": str(fifo), "sha256": None}}
        from_file = json.loads(dataset["base"].with_name("base.rakb.manifest.json").read_text())
        assert from_file["inputs"]["jsonl"]["sha256"] == sha(dataset["knowledge"])

    def test_evaluate_queries_from_a_fifo(self, dataset, tmp_path):
        fifo = self.fifo_of(tmp_path, dataset["queries"])
        runs = {}
        for name, queries in (("fifo", fifo), ("file", dataset["queries"])):
            run = run_cli("evaluate", "--base", dataset["base"], "--queries", queries, "--strategy", "hybrid",
                          "--ensemble", "mv", "--k", "10", "--out", tmp_path / name)
            assert run.returncode == 0, run.stderr
            runs[name] = json.loads((tmp_path / name / "manifest.json").read_text())["inputs"]
        for output in ("report.json", "predictions.tsv"):
            assert (tmp_path / "fifo" / output).read_bytes() == (tmp_path / "file" / output).read_bytes()
        assert runs["fifo"]["queries"] == {"path": str(fifo), "sha256": None}
        assert runs["file"]["queries"]["sha256"] == sha(dataset["queries"])
        assert runs["fifo"]["base"] == runs["file"]["base"] == {"path": str(dataset["base"]), "sha256": sha(dataset["base"])}


class TestSweep:
    def test_grid_rows_and_best_k(self, dataset, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "hybrid", "--ensemble", "ratio",
            "--k-grid", "2,5,10,20,50,100", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("\n") >= 8  # header + 6 rows + best-k line
        assert "best k =" in stdout
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["grid"] == [2, 5, 10, 20, 50, 100]
        assert len(payload["reports"]) == 6
        assert payload["selected_by"] == "eval"

    def test_dev_split_selects_k(self, dataset, tmp_path):
        _, dev_queries = generate(
            SynthConfig(seed=77, n_real=100, n_seen_fake=100, n_query_real=20, n_query_zeroday=20)
        )
        dev_path = tmp_path / "dev.jsonl"
        write_jsonl(dev_path, (query_to_json(q) for q in dev_queries))
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "cm", "--ensemble", "mv", "--k-grid", "5,10,20",
            "--dev-queries", str(dev_path), "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["selected_by"] == "dev"
        assert payload["best_k"] in (5, 10, 20)
        assert len(payload["dev_eers"]) == 3

    @pytest.mark.parametrize("dev", [False, True])
    def test_baseline_selects_no_k(self, dataset, tmp_path, capsys, dev):
        # The raw-score baseline uses no neighbours: every row reports k 0,
        # and no k of the grid is named as the best.
        dev_args = ["--dev-queries", str(dataset["queries"])] if dev else []
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "none", "--k-grid", "5,10", *dev_args, "--out", str(out),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 and lines[1] == lines[2] and lines[1].split()[:3] == ["none", "none", "0"]
        assert lines[-1] == "no k selected (the raw-score baseline uses no neighbours)"
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["best_k"] is None and payload["grid"] == [5, 10]
        assert payload["selected_by"] == ("dev" if dev else "eval") and ("dev_eers" in payload) == dev
        assert (out / "sweep.txt").read_text().splitlines() == lines

    def test_default_grid(self, dataset, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "cm", "--ensemble", "ratio", "--out", str(out),
        ])
        assert code == 0
        assert json.loads((out / "sweep.json").read_text())["grid"] == [5, 10, 20, 50, 100, 200]

    def test_hybrid_k_grid_with_odd_values(self, dataset, tmp_path):
        code = main([
            "sweep", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "hybrid", "--ensemble", "mv", "--k-grid", "5",
            "--out", str(tmp_path / "s"),
        ])
        assert code == 0

    def test_dev_split_with_normalization(self, dataset, tmp_path):
        _, dev_queries = generate(
            SynthConfig(seed=88, n_real=50, n_seen_fake=50, n_query_real=10, n_query_zeroday=10)
        )
        dev_path = tmp_path / "dev.jsonl"
        write_jsonl(dev_path, (query_to_json(q) for q in dev_queries))
        code = main([
            "sweep", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "prof", "--ensemble", "ratio", "--k-grid", "5,10",
            "--dev-queries", str(dev_path), "--normalize-profile",
            "--out", str(tmp_path / "s"),
        ])
        assert code == 0

    @pytest.mark.parametrize("strategy, blocks", [("cm", {"cm": 3}), ("hybrid", {"cm": 3, "prof": 3})])
    def test_ranks_each_query_file_once(self, dataset, tmp_path, ranked_blocks, strategy, blocks):
        # 80 eval queries and 20 dev queries over 200 rows: blocks of 64
        # queries in every space (2 eval, 1 dev). One ranked block per space
        # per block of queries covers the whole grid.
        paths = {}
        for name, seed, per_class in (("eval", 31, 40), ("dev", 32, 10)):
            _, queries = generate(SynthConfig(seed=seed, n_real=10, n_seen_fake=10,
                                              n_query_real=per_class, n_query_zeroday=per_class))
            paths[name] = tmp_path / f"{name}.jsonl"
            write_jsonl(paths[name], (query_to_json(q) for q in queries))
        code = main([
            "sweep", "--base", str(dataset["base"]), "--queries", str(paths["eval"]),
            "--strategy", strategy, "--ensemble", "ratio", "--dev-queries", str(paths["dev"]),
            "--out", str(tmp_path / "s"),
        ])
        assert code == 0
        assert {space: ranked_blocks.count(space) for space in blocks} == blocks
        assert len(ranked_blocks) == sum(blocks.values())

    @pytest.mark.parametrize("strategy, flags", [
        ("cm", ["--k-grid", "0,5"]),
        ("hybrid", ["--k-grid", "1,5"]),
        # An empty dev file name is an error, not "select k on the eval set".
        ("cm", ["--dev-queries", ""]),
    ])
    def test_bad_flag_exits_2_without_output(self, dataset, tmp_path, capsys, strategy, flags):
        out = tmp_path / "s"
        code = main([
            "sweep", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", strategy, "--ensemble", "mv", *flags, "--out", str(out),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    # int() reads each part of the last three: an Arabic-Indic five, a sign, an underscore and a space.
    @pytest.mark.parametrize("grid", ["5,", "", "5,x", "\u0665,1_0", "+5,10", "5, 10"])
    def test_unparsable_grid_names_flag_and_value(self, dataset, tmp_path, capsys, grid):
        out = tmp_path / "s"
        code = main([
            "sweep", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "cm", "--ensemble", "mv", "--k-grid", grid, "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "--k-grid" in err and repr(grid) in err and "Traceback" not in err
        assert not (out / "sweep.json").exists()


class TestAblate:
    def test_default_mask_list(self, dataset, tmp_path, capsys):
        out = tmp_path / "abl"
        code = main([
            "ablate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "hybrid", "--ensemble", "ratio", "--k", "10", "--out", str(out),
        ])
        assert code == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert len(rows) == 4
        assert rows[0]["label"] == "full"
        labels = {r["label"] for r in rows}
        assert labels == {"full", "w/o age+gender", "w/o emotion", "w/o voice_quality"}
        stdout = capsys.readouterr().out
        assert stdout.count("w/o") == 3

    def test_unknown_attribute_exits_2(self, dataset, tmp_path, capsys, monkeypatch):
        # Every mask is checked before any is evaluated: the valid masks
        # ahead of the unknown one print nothing and rank nothing.
        ranked = []
        monkeypatch.setattr(retrieval, "_rank_block", lambda *args, **kwargs: ranked.append(args))
        code = main([
            "ablate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "prof", "--ensemble", "ratio", "--k", "5",
            "--mask", "none", "--mask", "emotion", "--mask", "formant", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown attributes ['formant']" in captured.err
        assert ranked == []
        assert not (tmp_path / "x").exists()

    def test_strategy_none_exits_2(self, dataset, tmp_path, capsys):
        code = main([
            "ablate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "none", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "ablation requires a retrieval strategy (not 'none')" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_cm_only_warns_no_effect(self, dataset, tmp_path, caplog):
        with caplog.at_level("WARNING", logger="radd.ablation"):
            code = main([
                "ablate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
                "--strategy", "cm", "--ensemble", "mv", "--k", "5",
                "--mask", "emotion", "--out", str(tmp_path / "x"),
            ])
        assert code == 0
        assert any("no effect" in rec.message for rec in caplog.records)


    @pytest.mark.parametrize("strategy, blocks", [
        ("cm", {"cm": 1}), ("prof", {"prof": 4}), ("hybrid", {"cm": 1, "prof": 4}),
    ])
    def test_masks_share_one_cm_ranking(self, dataset, tmp_path, ranked_blocks, strategy, blocks):
        # 50 queries over 200 rows: one block per ranking. A mask leaves the
        # CM space as it is, so the four default masks rank it once; each
        # masked profile space is still ranked on its own.
        code = main([
            "ablate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", strategy, "--ensemble", "ratio", "--k", "10", "--out", str(tmp_path / "abl"),
        ])
        assert code == 0
        assert {space: ranked_blocks.count(space) for space in blocks} == blocks
        assert len(ranked_blocks) == sum(blocks.values())

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("strategy", ["cm", "prof", "hybrid"])
    def test_equals_one_evaluate_per_mask(self, dataset, tmp_path, strategy, normalize):
        # The shared CM ranking changes no report: each row equals radd.evaluate
        # on that mask's apply_mask views, as when every mask ranked anew.
        out = tmp_path / "abl"
        code = main([
            "ablate", "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", strategy, "--ensemble", "avg", "--k", "7", *(["--normalize-profile"] * normalize),
            "--out", str(out),
        ])
        assert code == 0
        base = load(dataset["base"])
        query_sets = [read_queries_jsonl(dataset["queries"], base.layout)]
        if normalize:
            base, query_sets = profile_zscore(base, query_sets)
        want = []
        for value in DEFAULT_MASKS:
            mask = AttributeMask(() if value == "none" else value.split(","))
            masked, (queries,) = apply_mask(base, query_sets, mask, RetrievalStrategy(strategy))
            report = evaluate(masked, queries, RetrievalStrategy(strategy), EnsembleStrategy("avg"), 7)
            want.append({"mask": sorted(mask.excluded), "label": mask.label(), "report": report.to_json_dict()})
        assert json.loads((out / "ablation.json").read_text()) == json.loads(json.dumps(want))


class TestSynth:
    def write_config(self, tmp_path, **overrides):
        config = {
            "seed": 5, "n_real": 50, "n_seen_fake": 50,
            "n_query_real": 10, "n_query_zeroday": 10,
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def test_deterministic_outputs(self, tmp_path):
        config = self.write_config(tmp_path)
        for name in ("a", "b"):
            assert main(["synth", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        assert sha(tmp_path / "a" / "knowledge.jsonl") == sha(tmp_path / "b" / "knowledge.jsonl")
        assert sha(tmp_path / "a" / "queries.jsonl") == sha(tmp_path / "b" / "queries.jsonl")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["generator"]["rng_algorithm"] == "numpy.random.PCG64"

    def test_manifest_lists_outputs_config_and_generator(self, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config), "--seed", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["outputs"] == [str(out / "knowledge.jsonl"), str(out / "queries.jsonl")]
        assert manifest["inputs"] == {"config": {"path": str(config), "sha256": sha(config)}}
        settings = {**json.loads(config.read_text()), "seed": 3}
        assert manifest["generator"] == {
            "rng_algorithm": "numpy.random.PCG64",
            "numpy_version": np.__version__,
            "config": {f.name: settings.get(f.name, f.default) for f in dataclasses.fields(SynthConfig)},
        }

    def test_line_counts(self, tmp_path):
        config = self.write_config(tmp_path, n_real=30, n_seen_fake=20, n_query_real=7, n_query_zeroday=3)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert len((tmp_path / "o" / "knowledge.jsonl").read_text().splitlines()) == 50
        assert len((tmp_path / "o" / "queries.jsonl").read_text().splitlines()) == 10

    def test_invalid_dims_exit_2(self, tmp_path):
        config = self.write_config(tmp_path, d_cm=0)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("overrides, message", INVALID_CONFIGS)
    def test_invalid_config_exits_2_with_its_message(self, tmp_path, capsys, overrides, message):
        config = self.write_config(tmp_path, **overrides)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, flags", [
        ({"seed": "7"}, []),
        ({"seed": 1.5}, []),
        ({"seed": 7, "n_real": 1.5}, []),
        ({"seed": 7, "n_real": 1.5}, ["--seed", "3"]),
        ({"seed": 7, "cluster_sep": "x"}, []),
        ([1, 2], []),
        ([1, 2], ["--seed", "3"]),  # the override needs an object to go into
        ("x", ["--seed", "3"]),
        (None, []),
    ])
    def test_mistyped_config_exits_2(self, tmp_path, capsys, config, flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["synth", "--config", str(path), *flags, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "o").exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        for path in (tmp_path / "missing.json", tmp_path):  # no such file; a directory
            code = main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
            assert code == 2
            assert f"error: cannot read config {path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["{", "", "{'seed': 7}", "seed=7"])
    def test_config_not_json_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: config {path} is not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_entrypoint_exit_codes(self, dataset, tmp_path):
        # `python -m radd.cli` runs entrypoint(), whose process exit code is
        # main()'s: 0, 2 for bad input, 3 for a data error. The child
        # imports radd from this checkout.
        config = self.write_config(tmp_path)
        ok = run_cli("synth", "--config", str(config), "--out", str(tmp_path / "o"))
        assert ok.returncode == 0, ok.stderr
        assert (tmp_path / "o" / "knowledge.jsonl").exists()
        bad = run_cli("synth", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "p"))
        assert bad.returncode == 2 and "error: cannot read config" in bad.stderr
        assert run_cli("evaluate").returncode == 2  # a usage error
        unlabeled = tmp_path / "unlabeled.jsonl"
        unlabeled.write_text(dataset["queries"].read_text(encoding="utf-8").replace('"label":1,', ""), encoding="utf-8")
        data = run_cli("evaluate", "--base", str(dataset["base"]), "--queries", str(unlabeled), "--strategy", "cm",
                       "--ensemble", "mv", "--k", "3", "--out", str(tmp_path / "q"))
        assert data.returncode == 3, data.stderr

    def test_huge_size_exits_2(self, tmp_path):
        # 2**40 rows cannot be allocated under a 3 GB address-space limit,
        # set on the child process only: a typed error, not a MemoryError
        # traceback. The child imports radd from this checkout.
        config = self.write_config(tmp_path, n_real=2**40)
        limit = 3_000_000 * 1024
        run = run_cli("synth", "--config", config, "--out", tmp_path / "o",
                      preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert run.returncode == 2, run.stderr
        assert "error:" in run.stderr and "memory" in run.stderr and "Traceback" not in run.stdout + run.stderr
        assert not (tmp_path / "o").exists()

    def test_seed_override_changes_output(self, tmp_path):
        config = self.write_config(tmp_path)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        assert main(["synth", "--config", str(config), "--seed", "99", "--out", str(tmp_path / "c")]) == 0
        assert sha(tmp_path / "a" / "knowledge.jsonl") != sha(tmp_path / "c" / "knowledge.jsonl")

    def test_generated_files_flow_through_build(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        code = main(["build", str(tmp_path / "o" / "knowledge.jsonl"), "--out", str(tmp_path / "o" / "b.rakb")])
        assert code == 0
        assert "n=100" in capsys.readouterr().out


class TestOutPath:
    @pytest.mark.parametrize("command", ["evaluate", "sweep", "ablate", "synth"])
    def test_out_naming_a_file_exits_2_and_writes_nothing(self, dataset, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, "n_real": 5, "n_seen_fake": 5}), encoding="utf-8")
        taken = tmp_path / "taken"
        taken.write_text("keep\n", encoding="utf-8")
        io = ["--base", str(dataset["base"]), "--queries", str(dataset["queries"]), "--strategy", "cm",
              "--ensemble", "mv"]
        argv = {
            "evaluate": ["evaluate", *io],
            "sweep": ["sweep", *io, "--k-grid", "3,5"],
            "ablate": ["ablate", *io, "--mask", "emotion"],
            "synth": ["synth", "--config", str(config)],
        }[command]
        before = sorted(tmp_path.iterdir())
        code = main([*argv, "--out", str(taken)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"cannot create output directory {taken}" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert sorted(tmp_path.iterdir()) == before
        assert taken.read_text(encoding="utf-8") == "keep\n"

    def test_build_out_without_a_file_name_exits_2(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["build", str(dataset["knowledge"]), "--out", "."]) == 2
        err = capsys.readouterr().err
        assert "cannot write ." in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestMaskFlag:
    """--mask takes 'none' or comma-separated attribute names, and nothing
    is trimmed or dropped: a blank value is not the full profile, and an
    empty or padded part is not a shorter or trimmed mask."""

    @pytest.mark.parametrize("command, flags", [
        ("evaluate", ["--k", "5"]), ("sweep", ["--k-grid", "3,5"]), ("ablate", ["--k", "5"]),
    ])
    @pytest.mark.parametrize("mask", ["", " , ", "age,", "age, gender"])
    def test_blank_or_padded_mask_exits_2_without_output(self, dataset, tmp_path, capsys, command, flags, mask):
        out = tmp_path / "o"
        code = main([
            command, "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "prof", "--ensemble", "ratio", *flags, "--mask", mask, "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""  # ablate prints no "full" row, nor any other
        assert "error: --mask takes 'none' or comma-separated attribute names" in captured.err
        assert repr(mask) in captured.err and "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, name", [
        ("evaluate", ["--k", "5"], "report.json"), ("sweep", ["--k-grid", "3,5"], "sweep.json"),
    ])
    def test_none_is_the_empty_mask(self, dataset, tmp_path, command, flags, name):
        def run(out, *mask):
            return main([
                command, "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
                "--strategy", "prof", "--ensemble", "ratio", *flags, *mask, "--out", str(tmp_path / out),
            ])

        assert run("plain") == run("none", "--mask", "none") == 0
        assert (tmp_path / "none" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


class TestParser:
    def test_usage_error_exits_2(self):
        assert main(["evaluate", "--strategy", "bogus"]) == 2

    def test_no_command_exits_2(self):
        assert main([]) == 2

    @pytest.mark.parametrize("command, flags", [
        ("sweep", ["--strategy", "cm", "--k", "5,"]),  # --k is not --k-grid
        ("sweep", ["--strategy", "cm", "--k", "5"]),
        ("evaluate", ["--strat", "cm"]),  # --strat is not --strategy
    ])
    def test_flag_prefixes_rejected(self, dataset, tmp_path, capsys, command, flags):
        out = tmp_path / "o"
        code = main([
            command, "--base", str(dataset["base"]), "--queries", str(dataset["queries"]), *flags,
            "--ensemble", "mv", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()


class TestIntegerValues:
    """Integer flags take ASCII digits (after a '-' for a negative value,
    which the range checks name): no '+', no underscore, no surrounding
    space, no other script's digits, no empty value. Each bad value exits 2
    naming the flag and the value, and writes nothing. The k grid and layout
    widths follow the same rule (TestSweep, TestBuild)."""

    BAD = ["1_0", " 10", "+1", "\u0665", ""]

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("command, flag", [("evaluate", "--k"), ("ablate", "--k"), ("sweep", "--parallelism")])
    def test_bad_eval_flag_exits_2_without_output(self, dataset, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        code = main([
            command, "--base", str(dataset["base"]), "--queries", str(dataset["queries"]),
            "--strategy", "cm", "--ensemble", "mv", flag, value, "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert f"argument {flag}: not an integer in ASCII digits: {value!r}" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("value", BAD)
    def test_bad_seed_exits_2_without_output(self, tmp_path, capsys, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 1, "n_real": 5, "n_seen_fake": 5, "n_query_real": 2,
                                      "n_query_zeroday": 2}), encoding="utf-8")
        code = main(["synth", "--config", str(config), "--seed", value, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"argument --seed: not an integer in ASCII digits: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_valid_values_parse_as_before(self, dataset, tmp_path):
        # A leading zero is still a digit; the outputs equal those of the plain spelling.
        def run(out, k, grid, layout):
            base = str(tmp_path / f"{out}.rakb")
            assert main(["build", str(dataset["knowledge"]), "--layout", layout, "--out", base]) == 0
            io = ["--base", base, "--queries", str(dataset["queries"])]
            assert main(["evaluate", *io, "--strategy", "hybrid", "--ensemble", "mv", "--k", k, "--parallelism", "02",
                         "--out", str(tmp_path / out / "ev")]) == 0
            assert main(["sweep", *io, "--strategy", "cm", "--ensemble", "avg", "--k-grid", grid,
                         "--out", str(tmp_path / out / "sw")]) == 0

        run("plain", "10", "3,5", "age:1,gender:2,emotion:257,voice_quality:25")
        run("padded", "010", "03,005", "age:01,gender:2,emotion:0257,voice_quality:25")
        assert (tmp_path / "plain.rakb").read_bytes() == (tmp_path / "padded.rakb").read_bytes()
        for name in ("ev/report.json", "ev/predictions.tsv", "sw/sweep.json"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "padded" / name).read_bytes()


class TestNotUtf8:
    """Bytes that are not UTF-8 are an input error with the line they sit
    on, not a bare decoding error."""

    @staticmethod
    def lines_with_bad_byte(record: dict) -> bytes:
        good = json.dumps(record).encode("utf-8")
        return good + b"\n" + good.replace(b'"score"', b'"s\xffcore"') + b"\n"

    def test_knowledge_file(self, tmp_path, capsys, caplog):
        path = tmp_path / "k.jsonl"
        path.write_bytes(self.lines_with_bad_byte({"id": 0, "label": 0, "score": 0.5, "cm": [1.0], "prof": [1.0]}))
        code = main(["build", str(path), "--layout", "p:1", "--out", str(tmp_path / "b.rakb")])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err and "0xff" in err
        assert "Traceback" not in err + caplog.text
        assert not (tmp_path / "b.rakb").exists()

    def test_byte_order_mark_of_utf16(self, tmp_path, capsys):
        path = tmp_path / "k.jsonl"
        path.write_bytes(b"\xff\xfe" + '{"id": 0}\n'.encode("utf-16-le"))
        assert main(["build", str(path), "--out", str(tmp_path / "b.rakb")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_queries_file(self, dataset, tmp_path, capsys, caplog):
        record = json.loads(dataset["queries"].read_text(encoding="utf-8").splitlines()[0])
        path = tmp_path / "q.jsonl"
        path.write_bytes(self.lines_with_bad_byte(record))
        out = tmp_path / "run"
        code = main([
            "evaluate", "--base", str(dataset["base"]), "--queries", str(path), "--strategy", "cm",
            "--ensemble", "mv", "--k", "3", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err and "0xff" in err
        assert "Traceback" not in err + caplog.text
        assert not out.exists()

    def test_synth_config(self, tmp_path, capsys, caplog):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"seed": 1,\n "n_real": 5,\n "x": "\xc3("}\n')
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "syn")])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err and "0xc3" in err
        assert "Traceback" not in err + caplog.text

    def test_value_error_inside_a_command_is_internal(self, dataset, tmp_path, monkeypatch):
        # Only RaddError is an input error: a bare ValueError is a fault of
        # the program, not of its input.
        def broken(*args, **kwargs):
            raise ValueError("programming error")

        monkeypatch.setattr("radd.cli.ingest_jsonl", broken)
        assert main(["build", str(dataset["knowledge"]), "--out", str(tmp_path / "b.rakb")]) == 4
