"""Golden quick-start outputs: the CLI must reproduce, byte for byte, the
files committed under ``tests/golden/``.

The pipeline is the README quick-start at a small size: ``synth`` (seed 7,
200 + 200 knowledge rows, 20 + 20 queries; the dev queries of ``sweep`` come
from seed 8), ``build``, ``evaluate`` with ``--strategy none`` and with
hybrid/mv at k=20, ``sweep`` with ``--dev-queries`` and ``--mask age``,
``sweep`` with ``--dev-queries`` and ``--normalize-profile``, and ``ablate``
with ``--normalize-profile``. The two synthetic JSONL files are
compared by SHA-256 (``synth.sha256``).

The files depend on numpy's PCG64 stream, which the generator draws from.
Regenerate them, with ``PYTHONPATH=src python tests/test_golden.py``, only in
a change that means to change outputs, and say so in its description.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from radd import cli
from radd.cli import main

GOLDEN = Path(__file__).with_name("golden")

CONFIG = {"seed": 7, "n_real": 200, "n_seen_fake": 200, "n_query_real": 20, "n_query_zeroday": 20}

OUTPUTS = (
    "none/report.json",
    "none/predictions.tsv",
    "hybrid-mv/report.json",
    "hybrid-mv/predictions.tsv",
    "sweep/sweep.json",
    "sweep/sweep.txt",
    "sweep-norm/sweep.json",
    "sweep-norm/sweep.txt",
    "ablate/ablation.json",
    "synth.sha256",
)


def sweep_norm_argv(root: Path, out: Path) -> list[str]:
    return ["sweep", "--base", str(root / "base.rakb"), "--queries", str(root / "data" / "queries.jsonl"),
            "--strategy", "prof", "--ensemble", "ratio", "--dev-queries", str(root / "dev" / "queries.jsonl"),
            "--normalize-profile", "--out", str(out)]


def run_quickstart(root: Path) -> None:
    """Run the small quick-start into *root*; each name in OUTPUTS is then
    a file under *root*."""
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    data, dev, base = root / "data", root / "dev", str(root / "base.rakb")
    queries = str(data / "queries.jsonl")
    commands = [
        ["synth", "--config", str(config), "--out", str(data)],
        ["synth", "--config", str(config), "--seed", "8", "--out", str(dev)],
        ["build", str(data / "knowledge.jsonl"), "--out", base],
        ["evaluate", "--base", base, "--queries", queries, "--strategy", "none",
         "--out", str(root / "none")],
        ["evaluate", "--base", base, "--queries", queries, "--strategy", "hybrid",
         "--ensemble", "mv", "--k", "20", "--out", str(root / "hybrid-mv")],
        ["sweep", "--base", base, "--queries", queries, "--strategy", "hybrid",
         "--ensemble", "ratio", "--dev-queries", str(dev / "queries.jsonl"),
         "--mask", "age", "--out", str(root / "sweep")],
        sweep_norm_argv(root, root / "sweep-norm"),
        ["ablate", "--base", base, "--queries", queries, "--strategy", "hybrid",
         "--ensemble", "ratio", "--k", "10", "--normalize-profile",
         "--out", str(root / "ablate")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    digests = "".join(
        f"{hashlib.sha256((data / name).read_bytes()).hexdigest()}  {name}\n"
        for name in ("knowledge.jsonl", "queries.jsonl")
    )
    (root / "synth.sha256").write_text(digests, encoding="utf-8")


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden")
    run_quickstart(root)
    return root


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_golden(produced, name):
    assert (produced / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_sweep_normalizes_all_query_files_in_one_call(produced, tmp_path, monkeypatch):
    # The base statistics and the normalized base view are computed once for
    # the evaluation and dev query files together, not once per file.
    calls = []
    profile_zscore = cli.profile_zscore

    def counting(base, query_sets):
        calls.append([len(qs) for qs in query_sets])
        return profile_zscore(base, query_sets)

    monkeypatch.setattr(cli, "profile_zscore", counting)
    assert main(sweep_norm_argv(produced, tmp_path)) == 0
    assert calls == [[40, 40]]
    for name in ("sweep.json", "sweep.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / "sweep-norm" / name).read_bytes()


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_quickstart(Path(tmp))
        for name in OUTPUTS:
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / name, GOLDEN / name)
    print(f"wrote {len(OUTPUTS)} files under {GOLDEN}", file=sys.stderr)
