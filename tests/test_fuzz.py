"""Property tests: bad input must end in a typed RaddError or a clean exit.

hypothesis (an optional test dependency; the module is skipped without it)
generates byte flips, truncations and appended bytes on a small valid base
file, edits of one line of a valid JSONL file, and edits of valid CLI
command lines. Every run is derandomized and keeps no example database.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from conftest import random_base  # noqa: E402
from radd.cli import main  # noqa: E402
from radd.errors import RaddError  # noqa: E402
from radd.store import build, entry_to_json, ingest_jsonl, load, read_queries_jsonl, save, write_jsonl  # noqa: E402
from radd.synthetic import SynthConfig, generate  # noqa: E402
from radd.types import ProfileLayout  # noqa: E402


@pytest.fixture(scope="module")
def rakb(tmp_path_factory) -> tuple[bytes, object]:
    """The bytes of a valid 3-row base and a scratch path to write mutants to."""
    folder = tmp_path_factory.mktemp("fuzz")
    save(random_base(np.random.default_rng(0), n=3, d_cm=2, d_prof=3), folder / "valid.rakb")
    return (folder / "valid.rakb").read_bytes(), folder / "mutant.rakb"


# Three properties of 60 examples each.
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _assert_rejected(path, mutant: bytes) -> None:
    path.write_bytes(mutant)
    with pytest.raises(RaddError):
        load(path)


@FUZZ
@given(data=st.data())
def test_byte_flips_rejected(rakb, data):
    valid, path = rakb
    flips = data.draw(st.lists(
        st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)),
        min_size=1, max_size=4, unique_by=lambda flip: flip[0],
    ))
    mutant = bytearray(valid)
    for pos, mask in flips:
        mutant[pos] ^= mask
    _assert_rejected(path, bytes(mutant))


@FUZZ
@given(data=st.data())
def test_truncations_rejected(rakb, data):
    valid, path = rakb
    _assert_rejected(path, valid[: data.draw(st.integers(0, len(valid) - 1))])


@FUZZ
@given(extra=st.binary(min_size=1, max_size=64))
def test_appended_bytes_rejected(rakb, extra):
    valid, path = rakb
    _assert_rejected(path, valid + extra)


# --- JSONL lines ---------------------------------------------------------------

LAYOUT = ProfileLayout((("a", 2), ("b", 1)))
VALID_LINES = [
    json.dumps({"id": i, "label": i % 2, "score": 0.25 + 0.1 * i, "cm": [1.5, -2.0], "prof": [0.5, 0.0, 3.0]})
    for i in range(5)
]
# Scalars that a field can hold in JSON, valid or not for it.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
# Text on one line (the file is read line by line).
LINE_TEXT = st.text(st.characters(blacklist_characters="\r\n"), max_size=12)


@st.composite
def mutated_line(draw) -> str:
    """One valid record line with one field replaced or removed, or with
    text cut out of it or put into it."""
    line = VALID_LINES[0]
    kind = draw(st.sampled_from(["field", "drop", "cut", "insert"]))
    if kind in ("field", "drop"):
        obj = json.loads(line)
        key = draw(st.sampled_from(sorted(obj) + ["meta", "extra"]))
        if kind == "drop":
            obj.pop(key, None)
        else:
            obj[key] = draw(JSON_VALUES)
        return json.dumps(obj)
    start = draw(st.integers(0, len(line)))
    if kind == "cut":
        return line[:start] + line[draw(st.integers(start, len(line))):]
    return line[:start] + draw(LINE_TEXT) + line[start:]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_jsonl_line_reports_its_line(tmp_path_factory, data):
    # The first record fixes the CM width, so an edit there may surface on
    # line 2; edits go to lines 2 to 5 and must be reported on their line.
    pos = data.draw(st.integers(1, len(VALID_LINES) - 1))
    lines = list(VALID_LINES)
    lines[pos] = data.draw(mutated_line())
    path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for reader in (ingest_jsonl, read_queries_jsonl):
        try:
            records = reader(path, LAYOUT)
        except RaddError as exc:
            assert exc.line == pos + 1, f"{reader.__name__}: {exc}"
        else:
            assert len(records) in (len(lines), len(lines) - 1)  # a blanked line is skipped


# --- CLI flags -------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_world(tmp_path_factory) -> dict:
    """A tiny knowledge file, base, query files (one unlabeled) and synth
    config."""
    root = tmp_path_factory.mktemp("cli")
    entries, queries = generate(SynthConfig(seed=3, n_real=12, n_seen_fake=12, n_query_real=4, n_query_zeroday=4))
    write_jsonl(root / "knowledge.jsonl", (entry_to_json(e) for e in entries))
    write_jsonl(root / "queries.jsonl", (entry_to_json(q) for q in queries))
    write_jsonl(root / "unlabeled.jsonl", (entry_to_json(replace(q, label=None)) for q in queries))
    save(build(entries), root / "base.rakb")
    config = {"seed": 1, "n_real": 6, "n_seen_fake": 6, "n_query_real": 2, "n_query_zeroday": 2}
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return {"root": root}


def valid_commands() -> list[list[str]]:
    """One valid command line per command; paths are relative to the world."""
    io = ["--base", "base.rakb", "--queries", "queries.jsonl"]
    return [
        ["build", "knowledge.jsonl", "--out", "out.rakb"],
        ["evaluate", *io, "--strategy", "hybrid", "--ensemble", "mv", "--k", "4", "--out", "ev"],
        ["evaluate", *io, "--strategy", "none", "--out", "ev0"],
        ["sweep", *io, "--strategy", "prof", "--ensemble", "ratio", "--k-grid", "2,5", "--out", "sw"],
        ["ablate", *io, "--strategy", "prof", "--ensemble", "avg", "--k", "3", "--mask", "emotion", "--out", "ab"],
        ["synth", "--config", "config.json", "--seed", "5", "--out", "syn"],
    ]


FLAGS = ["--base", "--queries", "--strategy", "--ensemble", "--k", "--k-grid", "--parallelism", "--mask",
         "--normalize-profile", "--dev-queries", "--layout", "--out", "--config", "--seed", "--help"]
# Replacement tokens: flags, values of every kind the flags take, and words
# without path separators, so that nothing is written outside the world.
TOKENS = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(["0", "-1", "1", "2", "3", "10**9", "1e3", "nan", "", "cm", "prof", "hybrid", "none", "mv",
                     "avg", "ratio", "age,gender", "none,emotion", "a:1", "age:0", "5,", ",", "queries.jsonl",
                     "base.rakb", "knowledge.jsonl", "config.json", "missing.rakb", "unlabeled.jsonl"]),
    st.text(st.characters(whitelist_categories=("L", "N"), whitelist_characters="-,:=_ "), max_size=10),
)


# The fixtures hold for every example: one working directory, and the
# captured output and log are read and cleared by each example.
@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_cli_flags_exit_cleanly(cli_world, monkeypatch, capsys, caplog, data):
    monkeypatch.chdir(cli_world["root"])
    argv = data.draw(st.sampled_from(valid_commands()))
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["value", "value", "append", "replace", "insert", "drop"]))
        flags = [i for i, token in enumerate(argv[:-1]) if token.startswith("--")]
        if kind == "append" or (kind == "value" and not flags):
            argv = argv + [data.draw(st.sampled_from(FLAGS)), data.draw(TOKENS)]
            continue
        if kind == "value":  # a new value for one of the flags
            pos = 1 + data.draw(st.sampled_from(flags))
        else:  # position 0, the command, comes last, so that most edits reach a command
            pos = data.draw(st.integers(1, len(argv)).map(lambda p: p % len(argv)))
        if kind == "insert":
            argv = argv[:pos] + [data.draw(TOKENS)] + argv[pos:]
        elif kind == "drop":
            argv = argv[:pos] + argv[pos + 1:]
        else:
            argv = argv[:pos] + [data.draw(TOKENS)] + argv[pos + 1:]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3), f"{argv}: exit {code}"
    for text in (captured.out, captured.err, caplog.text):
        assert "Traceback" not in text, argv
    caplog.clear()
