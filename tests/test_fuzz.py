"""Property tests: bad input must end in a typed RaddError or a clean exit,
and the screened top-k ranking is the exact one.

hypothesis (an optional test dependency; the module is skipped without it)
generates byte flips, truncations and appended bytes on a small valid base
file, edits of one line of a valid JSONL file and of one vector element in
it, edits of valid CLI command lines, one field of a `radd synth` config
replaced by any JSON value, small tie-heavy bases with queries, neighbor
sets for the ensemble rules and arrays of such sets for the batch scorer of
a k grid. It also writes records of any finite float32 values and reads them
back. Every run is derandomized and keeps no example database.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st  # noqa: E402

from hypothesis.extra.numpy import arrays  # noqa: E402

from conftest import base_with, neighbor_set, random_base, simple_layout, tie_heavy_world  # noqa: E402
from radd import retrieval  # noqa: E402
from radd.cli import main  # noqa: E402
from radd.ensemble import EnsembleStrategy, _score_sets, predict  # noqa: E402
from radd.errors import DimensionMismatchError, ParseError, RaddError  # noqa: E402
from radd.retrieval import RetrievalStrategy, retrieve_batch  # noqa: E402
from radd.store import (  # noqa: E402
    build, entry_to_json, from_arrays, ingest_jsonl, load, read_queries_jsonl, save, write_jsonl,
)
from radd.synthetic import SynthConfig, generate  # noqa: E402
from radd.types import KnowledgeEntry, ProfileLayout, QueryRecord  # noqa: E402
from reference import naive_cosine, naive_ensemble  # noqa: E402


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pos=st.integers(0, len(VALID_LINES) - 1), key=st.sampled_from(["cm", "prof"]), index=st.integers(0, 2),
       value=JSON_VALUES)
@example(pos=2, key="cm", index=0, value={"a": 1})
@example(pos=3, key="prof", index=2, value="x")
@example(pos=4, key="cm", index=1, value=[1.0, 2.0])
def test_mutated_vector_element_reports_its_line(tmp_path_factory, pos, key, index, value):
    # One element of a vector replaced by any JSON value, the width kept:
    # the record is either read or rejected with a RaddError on its line.
    lines = list(VALID_LINES)
    obj = json.loads(lines[pos])
    obj[key][index % len(obj[key])] = value
    lines[pos] = json.dumps(obj)
    path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for reader in (ingest_jsonl, read_queries_jsonl):
        try:
            reader(path, LAYOUT)
        except RaddError as exc:
            assert exc.line == pos + 1, f"{reader.__name__}: {exc}"
        else:  # only a JSON number is read as a vector element
            assert type(value) in (int, float), f"{reader.__name__} read {value!r}"


# Finite float32 values, the vector elements that radd itself writes.
FLOAT32_VECTORS = st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(id_=st.integers(0, 2**64 - 1), label=st.sampled_from([0, 1]),
       score=st.floats(0.0, 1.0, width=32, exclude_min=True, exclude_max=True),
       cm=FLOAT32_VECTORS, prof=FLOAT32_VECTORS, meta=st.none() | st.text(max_size=8))
# 1018.12396 needs all 9 digits; 8 name a neighbour.
@example(id_=2**64 - 1, label=1, score=1e-45, cm=[-0.0, 0.0, 1e-45, -3.4028234663852886e38, 1018.1239624023438],
         prof=[0.1], meta='caf\u00e9 "\u2603"\n')
def test_written_line_reads_back_bit_for_bit(tmp_path_factory, id_, label, score, cm, prof, meta):
    # entry_to_json writes short numbers but the same float32 bits, and the
    # other fields exactly as json.dumps writes them.
    entry = KnowledgeEntry(id=id_, cm=cm, prof=prof, label=label, score=score, meta=meta)
    line = entry_to_json(entry)
    obj = json.loads(line)
    assert list(obj) == ["id", "label", "score", "cm", "prof"] + ["meta"] * (meta is not None)
    assert line.isascii() and f'"id":{json.dumps(id_)},"label":{json.dumps(label)},' in line
    assert meta is None or line.endswith(f',"meta":{json.dumps(meta)}}}')
    assert (obj["id"], obj["label"], obj.get("meta")) == (id_, label, meta)
    path = tmp_path_factory.mktemp("jsonl") / "written.jsonl"
    write_jsonl(path, [line])
    for reader in (ingest_jsonl, read_queries_jsonl):
        (again,) = reader(path, simple_layout(len(prof)))
        assert again.cm.tobytes() == np.asarray(cm, dtype=np.float32).tobytes()
        assert again.prof.tobytes() == np.asarray(prof, dtype=np.float32).tobytes()
        assert (again.id, again.label, again.score) == (id_, label, entry.score)


def read_line_by_line(path, layout, record_type) -> list:
    """The readers' contract, one line and one record at a time: a
    non-blank line is UTF-8 text holding a JSON object with id, score, cm
    and prof, and a string or no meta; *record_type* checks every field; the
    first record fixes the CM width and *layout* the profile width. The
    first line that breaks a rule raises its error, prefixed with its line."""
    records, widths = [], {"cm": None, "prof": layout.total_dim}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                escaped = [c for c in line if "\udc80" <= c <= "\udcff"]  # the bytes that are not UTF-8
                if escaped:
                    raise ParseError(f"not UTF-8 text: byte {ord(escaped[0]) - 0xDC00:#04x}")
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise ParseError(f"record must be a JSON object, got {type(obj).__name__}")
                for key in ("id", "score", "cm", "prof"):
                    if key not in obj:
                        raise ParseError(f"record is missing required field {key!r}")
                if obj.get("meta") is not None and not isinstance(obj["meta"], str):
                    raise ParseError(f"field 'meta' must be a string, got {obj['meta']!r}")
                record = record_type(**{f.name: obj.get(f.name) for f in fields(record_type)})
                widths["cm"] = widths["cm"] or len(record.cm)
                for key, width in widths.items():
                    if len(getattr(record, key)) != width:
                        raise DimensionMismatchError(
                            f"field {key!r} has length {len(getattr(record, key))}, expected {width}"
                        )
            except RaddError as exc:
                exc.args = (f"line {lineno}: {exc}",)
                exc.line = lineno
                raise
            records.append(record)
    return records


def _outcome(read):
    """The records of ``read()`` as comparable tuples (every field, the
    vector bits, writeability), or its error's type, message, line and
    index."""
    try:
        records = read()
    except RaddError as exc:
        return "error", type(exc), str(exc), exc.line, getattr(exc, "index", None)
    return "records", [
        (type(r), r.id, r.label, r.score.hex(), getattr(r, "meta", None), r.cm.dtype, r.cm.tobytes(),
         r.prof.dtype, r.prof.tobytes(), r.cm.flags.writeable, r.prof.flags.writeable)
        for r in records
    ]


# One fault's replacement values, valid or not for the field.
BAD_ELEMENTS = [True, False, "1.5", None, [1.0], float("nan"), float("-inf"), 1e39, -1e39, 10**400, 2**64]
BAD_IDS = [-1, 2**64, 1.5, "3", True, None, 2**64 - 1]
BAD_SCORES = [0, 1, 0.0, 1.0, -0.5, 1.5, "0.5", None, True, 0.99999999999, 1e-50, float("nan")]
BAD_LABELS = [2, -1, 1.0, True, "1", None]
BAD_METAS = [5, [], {}, True, "café"]
NOT_OBJECTS = [[1, 2], "x", 3, None, 1.5, True]


@st.composite
def faulty_jsonl(draw) -> bytes:
    """A knowledge file of 1 to 8 records (CM width 1 to 4, profile width 3),
    with blank lines, one of three line endings, and 0 to 2 faults, each on
    its own line: text cut out, not an object, a key dropped, a bad vector
    element, id, score, label or meta, a wrong width, or a byte that is not
    UTF-8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_cm, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    objs = [
        {"id": i, "label": int(rng.integers(0, 2)), "score": float(np.float32(rng.uniform(0.01, 0.99))),
         "cm": rng.standard_normal(d_cm, dtype=np.float32).tolist(),
         "prof": rng.standard_normal(3, dtype=np.float32).tolist()}
        for i in range(n)
    ]
    lines = [None] * n
    faults = min(n, draw(st.sampled_from([0, 1, 1, 2, 2])))
    for pos in draw(st.lists(st.integers(0, n - 1), min_size=faults, max_size=faults, unique=True)):
        obj, kind = objs[pos], draw(st.sampled_from(  # the checks made once per block drawn most
            ["cut", "object", "drop", "element", "element", "element", "width", "id", "score", "score", "label",
             "meta", "utf8"]
        ))
        if kind == "object":
            lines[pos] = json.dumps(draw(st.sampled_from(NOT_OBJECTS))).encode()
        elif kind == "drop":
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif kind in ("element", "width"):
            vec = obj[draw(st.sampled_from(["cm", "prof"]))]
            if kind == "width" and draw(st.booleans()):
                vec.pop()
            elif kind == "width":
                vec.append(0.5)
            else:
                vec[draw(st.integers(0, len(vec) - 1))] = draw(st.sampled_from(BAD_ELEMENTS))
        elif kind in ("id", "score", "label", "meta"):
            obj[kind] = draw(st.sampled_from({"id": BAD_IDS, "score": BAD_SCORES, "label": BAD_LABELS,
                                              "meta": BAD_METAS}[kind]))
        else:
            text = json.dumps(obj).encode()
            cut = draw(st.integers(0, len(text)))
            lines[pos] = text[:cut] + (b"\xff" if kind == "utf8" else b"") + text[draw(st.integers(cut, len(text))):]
    lines = [line or json.dumps(obj).encode() for line, obj in zip(lines, objs)]
    for pos in draw(st.lists(st.integers(0, n), max_size=2)):
        lines.insert(pos, draw(st.sampled_from([b"", b"  "])))
    return draw(st.sampled_from([b"\n", b"\r\n", b"\r"])).join(lines) + b"\n"


def _line(id_=0, label=1, score=0.5, cm=(1.0,), prof=(1.0, 2.0, 3.0)) -> bytes:
    return json.dumps({"id": id_, "label": label, "score": score, "cm": list(cm), "prof": list(prof)}).encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(content=faulty_jsonl())
@example(content=_line(label=2) + b"\n")
@example(content=_line(cm=[float("nan")]) + b"\n[1, 2]\n")  # a row checked in the block, then a line that is not
@example(content=_line() + b"\n" + _line(1, prof=[0.0, 1e39, 0.0]) + b"\n{}\n")
@example(content=_line() + b"\n" + _line(1, score=0.99999999999) + b"\n" + _line(2, cm=[True]) + b"\n")
@example(content=b"\r".join(_line(i, cm=[i, -0.0]) for i in range(5)) + b"\r")  # more lines than newlines
def test_readers_equal_a_record_by_record_read(tmp_path_factory, content):
    # Both readers check each block of rows at once; every outcome must be
    # the one-record-at-a-time read's: the same records bit for bit, or the
    # same error (type, message, line, index), the earliest line's first.
    path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
    path.write_bytes(content)
    for reader, record_type in ((ingest_jsonl, KnowledgeEntry), (read_queries_jsonl, QueryRecord)):
        got = _outcome(lambda: reader(path, LAYOUT))
        want = _outcome(lambda: read_line_by_line(path, LAYOUT, record_type))
        assert got == want, reader.__name__
        if got[0] == "records":
            assert not any(writeable for *_, cm_w, prof_w in got[1] for writeable in (cm_w, prof_w))


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
                     "avg", "ratio", "age,gender", "none,emotion", "a:1", "age:0", "a:99999999999999999999", "5,", ",",
                     "queries.jsonl", "base.rakb", "knowledge.jsonl", "config.json", "missing.rakb",
                     "unlabeled.jsonl"]),
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


# --- synth config ------------------------------------------------------------------

SYNTH_CONFIG = {"seed": 1, "n_real": 6, "n_seen_fake": 6, "n_query_real": 2, "n_query_zeroday": 2}
SIZE_FIELDS = {"d_cm", "n_real", "n_seen_fake", "n_query_real", "n_query_zeroday"}
# Any JSON value, with integers small enough that a valid size field makes
# a tiny dataset; the large ones go to the seed and the float fields only.
LARGE_INTS = [2**64 - 1, 2**64, 10**400]
SMALL_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(), st.text(max_size=8)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(SynthConfig.__dataclass_fields__) + ["extra"]),
       value=SMALL_JSON_VALUES | st.sampled_from(LARGE_INTS), seed_flag=st.booleans())
@example(key="seed", value="7", seed_flag=False)
@example(key="seed", value=1.5, seed_flag=False)
@example(key="n_real", value=1.5, seed_flag=True)
@example(key="cluster_sep", value="x", seed_flag=False)
def test_mutated_synth_config_exits_cleanly(cli_world, monkeypatch, capsys, caplog, key, value, seed_flag):
    assume(key not in SIZE_FIELDS or value not in LARGE_INTS)
    monkeypatch.chdir(cli_world["root"])
    Path("fuzzed.json").write_text(json.dumps({**SYNTH_CONFIG, key: value}), encoding="utf-8")
    argv = ["synth", "--config", "fuzzed.json", *(["--seed", "5"] if seed_flag else []), "--out", "synfuzz"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2), f"{key}={value!r}: exit {code}"
    for text in (captured.out, captured.err, caplog.text):
        assert "Traceback" not in text, f"{key}={value!r}"
    caplog.clear()


# --- exact ranking -----------------------------------------------------------------

@st.composite
def tie_heavy_block(draw) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Rows and queries on the integer grid -2..2 (so every dot product and
    norm is exact in float64 and ties are frequent), with some rows and
    queries zeroed, a k from 1 to n that is often small against n, so the
    screen's column groups have several columns, and a screening tile width
    from 1 to n (the kernel widens it to k)."""
    n, d = draw(st.integers(1, 120)), draw(st.integers(1, 4))
    grid = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
    rows = draw(arrays(np.float32, (n, d), elements=grid))
    queries = draw(arrays(np.float32, (draw(st.integers(1, 5)), d), elements=grid))
    rows[draw(st.lists(st.integers(0, n - 1), max_size=4))] = 0.0
    queries[draw(st.lists(st.integers(0, len(queries) - 1), max_size=2))] = 0.0
    k = draw(st.one_of(st.integers(1, 3), st.integers(1, n)))
    return rows, queries, min(k, n), draw(st.integers(1, n))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(block=tie_heavy_block())
def test_rank_block_equals_stable_argsort(block):
    rows, queries, k, tile = block
    n, d = rows.shape
    base = from_arrays(
        ids=np.arange(n), labels=np.zeros(n, dtype=np.uint8), scores=np.full(n, 0.5, dtype=np.float32),
        cm_matrix=rows, prof_matrix=rows, layout=simple_layout(d),
    )
    with mock.patch.object(retrieval, "_tile_rows", lambda b, k: max(k, tile)):
        idx, sim = retrieval._rank_block(base, "cm", list(queries), k, retrieval._screen_state(base, "cm"))
    for q, got_rows, got_sims in zip(queries, idx, sim):
        want = np.array([naive_cosine(row, q) for row in rows])
        np.testing.assert_array_equal(got_rows, np.argsort(-want, kind="stable")[:k])
        assert got_sims.tobytes() == want[got_rows].tobytes()


# --- ensemble rules ----------------------------------------------------------------

def f32(x) -> float:
    return float(np.float32(x))


# Scores strictly inside (0, 1) in float32, with the extremes drawn often:
# the smallest subnormal and normal float32 and the largest float32 below 1,
# and scores far below one float64 step of the others, which a plain float64
# sum of the set would drop.
EXTREME_SCORES = [f32(1e-45), float(np.finfo(np.float32).tiny), f32(np.nextafter(np.float32(1), np.float32(0)))]
FLOAT32_SCORES = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, width=32),
    st.sampled_from(EXTREME_SCORES),
    st.floats(f32(1e-30), f32(1e-15), width=32),
)


@st.composite
def neighborhoods(draw) -> tuple[list[int], list[float]]:
    """(labels, float32 scores) of 1 to 40 neighbors; about half of the
    draws an exact majority-vote tie."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        labels = draw(st.permutations([0, 1] * max(1, n // 2)))
    else:
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return labels, draw(st.lists(FLOAT32_SCORES, min_size=len(labels), max_size=len(labels)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=neighborhoods(), data=st.data())
def test_predict_equals_naive_ensemble(rows, data):
    labels, scores = rows
    base = base_with(labels, scores)
    idx = data.draw(st.permutations(range(base.n)))
    for strategy in EnsembleStrategy:
        got = predict(base, neighbor_set(idx), strategy, 0).score
        want = naive_ensemble(strategy.value, [labels[i] for i in idx], [scores[i] for i in idx])
        assert got.hex() == want.hex(), strategy


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), k=st.integers(2, 45))
def test_predict_equals_naive_ensemble_on_hybrid_sets(seed, k):
    # Tie-heavy hybrid retrieval: the two halves overlap, so most sets are
    # deduplicated below k.
    base, queries = tie_heavy_world(seed, n_queries=16)
    for ns in retrieve_batch(base, queries, RetrievalStrategy.HYBRID, k):
        labels, scores = base.labels[ns.indices].tolist(), base.scores[ns.indices].tolist()
        for strategy in EnsembleStrategy:
            want = naive_ensemble(strategy.value, labels, scores)
            assert predict(base, ns, strategy, 0).score.hex() == want.hex(), (k, len(ns), strategy)


ONE_ROW = st.tuples(st.lists(st.integers(0, 1), min_size=1, max_size=1),
                    st.lists(FLOAT32_SCORES, min_size=1, max_size=1))


@st.composite
def row_sets(draw) -> tuple[object, np.ndarray, np.ndarray]:
    """A base and a (sets x width) array of its rows with each set's size,
    as retrieval._grid returns them: set i is the first sizes[i] rows of row
    i. One-row sets, exactly half-fake sets (``neighborhoods``) and sets
    shorter than the width, their tails any rows of the base, are drawn often."""
    sets = draw(st.lists(st.one_of(neighborhoods(), ONE_ROW), min_size=1, max_size=6))
    labels = [y for set_labels, _ in sets for y in set_labels]
    base = base_with(labels, [s for _, set_scores in sets for s in set_scores])
    sizes = [len(set_labels) for set_labels, _ in sets]
    width = max(sizes) + draw(st.integers(0, 3))
    rows, start = [], 0
    for size in sizes:
        members = draw(st.permutations(range(start, start + size)))
        rows.append([*members, *draw(st.lists(st.integers(0, len(labels) - 1), min_size=width - size,
                                              max_size=width - size))])
        start += size
    return base, np.array(rows, dtype=np.int64), np.array(sizes, dtype=np.int64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn=row_sets())
def test_batch_scorer_equals_predict(drawn):
    # One rule, two callers: each set's batch score is predict's, bit for bit.
    base, rows, sizes = drawn
    for strategy in EnsembleStrategy:
        got = _score_sets(base, rows, sizes, strategy)
        for i, size in enumerate(sizes.tolist()):
            want = predict(base, neighbor_set(rows[i, :size]), strategy, i).score
            assert float(got[i]).hex() == want.hex(), (strategy, i)
