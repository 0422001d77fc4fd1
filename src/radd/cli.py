"""Command-line interface: build knowledge bases, evaluate query sets,
sweep k, probe profile attributes, and generate synthetic datasets.

Exit codes are a stable contract: 0 success, 2 input or configuration error,
3 data error (e.g. unlabeled queries), 4 internal error. Every command
writes a run manifest (a JSON echo of its flags plus input checksums) next
to its outputs, so a results table can always be traced back to the exact
inputs that produced it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ablation import AttributeMask, _kept, apply_mask
from .ensemble import EnsembleStrategy, format_prediction_tsv
from .errors import EmptySamplesError, MissingClassError, ParseError, RaddError, StoreIOError, UnlabeledQueryError
from .metrics import _evaluate, evaluate_grid, score_queries  # noqa: F401 (perfbench looks up cli.score_queries)
from .retrieval import RetrievalStrategy
from .store import (
    _atomic_write,
    _jsonl_parts,
    build,
    entry_to_json,
    ingest_jsonl,
    load,
    profile_zscore,
    read_queries_jsonl,
    save,
)
from .synthetic import RNG_ALGORITHM, SynthConfig, generate
from .types import DEFAULT_PROFILE_LAYOUT, ProfileLayout, _parse_int

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

DEFAULT_K_GRID = (5, 10, 20, 50, 100, 200)
DEFAULT_MASKS = ("none", "age,gender", "emotion", "voice_quality")

_TABLE_HEADER = f"{'strategy':>8} {'ens':>6} {'k':>4} {'EER%':>7} {'Acc%':>7}"


def _sha256(path) -> str | None:
    if not Path(path).is_file():  # a pipe or FIFO, consumed by its reader (a stat does not block on it)
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _write_manifest(path: Path, command: str, args: argparse.Namespace, inputs: dict, outputs: list[str], extra: dict | None = None):
    manifest = {
        "command": command,
        "flags": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in inputs.items()},
        "outputs": outputs,
        "environment": {"radd_version": __version__, "numpy_version": np.__version__},
    }
    if extra:
        manifest.update(extra)
    _atomic_write(path, [_json_bytes(manifest)])


def _write_run(args, command: str, inputs: dict, files: dict, extra: dict | None = None) -> None:
    """The one writer of a run directory: create --out if missing, write
    each named output file in it atomically from its iterable of bytes-like
    parts (written one at a time, never joined), then the run manifest that
    lists them in the same order, with the optional *extra* block."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StoreIOError(f"cannot create output directory {out}: {exc}") from exc
    for name, parts in files.items():
        _atomic_write(out / name, parts)
    _write_manifest(out / "manifest.json", command, args, inputs, [str(out / name) for name in files], extra)


def _parse_config(args) -> tuple[RetrievalStrategy | None, EnsembleStrategy | None]:
    """The --strategy and --ensemble flags ('none' is the raw-score baseline,
    which ignores --ensemble); --parallelism and --k are checked for every strategy."""
    strategy = None if args.strategy == "none" else RetrievalStrategy(args.strategy)
    ensemble = None if args.ensemble is None else EnsembleStrategy(args.ensemble)
    if strategy is not None and ensemble is None:
        raise RaddError("--ensemble is required unless --strategy none")
    if strategy is None and ensemble is not None:
        logger.warning("ensemble %s has no effect on the raw-score baseline", ensemble.value)
    for name in ("parallelism", "k"):
        if getattr(args, name, 1) < 1:
            raise RaddError(f"{name} must be >= 1, got {getattr(args, name)}")
    return strategy, ensemble


def _int_flag(text: str) -> int:
    """An integer flag's value through ``types._parse_int``; argparse names the flag in its error."""
    try:
        return _parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_mask(value: str | None) -> AttributeMask:
    parts = () if value in (None, "none") else value.split(",")
    if any(not part or part != part.strip() for part in parts):
        raise RaddError(f"--mask takes 'none' or comma-separated attribute names, none blank or padded, got {value!r}")
    return AttributeMask(parts)


# --- commands -----------------------------------------------------------------

def cmd_build(args) -> int:
    layout = DEFAULT_PROFILE_LAYOUT if args.layout is None else ProfileLayout.from_descriptor(args.layout)
    base = build(ingest_jsonl(args.jsonl, layout), layout)
    save(base, args.out)
    out = Path(args.out)
    _write_manifest(out.with_name(out.name + ".manifest.json"), "build", args, {"jsonl": args.jsonl}, [str(out)])
    n_fake = int(base.labels.sum())
    n_real = base.n - n_fake
    print(f"n={base.n} d_cm={base.d_cm} d_prof={base.d_prof}")
    print(f"label balance: real {100.0 * n_real / base.n:.1f}% / fake {100.0 * n_fake / base.n:.1f}%")
    print(f"wrote {out}")
    return EXIT_OK


def _prepare_eval(args, mask: AttributeMask, strategy: RetrievalStrategy | None, extra_query_paths=()):
    """Load the base plus one or more query files and apply the optional
    normalization and *mask* identically to all of them."""
    base = load(args.base)
    query_sets = [read_queries_jsonl(p, base.layout) for p in (args.queries, *extra_query_paths)]
    if args.normalize_profile:
        # One call for all files: the statistics come from the raw base only.
        base, query_sets = profile_zscore(base, query_sets)
    return apply_mask(base, query_sets, mask, strategy)


def cmd_evaluate(args) -> int:
    strategy, ensemble = _parse_config(args)
    base, (queries,) = _prepare_eval(args, _parse_mask(args.mask), strategy)
    [(predictions, report)] = _evaluate(base, queries, strategy, ensemble, [args.k], args.parallelism)

    _write_run(args, "evaluate", {"base": args.base, "queries": args.queries}, {
        "report.json": [_json_bytes(report.to_json_dict())],
        "predictions.tsv": [format_prediction_tsv(predictions).encode("utf-8")],
    })
    print(_TABLE_HEADER)
    print(report.table_row())
    return EXIT_OK


def cmd_sweep(args) -> int:
    strategy, ensemble = _parse_config(args)
    try:
        grid = DEFAULT_K_GRID if args.k_grid is None else tuple(map(_parse_int, args.k_grid.split(",")))
    except ValueError:
        grid = ()  # as bad as a k below 1
    if not grid or min(grid) < 1:
        raise RaddError(f"--k-grid takes comma-separated integers >= 1, got {args.k_grid!r}")
    dev_paths = () if args.dev_queries is None else (args.dev_queries,)
    base, query_sets = _prepare_eval(args, _parse_mask(args.mask), strategy, dev_paths)
    runs = [evaluate_grid(base, qs, strategy, ensemble, grid, args.parallelism) for qs in query_sets]
    # Best k by EER on the dev set when there is one, else on the eval set;
    # an undefined EER ranks last, and equal EERs go to the smaller k. The
    # raw-score baseline uses no neighbours, so it has no k to select.
    reports, selection = runs[0], runs[-1]
    chosen_on = "dev" if dev_paths else "eval"
    best_k = None if strategy is None else min(
        zip(grid, selection), key=lambda kr: (math.inf if kr[1].eer is None else kr[1].eer, kr[0]))[0]

    lines = [_TABLE_HEADER]
    lines.extend(r.table_row() for r in reports)
    lines.append("no k selected (the raw-score baseline uses no neighbours)" if best_k is None
                 else f"best k = {best_k} (selected by {chosen_on}-set EER)")
    table = "\n".join(lines) + "\n"

    payload = {
        "grid": list(grid),
        "reports": [r.to_json_dict() for r in reports],
        "best_k": best_k,
        "selected_by": chosen_on,
    }
    inputs = {"base": args.base, "queries": args.queries}
    if dev_paths:
        payload["dev_eers"] = [r.eer for r in selection]
        inputs["dev_queries"] = args.dev_queries
    _write_run(args, "sweep", inputs, {"sweep.json": [_json_bytes(payload)], "sweep.txt": [table.encode("utf-8")]})
    print(table, end="")
    return EXIT_OK


def cmd_ablate(args) -> int:
    strategy, ensemble = _parse_config(args)
    if strategy is None:
        raise RaddError("ablation requires a retrieval strategy (not 'none')")
    masks = [_parse_mask(value) for value in args.mask or DEFAULT_MASKS]
    base, query_sets = _prepare_eval(args, AttributeMask(), strategy)  # each mask is applied below
    for mask in masks:  # a bad mask fails before any is evaluated
        _kept(base.layout, mask)

    rows, shared = [], []  # shared: one CM ranking for every mask (a mask leaves the CM matrix and vectors alone)
    print(f"{'config':>24} {'EER%':>7} {'Acc%':>7}")
    for mask in masks:
        masked, (queries,) = apply_mask(base, query_sets, mask, strategy)
        [(_, report)] = _evaluate(masked, queries, strategy, ensemble, [args.k], args.parallelism, shared)
        eer_txt = f"{100.0 * report.eer:.2f}" if report.eer is not None else "n/a"
        print(f"{mask.label():>24} {eer_txt:>7} {100.0 * report.accuracy:>7.2f}")
        rows.append({"mask": sorted(mask.excluded), "label": mask.label(), "report": report.to_json_dict()})

    _write_run(args, "ablate", {"base": args.base, "queries": args.queries}, {"ablation.json": [_json_bytes(rows)]})
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        raw = Path(args.config).read_bytes()
        obj = json.loads(raw.decode("utf-8"))
    except OSError as exc:
        raise RaddError(f"cannot read config {args.config}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"config {args.config}: line {line}: not UTF-8 text: byte {raw[exc.start]:#04x}") from None
    except json.JSONDecodeError as exc:
        raise RaddError(f"config {args.config} is not valid JSON: {exc}") from exc
    if args.seed is not None and isinstance(obj, dict):  # from_dict rejects any other config
        obj["seed"] = args.seed
    config = SynthConfig.from_dict(obj)
    entries, queries = generate(config)

    _write_run(args, "synth", {"config": args.config}, {
        "knowledge.jsonl": _jsonl_parts(map(entry_to_json, entries)),
        "queries.jsonl": _jsonl_parts(map(entry_to_json, queries)),
    }, extra={
        "generator": {
            "rng_algorithm": RNG_ALGORITHM,
            "numpy_version": np.__version__,
            "config": dataclasses.asdict(config),
        }
    })
    out = Path(args.out)
    print(f"wrote {out / 'knowledge.jsonl'} ({len(entries)} entries)")
    print(f"wrote {out / 'queries.jsonl'} ({len(queries)} queries)")
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def _add_eval_flags(p: argparse.ArgumentParser, with_k: bool = True):
    p.add_argument("--base", required=True, help="knowledge base file (RAKB)")
    p.add_argument("--queries", required=True, help="query JSONL with labels")
    p.add_argument("--strategy", required=True, choices=["cm", "prof", "hybrid", "none"],
                   help="retrieval strategy; 'none' thresholds the raw CM score (baseline)")
    p.add_argument("--ensemble", choices=["mv", "ratio", "avg"],
                   help="ensemble rule (required unless --strategy none)")
    if with_k:
        p.add_argument("--k", type=_int_flag, default=10, help="neighbors to retrieve (default 10)")
    p.add_argument("--parallelism", type=_int_flag, default=1, help="retrieval worker threads")
    p.add_argument("--normalize-profile", action="store_true",
                   help="z-score profile dimensions using knowledge-base statistics")
    p.add_argument("--out", required=True, help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    # No prefix matching: '--k' must not stand for '--k-grid', nor '--strat' for '--strategy'.
    parser = argparse.ArgumentParser(
        prog="radd",
        description="Training-free retrieval-augmented audio deepfake detection harness",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("build", help="ingest a knowledge JSONL file and write a base")
    p.add_argument("jsonl", help="knowledge JSONL produced by the feature extraction pipeline")
    p.add_argument("--layout", help="profile layout descriptor 'name:width,...' (default: age/gender/emotion/voice_quality, 285 dims)")
    p.add_argument("--out", required=True, help="output base file")
    p.set_defaults(func=cmd_build)

    p = add("evaluate", help="evaluate one (strategy, ensemble, k) configuration")
    _add_eval_flags(p)
    p.add_argument("--mask", help="profile attributes to exclude, comma-separated (or 'none')")
    p.set_defaults(func=cmd_evaluate)

    p = add("sweep", help="evaluate a grid of k values")
    _add_eval_flags(p, with_k=False)
    p.add_argument("--k-grid", help="comma-separated k values (default 5,10,20,50,100,200)")
    p.add_argument("--dev-queries", help="development query JSONL; selects best k by dev EER")
    p.add_argument("--mask", help="profile attributes to exclude, comma-separated (or 'none')")
    p.set_defaults(func=cmd_sweep)

    p = add("ablate", help="re-run evaluation under profile attribute masks")
    _add_eval_flags(p)
    p.add_argument("--mask", action="append",
                   help="mask to test (repeatable); default: none, age+gender, emotion, voice_quality")
    p.set_defaults(func=cmd_ablate)

    p = add("synth", help="generate a synthetic zero-day dataset")
    p.add_argument("--config", required=True, help="JSON file of generator parameters")
    p.add_argument("--seed", type=_int_flag, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (UnlabeledQueryError, EmptySamplesError, MissingClassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RaddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # pragma: no cover - defensive
        logger.exception("internal error")
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
