"""Seeded synthetic datasets that reproduce the zero-day premise at desk
scale: a fake cluster the CM scores correctly (seen), plus a zero-day fake
cluster that sits near the seen-fake cluster in representation space while
its CM scores are miscalibrated. Retrieval can then recover the labels the
raw scores lose.

Geometry (CM space): three isotropic, unit-variance Gaussian clusters. The
real-cluster center is placed at a seeded nonzero location (norm
2 * cluster_sep); the seen-fake center sits at distance ``cluster_sep`` from
it along an orthogonal direction, and the zero-day center is displaced from
the seen-fake center by ``zeroday_shift`` along a third orthogonal direction,
so the zero-day cluster is always nearer to seen-fake than to real. The
centers are offset from the origin because retrieval uses cosine similarity:
directions of points in a cluster centered exactly at the origin are
isotropic, and no retrieval strategy could separate anything.

Scores: the CM score of a point is a logistic of its signed distance to the
midplane between the real and seen-fake centers (negative side real),
normalized so cluster centers sit three logistic units from the plane, and
clamped into [0.01, 0.99]. A miscalibration factor m in [0, 1] rescales the
zero-day logistic argument by (1 - 2m): at m=0 zero-day scores follow the
same rule as seen data, at m=0.5 they collapse to exactly 0.5, and at m=1
they mirror onto the real side, which is what a fully fooled detector emits.

Randomness: a single numpy PCG64 stream seeded from the config. The draw
order is fixed, so a given (config, numpy version) pair always produces
byte-identical datasets; the generator name and numpy version are recorded
in the manifest written next to emitted files.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidConfigError
from .types import DEFAULT_PROFILE_LAYOUT, KnowledgeEntry, QueryRecord, _records_of_blocks

__all__ = ["RNG_ALGORITHM", "SynthConfig", "generate"]

RNG_ALGORITHM = "numpy.random.PCG64"

_ANCHOR_FACTOR = 2.0  # real-center norm, in units of cluster_sep
_SCORE_STEEPNESS = 3.0  # logistic units from midplane to a cluster center
_SCORE_CLAMP = (0.01, 0.99)
_EMOTION_NOISE = 0.9
_EMOTION_CHUNK = 4096  # embedding rows drawn at a time, bounding the float64 temporaries
_VOICE_NOISE = 0.12
# The profile columns of each attribute, the one layout every draw is sized from.
_SPANS = tuple(DEFAULT_PROFILE_LAYOUT.spans()[name] for name in ("age", "gender", "emotion", "voice_quality"))


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic zero-day scenario.

    ``cluster_sep`` is the distance between the real and seen-fake centers in
    units of the within-cluster standard deviation; ``zeroday_shift`` is the
    displacement of the zero-day cluster from the seen-fake center in the
    same units; ``score_miscalibration`` is how far zero-day CM scores are
    pulled from the true logistic rule (0 = calibrated, 1 = fully fooled).
    """

    seed: int
    d_cm: int = 16
    n_real: int = 2000
    n_seen_fake: int = 2000
    n_query_real: int = 200
    n_query_zeroday: int = 200
    cluster_sep: float = 12.0
    zeroday_shift: float = 2.0
    score_miscalibration: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                ok = isinstance(value, numbers.Integral)
            else:  # NaN, infinity and ints past the float range fail the comparison
                ok = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
            if isinstance(value, bool) or not ok:
                kind = "an integer" if f.type == "int" else "a finite number"
                raise InvalidConfigError(f"{f.name} must be {kind}, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if self.d_cm < 3:
            raise InvalidConfigError(
                f"d_cm must be >= 3 (three orthogonal cluster directions), got {self.d_cm}"
            )
        for name in ("n_real", "n_seen_fake", "n_query_real", "n_query_zeroday"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.cluster_sep > 0:
            raise InvalidConfigError(f"cluster_sep must be positive, got {self.cluster_sep}")
        if self.zeroday_shift < 0:
            raise InvalidConfigError(f"zeroday_shift must be >= 0, got {self.zeroday_shift}")
        if not 0.0 <= self.score_miscalibration <= 1.0:
            raise InvalidConfigError(
                f"score_miscalibration must be in [0, 1], got {self.score_miscalibration}"
            )

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthConfig":
        if not isinstance(obj, dict):
            raise InvalidConfigError(f"config must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidConfigError(f"unknown config fields: {sorted(unknown)}")
        if "seed" not in obj:
            raise InvalidConfigError("config requires a 'seed'")
        return cls(**obj)


def _logistic(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp overflows to inf for x far below 0; the limit 0 is exact
        return 1.0 / (1.0 + np.exp(-x))


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


class _ProfileModel:
    """Per-cluster profile generators with extractor-shaped attribute supports:
    integer age decile, one-hot gender, emotion trait scalar plus unit-norm
    embedding, and a bounded voice-quality block. Age/gender/trait carry no
    class signal; the embedding and voice-quality blocks are drawn around
    per-cluster anchors (the zero-day cluster reuses the seen-fake anchors,
    since its novelty lives in CM space, not in voice profile space)."""

    def __init__(self, rng: np.random.Generator):
        _, _, emotion, voice = (stop - start for start, stop in _SPANS)
        self.emb_real = _unit(rng.standard_normal(emotion - 1))  # the emotion span: a trait scalar, then the embedding
        self.emb_fake = _unit(rng.standard_normal(emotion - 1))
        self.voice_real = rng.uniform(0.3, 0.7, voice)
        self.voice_fake = rng.uniform(0.3, 0.7, voice)

    def sample(self, rng: np.random.Generator, out: np.ndarray, fake_like: bool) -> None:
        """Draw one profile per row of the float32 block *out*, each part
        cast straight into its columns (age, gender, trait, emb, voice)."""
        n = len(out)
        age, gender, emotion, voice = (out[:, start:stop] for start, stop in _SPANS)
        age[:] = rng.integers(0, 11, size=age.shape)
        gender[:] = 0.0
        gender[np.arange(n), rng.integers(0, gender.shape[1], size=n)] = 1.0
        emotion[:, :1] = rng.integers(0, 8, size=(n, 1))
        emb_anchor = self.emb_fake if fake_like else self.emb_real
        for start in range(0, n, _EMOTION_CHUNK):  # the same stream and values as one draw of every row
            emb = rng.standard_normal((min(_EMOTION_CHUNK, n - start), len(emb_anchor)))
            emb *= _EMOTION_NOISE
            emb += emb_anchor
            emb_norms = np.linalg.norm(emb, axis=1, keepdims=True)
            emb_norms[emb_norms == 0.0] = 1.0
            emb /= emb_norms
            emotion[start : start + len(emb), 1:] = emb
        voice_anchor = self.voice_fake if fake_like else self.voice_real
        voice[:] = np.clip(voice_anchor + _VOICE_NOISE * rng.standard_normal(voice.shape), 0.0, 1.0)


def generate(config: SynthConfig) -> tuple[list[KnowledgeEntry], list[QueryRecord]]:
    """Generate (knowledge entries, labeled query records) for *config*.

    Deterministic for a fixed seed. Knowledge entries come out as the real
    block followed by the seen-fake block (ids 0..n-1 in order); queries as
    the real block followed by the zero-day block. A config whose sizes
    need more memory than the process can allocate is an InvalidConfigError.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a huge center's inf or NaN rows fail the record checks
            return _draw(config)
    except MemoryError as exc:
        raise InvalidConfigError(f"the dataset of this config does not fit in memory: {exc}") from exc


def _draw(config: SynthConfig) -> tuple[list[KnowledgeEntry], list[QueryRecord]]:
    rng = np.random.Generator(np.random.PCG64(config.seed))

    # Three orthonormal directions: real-center anchor, real->fake axis,
    # zero-day displacement.
    basis, _ = np.linalg.qr(rng.standard_normal((config.d_cm, 3)))
    u_anchor, u_axis, u_shift = basis.T
    center_real = _ANCHOR_FACTOR * config.cluster_sep * u_anchor
    center_fake = center_real + config.cluster_sep * u_axis
    center_zd = center_fake + config.zeroday_shift * u_shift

    profiles = _ProfileModel(rng)
    midpoint = (center_real + center_fake) / 2.0
    arg_scale = _SCORE_STEEPNESS / (config.cluster_sep / 2.0)

    def records(record_type, clusters) -> list:
        """One *record_type* per row of the (center, size, label,
        miscalibration) clusters, in order, with ids 0, 1, ...: each cluster
        is drawn into its rows of one float32 block per space, and the
        records are read-only row views of them, checked once."""
        n = sum(size for _, size, _, _ in clusters)
        cm, prof = np.empty((n, config.d_cm), np.float32), np.empty((n, DEFAULT_PROFILE_LAYOUT.total_dim), np.float32)
        labels, scores, start = [], np.empty(n), 0
        for center, size, label, miscal in clusters:
            rows = slice(start, start + size)
            cm[rows] = center + rng.standard_normal((size, config.d_cm))
            profiles.sample(rng, prof[rows], fake_like=bool(label))
            arg = ((cm[rows].astype(np.float64) - midpoint) @ u_axis) * arg_scale
            arg *= 1.0 - 2.0 * miscal
            scores[rows] = np.clip(_logistic(arg), *_SCORE_CLAMP)
            labels += [label] * size
            start += size
        columns = {"id": range(n), "label": labels, "score": scores, "meta": [None] * n}
        return _records_of_blocks(record_type, columns, {"cm": cm, "prof": prof})

    entries = records(KnowledgeEntry, [(center_real, config.n_real, 0, 0.0), (center_fake, config.n_seen_fake, 1, 0.0)])
    queries = records(QueryRecord, [
        (center_real, config.n_query_real, 0, 0.0),
        (center_zd, config.n_query_zeroday, 1, config.score_miscalibration),
    ])
    return entries, queries
