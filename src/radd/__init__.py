"""Training-free retrieval-augmented audio deepfake detection.

A knowledge base of labeled reference utterances (CM features, voice-profile
features, labels, CM scores), exact top-k cosine retrieval with CM-only /
profile-only / hybrid strategies, majority-vote / ratio / score-averaging
ensembles, and an EER + fixed-threshold-accuracy evaluation harness with
k-sweep and profile-attribute ablation tooling.
"""

__version__ = "0.1.0"

from .ablation import AttributeMask, apply_mask
from .ensemble import EnsembleStrategy, Prediction, predict
from .errors import RaddError
from .metrics import EvalReport, ScoredSample, accuracy, eer, evaluate, evaluate_grid
from .retrieval import NeighborSet, RetrievalStrategy, retrieve_batch
from .store import KnowledgeBase, build, from_arrays, ingest_jsonl, load, read_queries_jsonl, save
from .synthetic import SynthConfig, generate
from .types import DEFAULT_PROFILE_LAYOUT, KnowledgeEntry, ProfileLayout, QueryRecord

__all__ = [
    "AttributeMask",
    "DEFAULT_PROFILE_LAYOUT",
    "EnsembleStrategy",
    "EvalReport",
    "KnowledgeBase",
    "KnowledgeEntry",
    "NeighborSet",
    "Prediction",
    "ProfileLayout",
    "QueryRecord",
    "RaddError",
    "RetrievalStrategy",
    "ScoredSample",
    "SynthConfig",
    "accuracy",
    "apply_mask",
    "build",
    "eer",
    "evaluate",
    "evaluate_grid",
    "from_arrays",
    "generate",
    "ingest_jsonl",
    "load",
    "predict",
    "read_queries_jsonl",
    "retrieve_batch",
    "save",
]
