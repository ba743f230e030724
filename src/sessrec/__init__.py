"""Session-based next-item recommendation.

A GRU network trained with session-parallel mini-batches, in-batch negative
sampling and pairwise ranking losses, alongside the classic POP, S-POP,
Item-KNN and BPR-MF baselines, all evaluated with the same next-item
Recall@K / MRR@K protocol.
"""

from .data import (
    ItemVocab,
    MiniBatch,
    SessionBatcher,
    SessionStore,
    ingest_events,
    split_train_test,
)
from .evaluate import EvalReport, evaluate, rank_of
from .gru import HyperParams, NetworkParams, init_network
from .training import TrainingDiverged, train_gru

__all__ = [
    "ItemVocab",
    "MiniBatch",
    "SessionBatcher",
    "SessionStore",
    "ingest_events",
    "split_train_test",
    "EvalReport",
    "evaluate",
    "rank_of",
    "HyperParams",
    "NetworkParams",
    "init_network",
    "TrainingDiverged",
    "train_gru",
]

__version__ = "0.1.0"
