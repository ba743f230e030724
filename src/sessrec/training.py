"""Session-parallel training loop for the GRU network."""

from __future__ import annotations

import logging

import numpy as np

from .data import ItemVocab, SessionStore, SessionBatcher
from .gru import (HiddenState, HyperParams, NetworkParams, backward_step, discounted_input,
                  forward_step, init_network)
from .linalg import make_rng
from .losses import LOSSES, negatives_mask
from .optim import OptimState, adagrad_update, rmsprop_update

__all__ = ["TrainingDiverged", "train_gru"]

logger = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite; names the offending step."""


def train_gru(
    store: SessionStore,
    vocab: ItemVocab,
    hyper: HyperParams,
    params: NetworkParams | None = None,
) -> NetworkParams:
    """Train a network on a session store; fully determined by the seed.

    Width-one tail batches carry no in-batch negative, so they advance the
    hidden state without contributing a parameter update.
    """
    n_items = len(vocab)
    if params is None:
        params = init_network(n_items, hyper)
    rng = make_rng(hyper.seed + 1)  # dropout stream, distinct from init
    loss_fn = LOSSES[hyper.loss_kind]
    use_linear = hyper.loss_kind == "xent"

    states = {name: OptimState.for_param(p, hyper.momentum) for name, p in params.named_params()}
    param_map = dict(params.named_params())

    def update(name: str, grad: np.ndarray, rows: np.ndarray | None) -> None:
        if hyper.optimizer_kind == "adagrad":
            adagrad_update(param_map[name], grad, states[name], hyper.learning_rate,
                           momentum=hyper.momentum, rows=rows)
        else:
            rmsprop_update(param_map[name], grad, states[name], hyper.learning_rate,
                           decay=hyper.rmsprop_decay, momentum=hyper.momentum, rows=rows)

    for epoch in range(hyper.epochs):
        batcher = SessionBatcher(store, hyper.batch_width)
        h = HiddenState.zeros(params, hyper.batch_width)
        total_loss = 0.0
        n_batches = 0
        for step, batch in enumerate(batcher):
            if batch.width != h.width:
                h = h.reorder(batch.prev_lanes)
            scores, h, cache = forward_step(
                params, batch, h, sampled_columns=batch.targets, training=True, rng=rng,
                input_vectors=discounted_input(h, batch, hyper.input_decay),
            )
            if batch.width < 2:
                continue  # no negatives available
            mask = negatives_mask(batch.targets)
            value, dscores = loss_fn(
                cache.linear_scores if use_linear else scores, mask
            )
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite {hyper.loss_kind} loss at epoch {epoch}, step {step}"
                )
            grads = backward_step(params, cache, dscores, on_preactivation=use_linear)
            for name, g in grads.items():
                update(name, g, grads.rows.get(name))
            total_loss += value
            n_batches += 1
        mean = total_loss / n_batches if n_batches else float("nan")
        logger.info("epoch %d: mean %s loss %.6f over %d batches",
                    epoch, hyper.loss_kind, mean, n_batches)
    return params
