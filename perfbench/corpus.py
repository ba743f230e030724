"""Seeded synthetic click-stream corpus for the benchmark.

Item popularity follows a Zipf law, each item has a few likely successors
(a Markov chain, so a sequence model has structure to learn), and session
lengths follow a shifted geometric law from 2 clicks with a mean of 3.97:
the paper's RSC15 training set has 31,637,239 clicks in 7,966,257 sessions,
after sessions of one click are dropped (its Table 1). Only that mean and the
minimum of 2 come from the paper; the other constants below (Zipf exponent,
successor count and probabilities, follow probability, the geometric shape)
are assumptions that no cited source checks.

Session lengths are stratified: every block of ``LENGTH_BLOCK`` sessions
(counted from the start of the training and of the test period) holds the
same lengths, the law's quantiles at (k + 0.5) / LENGTH_BLOCK, in a seeded
order. A seed then changes which sessions are long but not how many. Drawn
independently, the few long sessions among the few hundred test sessions
that requests come from would move the p99 request length, and with it
``recommend_p99_ms``, by 10-40% from seed to seed. The longest session has
14 clicks.

Per-step training cost grows with the vocabulary size, and the vocabulary
only holds items seen in training, so every catalog item is placed at least
once in a training session: a shuffled deck of the whole catalog is dealt
onto randomly chosen "fresh" positions (positions not following a successor
link) of the training sessions. The same seed gives a byte-identical CSV.
"""

from __future__ import annotations

import numpy as np

ZIPF_EXPONENT = 1.0
N_SUCCESSORS = 4
SUCCESSOR_P = np.array([0.55, 0.2, 0.15, 0.1])
FOLLOW_P = 0.6  # chance that a click follows a successor link of the last one
LENGTH_P = 0.3367  # geometric parameter of (length - 1); sets the mean to 3.97
LENGTH_BLOCK = 100
TEST_SHARE = 0.1
SESSION_GAP_MS = 60_000
CLICK_GAP_MS = 20_000
T0_MS = 1_400_000_000_000


def item_id(i: int) -> str:
    return f"i{i}"


def generate(n_items: int, n_sessions: int, seed: int) -> tuple[list[np.ndarray], int]:
    """Sessions as arrays of catalog indices, and the index of the first test session.

    Sessions are in time order; the first ``n_sessions - n_test`` form the
    training period and together contain every catalog item.
    """
    rng = np.random.default_rng(seed)
    n_test = max(1, int(n_sessions * TEST_SHARE))
    n_train = n_sessions - n_test

    perm = rng.permutation(n_items)  # popularity rank -> item
    weights = 1.0 / np.arange(1, n_items + 1) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    successors = perm[np.minimum(np.searchsorted(cdf, rng.random((n_items, N_SUCCESSORS))),
                                 n_items - 1)]

    lengths = np.concatenate([stratified_lengths(n_train, rng), stratified_lengths(n_test, rng)])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    n_events = int(lengths.sum())
    fresh = rng.random(n_events) >= FOLLOW_P
    fresh[starts] = True
    fresh_draw = perm[np.minimum(np.searchsorted(cdf, rng.random(n_events)), n_items - 1)]
    succ_pick = rng.choice(N_SUCCESSORS, size=n_events, p=SUCCESSOR_P)

    n_train_events = int(starts[n_train])
    train_fresh = np.flatnonzero(fresh[:n_train_events])
    if len(train_fresh) < n_items:
        raise ValueError(
            f"{n_train} training sessions have {len(train_fresh)} fresh positions, "
            f"fewer than the {n_items} catalog items; use more sessions"
        )
    deck_pos = rng.choice(train_fresh, size=n_items, replace=False)
    fresh_draw[deck_pos] = rng.permutation(n_items)

    items = np.empty(n_events, dtype=np.int64)
    for s, (b, n) in enumerate(zip(starts.tolist(), lengths.tolist())):
        prev = -1
        for k in range(b, b + n):
            prev = int(fresh_draw[k]) if fresh[k] else int(successors[prev, succ_pick[k]])
            items[k] = prev
    return [items[b:b + n] for b, n in zip(starts, lengths)], n_train


def stratified_lengths(n: int, rng) -> np.ndarray:
    """``n`` session lengths; each block of ``LENGTH_BLOCK`` holds the law's quantiles."""
    q = (np.arange(LENGTH_BLOCK) + 0.5) / LENGTH_BLOCK
    block = 2 + np.floor(np.log1p(-q) / np.log1p(-LENGTH_P)).astype(np.int64)
    n_blocks = -(-n // LENGTH_BLOCK)
    return np.concatenate([rng.permutation(block) for _ in range(n_blocks)])[:n]


def session_start_ms(s: int) -> int:
    return T0_MS + s * SESSION_GAP_MS


def to_csv(sessions: list[np.ndarray]) -> str:
    """Serialize in the ``SessionId,ItemId,Time`` schema that sessrec reads."""
    lines = ["SessionId,ItemId,Time"]
    for s, items in enumerate(sessions):
        t = session_start_ms(s)
        for k, it in enumerate(items.tolist()):
            lines.append(f"s{s},{item_id(it)},{t + k * CLICK_GAP_MS}")
    lines.append("")
    return "\n".join(lines)
