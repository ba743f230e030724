"""Acceptance suite: one test per gating criterion, one printed pass/fail line each.

Every test ends by calling ``report``, which prints a single
``criterion N: PASS/FAIL`` line outside of pytest's capture so the verdicts
are always visible, then asserts.
"""

import io
import math
import time

import numpy as np
import pytest

from sessrec.baselines import itemknn_score, itemknn_train, pop_score
from sessrec.data import ItemVocab, MiniBatch, Session, SessionBatcher, SessionStore
from sessrec.evaluate import GruScorer, ItemKnnScorer, SpopScorer, evaluate, rank_of
from sessrec.gru import (
    HiddenState,
    HyperParams,
    backward_step,
    forward_step,
    init_network,
)
from sessrec.losses import LOSSES, bpr_loss, negatives_mask, top1_loss, xent_loss
from sessrec.modelio import gru_from_file, gru_to_file, load_model_file, save_model_file
from sessrec.training import TrainingDiverged, train_gru

from conftest import dense_grads, fed, store_from_lists


def report(capsys, criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# --------------------------------------------------------------------------
# 1. Gradient correctness against central finite differences.
# --------------------------------------------------------------------------

def test_criterion_1_gradients_match_finite_differences(capsys):
    n_items, hidden, b = 20, 8, 4
    eps, tol = 1e-5, 1e-4
    rng = np.random.default_rng(99)
    t0 = time.time()
    worst = 0.0
    worst_where = ""
    for loss_kind in ("top1", "bpr", "xent"):
        for n_layers, deep in ((1, False), (2, True)):
            hyper = HyperParams(
                hidden_size=hidden, n_layers=n_layers, deep_input=deep,
                dropout_rate=0.0, loss_kind=loss_kind, seed=17,
            )
            params = init_network(n_items, hyper)
            inputs = rng.integers(n_items, size=b)
            targets = rng.integers(n_items, size=b)
            batch = MiniBatch(
                inputs=inputs.astype(np.int64),
                targets=targets.astype(np.int64),
                reset_mask=np.zeros(b, dtype=bool),
                prev_lanes=np.arange(b, dtype=np.int64),
            )
            h = HiddenState(
                [rng.standard_normal((b, hidden)) * 0.3 for _ in range(n_layers)]
            )
            mask = negatives_mask(batch.targets)
            use_linear = loss_kind == "xent"

            def loss_value():
                scores, _, cache = forward_step(params, batch, h, batch.targets)
                arg = cache.linear_scores if use_linear else scores
                return LOSSES[loss_kind](arg, mask), cache

            (value, dscores), cache = loss_value()
            grads = dense_grads(
                params, backward_step(params, cache, dscores, on_preactivation=use_linear)
            )
            for name, p in params.named_params():
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    old = p[ix]
                    p[ix] = old + eps
                    vp = loss_value()[0][0]
                    p[ix] = old - eps
                    vm = loss_value()[0][0]
                    p[ix] = old
                    fd = (vp - vm) / (2 * eps)
                    got = grads[name][ix]
                    rel = abs(got - fd) / max(abs(got), abs(fd), 1e-6)
                    if rel > worst:
                        worst = rel
                        worst_where = f"{loss_kind}/{n_layers}L {name}{ix}"
    elapsed = time.time() - t0
    ok = worst <= tol and elapsed < 30.0
    report(
        capsys, 1, ok,
        f"worst relative error {worst:.2e} at {worst_where} "
        f"(tolerance {tol:.0e}), {elapsed:.1f}s (< 30s)",
    )


# --------------------------------------------------------------------------
# 2. Loss closed-form anchors.
# --------------------------------------------------------------------------

def test_criterion_2_loss_closed_forms(capsys):
    tol = 1e-12
    b = 5
    targets = np.arange(b, dtype=np.int64)  # distinct: full off-diagonal mask
    mask = negatives_mask(targets)
    equal = np.full((b, b), 0.37)
    zero = np.zeros((b, b))
    bpr_val = bpr_loss(equal, mask)[0]
    xent_val = xent_loss(equal, mask)[0]
    top1_val = top1_loss(zero, mask)[0]
    errs = (
        abs(bpr_val - math.log(2.0)),
        abs(xent_val - math.log(b)),
        abs(top1_val - 1.0),
    )
    ok = all(e <= tol for e in errs)
    report(
        capsys, 2, ok,
        f"bpr→ln2 err {errs[0]:.1e}, xent→lnB err {errs[1]:.1e}, "
        f"top1→1 err {errs[2]:.1e} (tolerance {tol:.0e})",
    )


# --------------------------------------------------------------------------
# 3. Batching conservation + reset semantics vs an independent simulation.
# --------------------------------------------------------------------------

def reference_batches(session_lists, width):
    """Independent simulation of session-parallel batching."""
    feed = iter([list(s) for s in session_lists if len(s) >= 2])
    lanes, cursors, fresh = [], [], []
    while len(lanes) < width:
        nxt = next(feed, None)
        if nxt is None:
            break
        lanes.append(nxt)
        cursors.append(0)
        fresh.append(True)
    out = []
    while True:
        keep_lanes, keep_cur, keep_fresh, prev = [], [], [], []
        for k, sess in enumerate(lanes):
            if cursors[k] + 1 < len(sess):
                keep_lanes.append(sess)
                keep_cur.append(cursors[k])
                keep_fresh.append(fresh[k])
                prev.append(k)
            else:
                nxt = next(feed, None)
                if nxt is not None:
                    keep_lanes.append(nxt)
                    keep_cur.append(0)
                    keep_fresh.append(True)
                    prev.append(k)
        if not keep_lanes:
            return out
        out.append((
            [s[c] for s, c in zip(keep_lanes, keep_cur)],
            [s[c + 1] for s, c in zip(keep_lanes, keep_cur)],
            list(keep_fresh),
            prev,
        ))
        lanes = keep_lanes
        cursors = [c + 1 for c in keep_cur]
        fresh = [False] * len(lanes)


def test_criterion_3_batching_conservation(capsys):
    rng = np.random.default_rng(321)
    session_lists = [
        list(rng.integers(40, size=rng.integers(2, 12)))
        for _ in range(1000)
    ]
    store, _ = store_from_lists(session_lists, n_items=40)
    brute = sorted(
        (s[i], s[i + 1]) for s in session_lists for i in range(len(s) - 1)
    )
    ok = True
    checked = 0
    for width in (1, 2, 32, 50):
        emitted = []
        ref = reference_batches(session_lists, width)
        n_batches = 0
        for step, batch in enumerate(SessionBatcher(store, width)):
            emitted.extend(zip(batch.inputs.tolist(), batch.targets.tolist()))
            r_in, r_tgt, r_fresh, r_prev = ref[step]
            if (batch.inputs.tolist() != r_in
                    or batch.targets.tolist() != r_tgt
                    or batch.reset_mask.tolist() != r_fresh
                    or batch.prev_lanes.tolist() != r_prev):
                ok = False
            checked += 1
            n_batches += 1
        if n_batches != len(ref) or sorted(emitted) != brute:
            ok = False
    report(
        capsys, 3, ok,
        f"pair multiset and reset/prev-lane stream match reference on 1000 "
        f"sessions for B in (1, 2, 32, 50); {checked} batches compared",
    )


# --------------------------------------------------------------------------
# 4. Baseline and ranking oracles.
# --------------------------------------------------------------------------

def brute_force_knn(session_lists, n_items, lam):
    sets = [set(s) for s in session_lists]
    n = [sum(1 for st in sets if i in st) for i in range(n_items)]
    sim = np.zeros((n_items, n_items))
    for a in range(n_items):
        for b in range(n_items):
            if a == b:
                continue
            co = sum(1 for st in sets if a in st and b in st)
            sim[a, b] = co / (math.sqrt(n[a] * n[b]) + lam)
    return sim


def test_criterion_4_baseline_and_rank_oracles(capsys):
    rng = np.random.default_rng(4)
    session_lists = [
        list(rng.integers(50, size=rng.integers(2, 9))) for _ in range(400)
    ]
    store, vocab = store_from_lists(session_lists, n_items=50)

    model = itemknn_train(store, 50, lam=20.0, k=100)
    oracle = brute_force_knn(session_lists, 50, 20.0)
    knn_ok = np.array_equal(itemknn_score(model, np.arange(50)), oracle)

    # POP: order equals sort by (-count, index); S-POP: (-in-session count,
    # -global count, index).
    pop = pop_score(vocab)
    pop_order = np.lexsort((np.arange(50), -pop))
    pop_oracle = sorted(range(50), key=lambda i: (-vocab.popularity[i], i))
    pop_ok = pop_order.tolist() == pop_oracle

    prefix = [3, 7, 3, 12, 7, 3]
    sp = fed(SpopScorer(vocab), prefix)
    sp_order = np.lexsort((np.arange(50), -sp))
    in_sess = np.bincount(prefix, minlength=50)
    sp_oracle = sorted(
        range(50), key=lambda i: (-in_sess[i], -vocab.popularity[i], i)
    )
    spop_ok = sp_order.tolist() == sp_oracle

    rank_ok = True
    n_vec, length = 100_000, 12
    scores = rng.integers(0, 6, size=(n_vec, length)).astype(float)  # many ties
    targets = rng.integers(length, size=n_vec)
    for row, t in zip(scores, targets):
        got = rank_of(row, int(t))
        # sort oracle: descending sort placing the target last among equals
        order = sorted(range(length), key=lambda j: (-row[j], j == int(t)))
        if got != order.index(int(t)) + 1:
            rank_ok = False
            break
    ok = knn_ok and pop_ok and spop_ok and rank_ok
    report(
        capsys, 4, ok,
        f"itemknn exact vs O(n^2) oracle: {knn_ok}; pop sort oracle: {pop_ok}; "
        f"s-pop two-key sort oracle: {spop_ok}; rank_of vs full-sort oracle "
        f"on {n_vec} vectors: {rank_ok}",
    )


# --------------------------------------------------------------------------
# 5. Capacity: overfit a deterministic cycle to recall@1 = 1.0.
# --------------------------------------------------------------------------

def test_criterion_5_overfit_deterministic_cycle(capsys):
    rng = np.random.default_rng(0)
    session_lists = []
    for _ in range(200):
        start = int(rng.integers(10))
        length = int(rng.integers(3, 9))
        session_lists.append([(start + j) % 10 for j in range(length)])
    store, vocab = store_from_lists(session_lists, n_items=10)
    t0 = time.time()
    hyper = HyperParams(
        hidden_size=16, batch_width=16, dropout_rate=0.0, learning_rate=0.1,
        loss_kind="top1", epochs=20, seed=1,
    )
    params = train_gru(store, vocab, hyper)
    rep = evaluate(GruScorer(params), store, k=1)
    elapsed = time.time() - t0
    ok = rep.recall == 1.0 and hyper.epochs <= 50 and elapsed < 60.0
    report(
        capsys, 5, ok,
        f"held-in recall@1 = {rep.recall:.4f} (need 1.0) after "
        f"{hyper.epochs} epochs in {elapsed:.1f}s (< 60s)",
    )


# --------------------------------------------------------------------------
# 6. Memory beyond the last click: GRU beats Item-KNN where only the
#    session's first item predicts the target.
# --------------------------------------------------------------------------

def test_criterion_6_memory_beyond_last_click(capsys):
    # 4th item is a deterministic function of the 1st; items 2-3 are noise.
    rng = np.random.default_rng(7)

    def gen(n_sess):
        out = []
        for _ in range(n_sess):
            key = int(rng.integers(5))
            z1, z2 = rng.integers(5, 25, 2)
            out.append([key, int(z1), int(z2), 25 + (key * 2) % 5])
        return out

    store, vocab = store_from_lists(gen(2000), n_items=30)
    test, _ = store_from_lists(gen(400), n_items=30)
    hyper = HyperParams(
        hidden_size=32, batch_width=32, dropout_rate=0.0, learning_rate=0.1,
        loss_kind="top1", epochs=15, seed=3,
    )
    params = train_gru(store, vocab, hyper)
    gru_rep = evaluate(GruScorer(params), test, k=1, track_positions=True)
    knn = itemknn_train(store, 30, lam=20.0, k=29)
    knn_rep = evaluate(ItemKnnScorer(knn), test, k=1, track_positions=True)
    gru_r = gru_rep.per_position[2][0]  # predicting the 4th item
    knn_r = knn_rep.per_position[2][0]
    margin = gru_r - knn_r
    ok = margin >= 0.3
    report(
        capsys, 6, ok,
        f"recall@1 at step 3: gru {gru_r:.3f} vs itemknn {knn_r:.3f}, "
        f"margin {margin:.3f} (need >= 0.3)",
    )


# --------------------------------------------------------------------------
# 7. First-order competence vs the analytic Bayes optimum.
# --------------------------------------------------------------------------

def markov_corpus(n_items=50, seed=11, n_train=4000, n_test=400, lo=3, hi=7):
    rng = np.random.default_rng(seed)
    trans = np.zeros((n_items, n_items))
    for i in range(n_items):
        succ = rng.choice(n_items, 4, replace=False)
        trans[i, succ[0]] = 0.7
        trans[i, succ[1:]] = 0.1

    def sample(m):
        out = []
        for _ in range(m):
            length = int(rng.integers(lo, hi))
            s = [int(rng.integers(n_items))]
            for _ in range(length - 1):
                s.append(int(rng.choice(n_items, p=trans[s[-1]])))
            out.append(s)
        return out

    return trans, sample(n_train), sample(n_test)


def test_criterion_7_first_order_competence(capsys):
    trans, train_lists, test_lists = markov_corpus()
    store, vocab = store_from_lists(train_lists, n_items=50)
    test, _ = store_from_lists(test_lists, n_items=50)
    bayes = float(np.mean(
        [trans[s[t]].max() for s in test_lists for t in range(len(s) - 1)]
    ))
    hyper = HyperParams(
        hidden_size=48, batch_width=32, dropout_rate=0.0, learning_rate=0.15,
        loss_kind="top1", epochs=15, seed=5,
    )
    params = train_gru(store, vocab, hyper)
    rep = evaluate(GruScorer(params), test, k=1)
    ratio = rep.recall / bayes
    ok = ratio >= 0.9
    report(
        capsys, 7, ok,
        f"gru recall@1 {rep.recall:.4f} vs analytic bayes {bayes:.4f}, "
        f"ratio {ratio:.3f} (need >= 0.90)",
    )


# --------------------------------------------------------------------------
# 8. Stability contrast at a hot learning rate.
# --------------------------------------------------------------------------

def test_criterion_8_stability_contrast(capsys):
    _, train_lists, _ = markov_corpus(n_train=600, n_test=1)
    store, vocab = store_from_lists(train_lists, n_items=50)
    diverged = {}
    for loss_kind in ("xent", "top1", "bpr"):
        count = 0
        for seed in range(20):
            hyper = HyperParams(
                hidden_size=24, batch_width=32, dropout_rate=0.0,
                learning_rate=0.5, loss_kind=loss_kind, epochs=3, seed=seed,
            )
            try:
                train_gru(store, vocab, hyper)
            except TrainingDiverged:
                # clean abort: a typed error naming the failure point, state
                # not silently corrupted
                count += 1
        diverged[loss_kind] = count

    # divergence must abort cleanly with a typed error; force it with a
    # pathological step size since lr=0.5 may stay finite under adagrad
    hot = HyperParams(
        hidden_size=24, batch_width=32, dropout_rate=0.0, learning_rate=1e30,
        loss_kind="xent", epochs=2, seed=0,
    )
    with pytest.raises(TrainingDiverged, match="non-finite"):
        train_gru(store, vocab, hot)

    ok = (diverged["xent"] >= diverged["top1"]
          and diverged["xent"] >= diverged["bpr"])
    report(
        capsys, 8, ok,
        f"non-finite runs out of 20 at lr=0.5: xent {diverged['xent']}, "
        f"top1 {diverged['top1']}, bpr {diverged['bpr']} "
        f"(need xent >= each pairwise loss); forced divergence aborts with "
        f"a typed error",
    )


# --------------------------------------------------------------------------
# 9. Determinism and serialization round-trip.
# --------------------------------------------------------------------------

def test_criterion_9_determinism_and_round_trip(capsys):
    rng = np.random.default_rng(2)
    session_lists = [
        list(rng.integers(15, size=rng.integers(2, 7))) for _ in range(80)
    ]
    store, vocab = store_from_lists(session_lists, n_items=15)
    hyper = HyperParams(
        hidden_size=8, batch_width=8, dropout_rate=0.3, learning_rate=0.05,
        loss_kind="bpr", epochs=3, seed=1234,
    )

    def train_bytes():
        params = train_gru(store, vocab, hyper)
        buf = io.BytesIO()
        save_model_file(gru_to_file(params, vocab), buf)
        return buf.getvalue()

    first, second = train_bytes(), train_bytes()
    identical = first == second

    mf = load_model_file(io.BytesIO(first))
    buf = io.BytesIO()
    save_model_file(gru_to_file(gru_from_file(mf), mf.vocab), buf)
    round_trip = buf.getvalue() == first
    ok = identical and round_trip
    report(
        capsys, 9, ok,
        f"same-seed retrains byte-identical: {identical} "
        f"({len(first)} bytes); load/save round-trip bit-exact: {round_trip}",
    )
