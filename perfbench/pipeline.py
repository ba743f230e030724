"""The three workloads, the pipeline every workload runs, its checks and metrics.

Each workload runs the same phases on its own corpus and GRU configuration.
Set-ups, training calls and fits are interleaved: ``TRAIN_CALLS`` times a
set-up and a training call, and a fit before each of the steps (training
calls, then serving rounds) that the workload's ``fit_before`` names.

  setup      CSV -> data.read_events_csv -> data.ingest_events ->
             data.split_train_test -> init_network -> model save/load
  train      one epoch over a fixed training store, in ``TRAIN_CALLS``
             training.train_gru calls on consecutive parts of it, each
             continuing the previous call's parameters
  fit        POP, S-POP, BPR-MF and, where the workload says so, Item-KNN
  modelio    the trained GRU saved to disk, loaded, saved again
  serve      in rounds: evaluate() for every model on a share of the test
             sessions, then a share of the recommend requests, sent back to
             back by one client (a closed loop) through
             sessrec.cli.main(["recommend", ..., "-"]) in process; the
             requests are every prefix of leading test sessions, the
             prefixes that evaluate() ranks, and each is sent twice, in
             rounds half the serving time apart

setup_s, train_events_per_s and fit_s are the medians of those set-ups,
calls and fits.

The amount of work is fixed by the seed and ``--seconds`` (at 10 s an
untraced run takes 30 to 50 s on a 2-core box), so a traced and an untraced
run of the same seed do identical work and train identical models.

With ``trace`` set, names that the sessrec modules call are rebound to
wrappers that record a span per call; sessrec itself is not changed.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import io
import logging
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import corpus
from tracer import END, NAME, START, Tracer, duration, self_times

BPRMF_EPOCHS = 2
TOPK = 20
CUTOFF = 20
MIN_REQUESTS = 1100  # p99 of 1100 samples leaves 11 beyond it
UNKNOWN_TOKEN_P = 0.05  # an assumption: no cited source gives this share
CHECK_EVERY = 10  # every 10th request is checked against an independent top-k
MODELS = ("gru", "pop", "spop", "itemknn", "bprmf")
PHASES = ("setup", "train", "modelio", "fit", "serve")
SERVE_ROUNDS = 8
TRAIN_CALLS = 4  # train_events_per_s: median of the rates of 4 train_gru calls
EVERY_STEP = tuple(range(TRAIN_CALLS + SERVE_ROUNDS))
# At the default 0.01 the one-hot GRUs learn little in one short epoch (on
# serve-10k recall@20 0.21-0.28, POP 0.39-0.43); at 0.05 their MRR@20 passes POP's.
ONE_HOT_LR = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    n_items: int
    n_sessions: int
    hyper: dict
    train_pairs: int  # pairs trained at --seconds 10
    fit_pairs: int  # pairs the baselines are fitted on at --seconds 10
    eval_cases: int  # cases per model at --seconds 10
    requests: int  # at --seconds 10
    itemknn: bool
    # Steps (0 to TRAIN_CALLS - 1: training calls; then the serving rounds)
    # that a fit of the baselines precedes; one of them precedes the rounds.
    fit_before: tuple[int, ...]


# Why each workload exists, and what it bypasses, is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-37k",
            n_items=37_483, n_sessions=24_000,
            hyper=dict(loss_kind="top1", optimizer_kind="adagrad", learning_rate=ONE_HOT_LR),
            train_pairs=6000, fit_pairs=6000, eval_cases=600, requests=MIN_REQUESTS,
            itemknn=False, fit_before=EVERY_STEP,
        ),
        Workload(
            "train-10k-dsum",
            n_items=10_000, n_sessions=6_500,
            hyper=dict(input_mode="discounted_sum", input_decay=0.8, loss_kind="xent",
                       optimizer_kind="rmsprop", momentum=0.3),
            train_pairs=7000, fit_pairs=7000, eval_cases=1000, requests=MIN_REQUESTS,
            itemknn=False, fit_before=EVERY_STEP,
        ),
        Workload(
            "serve-10k",
            n_items=10_000, n_sessions=8_000,
            hyper=dict(loss_kind="top1", optimizer_kind="adagrad", learning_rate=ONE_HOT_LR),
            train_pairs=16000, fit_pairs=8000, eval_cases=2000, requests=2000,
            itemknn=True, fit_before=(1, 2, 3, 8),  # an Item-KNN fit takes about 4 s
        ),
    )
}


@dataclass
class Ops:
    """Operations attempted and failed, with a reason per failed group."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, n: int, failed: int = 0, problem: str | None = None) -> None:
        self.attempted += n
        self.failed += failed
        if problem:
            self.problems.append(problem)


def settle() -> None:
    """Collect garbage and freeze what survives.

    The cyclic collector then scans only objects made since, so a pause inside
    a timed call scales with that call's own objects, as in a process that
    runs only that call, not with the benchmark's corpus and bookkeeping.
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prefix_by_pairs(sessions, n_pairs: int):
    """Leading sessions until they hold at least ``n_pairs`` (input, target) pairs."""
    out, total = [], 0
    for s in sessions:
        if total >= n_pairs:
            break
        out.append(s)
        total += len(s) - 1
    return out


def split_chunks(sessions, n_chunks: int):
    """Consecutive runs of sessions with about equal pair counts."""
    total = sum(len(s) - 1 for s in sessions)
    chunks, cur, acc = [], [], 0
    for s in sessions:
        cur.append(s)
        acc += len(s) - 1
        if acc * n_chunks >= total * (len(chunks) + 1) and len(chunks) < n_chunks - 1:
            chunks.append(cur)
            cur = []
    chunks.append(cur)
    return [c for c in chunks if c]


def make_requests(sessions, vocab_items, seed: int):
    """Every prefix of each session that evaluate() ranks (lengths 1 to len - 1).

    Before each known token an out-of-vocabulary id is inserted with
    probability ``UNKNOWN_TOKEN_P``; it stays in the session's longer prefixes.
    Returns the request lines and the number of unknown tokens they hold.
    """
    rng = np.random.default_rng([seed, 1])
    requests, n_unknown = [], 0
    for sess in sessions:
        tokens, unknown = [], 0
        for i in sess.items[:-1].tolist():
            if rng.random() < UNKNOWN_TOKEN_P:
                tokens.append(f"unknown{int(rng.integers(1_000_000))}")
                unknown += 1
            tokens.append(vocab_items[i])
            requests.append(" ".join(tokens) + "\n")
            n_unknown += unknown
    return requests, n_unknown


class _Stdin:
    """Feeds request lines to the CLI; a request starts when its line is read."""

    def __init__(self, lines, tracer: Tracer):
        self._it = iter(lines)
        self._tracer = tracer
        self.spans: list[int] = []  # one per request; the last is being served

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._it)
        self.spans.append(self._tracer.open("cli.recommend.request"))
        return line


class _Lines:
    """A text stream that keeps complete lines and calls ``on_line`` after each."""

    def __init__(self, on_line=None):
        self.lines: list[str] = []
        self._buf: list[str] = []
        self._on_line = on_line

    def write(self, text: str) -> int:
        self._buf.append(text)
        if text.endswith("\n"):
            if self._on_line is not None:
                self._on_line()
            self.lines.extend("".join(self._buf).splitlines())
            self._buf = []
        return len(text)

    def flush(self) -> None:
        pass


def install_tracing(tracer: Tracer, counts: dict) -> None:
    """Rebind the names that sessrec's modules call, so each call makes a span.

    Modules import these names by value, so they are rebound in the calling
    module. The package attribute ``sessrec.evaluate`` is the re-exported
    function, not the submodule, so modules are fetched with importlib.
    """
    training = importlib.import_module("sessrec.training")
    evaluation = importlib.import_module("sessrec.evaluate")
    cli = importlib.import_module("sessrec.cli")

    class TracedBatcher(training.SessionBatcher):
        def __next__(self):
            sid = tracer.open("data.batcher")
            try:
                batch = super().__next__()
            finally:
                tracer.close(sid)
            counts["batcher.steps"] += 1
            counts["batcher.narrow"] += batch.width < 2
            return batch

    backward = tracer.wrap("gru.backward_step", training.backward_step)

    def traced_backward(*args, **kwargs):
        grads = backward(*args, **kwargs)
        counts["backward.grad_bytes"] += sum(g.nbytes for g in grads.values())
        return grads

    def traced_update(name, fn):
        wrapped = tracer.wrap(name, fn)

        def update(param, grad, *args, **kwargs):
            wrapped(param, grad, *args, **kwargs)
            # after the update, so that this scan does not warm the caches for
            # it; its span keeps it out of every layer's self time
            with tracer.span("trace.count"):
                g = np.asarray(grad)
                counts["optim.rows_passed"] += 1 if g.ndim == 1 else g.shape[0]
                counts["optim.rows_nonzero"] += int(
                    np.count_nonzero(g) if g.ndim == 1 else np.any(g != 0.0, axis=-1).sum()
                )

        return update

    tracer.patch(training, "SessionBatcher", TracedBatcher)
    tracer.patch(training, "forward_step", tracer.wrap("gru.forward_step", training.forward_step))
    tracer.patch(training, "backward_step", traced_backward)
    tracer.patch(training, "adagrad_update", traced_update("optim.update", training.adagrad_update))
    tracer.patch(training, "rmsprop_update", traced_update("optim.update", training.rmsprop_update))
    tracer.patch(training, "LOSSES",
                 {k: tracer.wrap("losses", fn) for k, fn in training.LOSSES.items()})
    tracer.patch(evaluation, "rank_of", tracer.wrap("evaluate.rank_of", evaluation.rank_of))
    tracer.patch(evaluation, "forward_step",
                 tracer.wrap("gru.forward_step", evaluation.forward_step))
    tracer.patch(evaluation, "score_all", tracer.wrap("gru.score_all", evaluation.score_all))
    for cls_name in ("GruScorer", "PopScorer", "SpopScorer", "ItemKnnScorer", "BprMfScorer"):
        cls = getattr(cli, cls_name)
        tracer.patch(cli, cls_name,
                     type(cls_name, (cls,), {"step": tracer.wrap("cli.scorer.step", cls.step)}))


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Run one workload; returns the result record (metrics, checks, phase times)."""
    from sessrec import cli, data, modelio
    from sessrec.baselines import bprmf_train, itemknn_train
    from sessrec.evaluate import (BprMfScorer, GruScorer, ItemKnnScorer, PopScorer,
                                  SpopScorer, evaluate)
    from sessrec.gru import HyperParams, init_network
    from sessrec.training import train_gru

    scale = seconds / 10.0
    tracer = Tracer()
    counts = {k: 0 for k in ("batcher.steps", "batcher.narrow", "backward.grad_bytes",
                             "optim.rows_passed", "optim.rows_nonzero")}
    ops = Ops()
    rss = {}
    os.makedirs(workdir, exist_ok=True)
    # The CLI configures logging on its first call; do it here so the handler
    # writes to the real stderr, not to a stream the benchmark swaps in.
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    hyper = HyperParams(epochs=1, **w.hyper)

    sessions, n_train = corpus.generate(w.n_items, w.n_sessions, seed)
    csv_path = os.path.join(workdir, "corpus.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        f.write(corpus.to_csv(sessions))
    boundary = corpus.session_start_ms(n_train)
    del sessions

    def set_up():
        """One set-up: the CSV into train and test stores, a new GRU, its save/load check."""
        settle()
        with tracer.span("phase.setup"), tracer.span("setup.rep"):
            with tracer.span("data.read_events_csv"), \
                    open(csv_path, encoding="utf-8", newline="") as f:
                events = data.read_events_csv(f)
            with tracer.span("data.ingest_events"):
                store, vocab = data.ingest_events(events)
            with tracer.span("data.split_train_test"):
                train, vocab, test = data.split_train_test(store, vocab, boundary)
            del events, store
            with tracer.span("gru.init_network"):
                params = init_network(len(vocab), hyper)
            ok = roundtrip(tracer, "modelio", modelio.gru_to_file(params, vocab), modelio)
        ops.add(1, not ok, None if ok else "initial GRU save/load/save differs")
        ok = len(vocab) == w.n_items
        ops.add(1, not ok, None if ok else f"len(vocab) = {len(vocab)}, expected {w.n_items}")
        return train, vocab, test, params

    def fit(scorers, fit_store, vocab):
        """One fit of the baselines into ``scorers``; returns the fitted models."""
        for model in ("pop", "spop", "itemknn", "bprmf"):
            scorers.pop(model, None)  # frees the previous fit's models first
        settle()
        knn = None
        with tracer.span("phase.fit"), tracer.span("fit.rep"):
            with tracer.span("baselines.pop"):
                scorers["pop"] = PopScorer(vocab)
            with tracer.span("baselines.spop"):
                scorers["spop"] = SpopScorer(vocab)
            if w.itemknn:
                with tracer.span("baselines.itemknn_train"):
                    knn = itemknn_train(fit_store, len(vocab))
                scorers["itemknn"] = ItemKnnScorer(knn)
            with tracer.span("baselines.bprmf_train"):
                bpr = bprmf_train(fit_store, len(vocab), epochs=BPRMF_EPOCHS)
            scorers["bprmf"] = BprMfScorer(bpr)
        if trace:
            for model, scorer in scorers.items():
                if model != "gru":
                    scorer.step = tracer.wrap(f"evaluate.{model}.step", scorer.step)
        return knn, bpr

    def fit_before(step):
        """The fit, if any, that the workload runs before ``step``."""
        if step not in w.fit_before:
            return
        models = fit(scorers, fit_store, vocab)
        if "fit" not in rss:
            rss["fit"] = peak_rss_mb()
            check_baseline_files(tracer, ops, modelio, vocab, *models)

    if trace:
        install_tracing(tracer, counts)
    try:
        train_rates, train_steps, scorers = [], 0, {}
        # --- build: set-ups, training calls and fits, interleaved ---------
        # The GRU trains one epoch over its store in TRAIN_CALLS calls on
        # consecutive parts of it, each continuing the previous call's
        # parameters. A set-up runs before each call (the first one's stores
        # and GRU are used, the others are dropped), and fits sit between the
        # calls and the serving rounds. The samples behind setup_s,
        # train_events_per_s and fit_s then each span much of the run, so a
        # slow stretch of a shared host, which lasts seconds, weighs on a few
        # samples of each metric rather than on every sample of one.
        for k in range(TRAIN_CALLS):
            made = set_up()
            if k == 0:
                train, vocab, test, params = made
                rss["setup"] = peak_rss_mb()
                train_store = data.SessionStore(
                    prefix_by_pairs(train.ordered(), round(w.train_pairs * scale)))
                fit_store = data.SessionStore(
                    prefix_by_pairs(train.ordered(), round(w.fit_pairs * scale)))
                eval_sessions = prefix_by_pairs(test.ordered(), round(w.eval_cases * scale))
                request_sessions = prefix_by_pairs(
                    test.ordered(), max(MIN_REQUESTS, round(w.requests * scale)))
                train_parts = [data.SessionStore(c)
                               for c in split_chunks(train_store.ordered(), TRAIN_CALLS)]
            made = None  # a repeated set-up's stores and GRU go before training

            fit_before(k)
            part = train_parts[k]
            steps = sum(b.width >= 2 for b in data.SessionBatcher(part, hyper.batch_width))
            train_steps += steps
            settle()
            with tracer.span("phase.train"):
                try:
                    with tracer.span("training.train_gru") as sid:
                        params = train_gru(part, vocab, hyper, params=params)
                    train_rates.append(part.n_pairs / duration(tracer.spans[sid]))
                    finite = all(np.isfinite(p).all() for _, p in params.named_params())
                    ops.add(steps, 0 if finite else steps,
                            None if finite else "non-finite GRU parameters after training")
                except Exception as exc:  # noqa: BLE001 -- counted as failed operations
                    ops.add(steps, steps, f"train_gru raised {exc!r}")
            if k == 0:
                rss["train"] = peak_rss_mb()

        # --- modelio: the trained GRU through the on-disk format ----------
        model_path = os.path.join(workdir, "gru.model")
        with tracer.span("phase.modelio"):
            gru_file = modelio.gru_to_file(params, vocab)
            with tracer.span("modelio.save"), open(model_path, "wb") as f:
                modelio.save_model_file(gru_file, f)
            with tracer.span("modelio.load"), open(model_path, "rb") as f:
                loaded = modelio.load_model_file(f)
            again = io.BytesIO()
            modelio.save_model_file(loaded, again)
            with open(model_path, "rb") as f:
                ok = f.read() == again.getvalue()
            ops.add(1, not ok, None if ok else "trained GRU file changes on save/load/save")
        file_mb = os.path.getsize(model_path) / 2**20
        rss["modelio"] = peak_rss_mb()

        # --- serving rounds ------------------------------------------------
        # Each round evaluates every model on a share of the test cases and
        # sends a share of the requests, so that the samples of each serving
        # metric span the whole serving time.
        requests, n_unknown = make_requests(request_sessions, vocab.items, seed)
        n_requests = len(requests)
        eval_chunks = [data.SessionStore(c) for c in split_chunks(eval_sessions, SERVE_ROUNDS)]
        request_batches = [requests[r::SERVE_ROUNDS] for r in range(SERVE_ROUNDS)]
        scorers["gru"] = GruScorer(params)
        if trace:
            scorers["gru"].step = tracer.wrap("evaluate.gru.step", scorers["gru"].step)
        quality = {model: Quality() for model in MODELS}
        eval_rates, sends = [], {}
        for r, chunk in enumerate(eval_chunks):
            fit_before(TRAIN_CALLS + r)
            settle()
            with tracer.span("phase.serve"):
                round_cases, round_s = 0, 0.0
                for model, scorer in scorers.items():
                    want = chunk.n_pairs
                    try:
                        with tracer.span(f"evaluate.{model}") as sid:
                            rep = evaluate(scorer, chunk, k=CUTOFF)
                    except Exception as exc:  # noqa: BLE001 -- counted as failed operations
                        ops.add(want, want, f"evaluate({model}) raised {exc!r}")
                        continue
                    round_cases += rep.n_cases
                    round_s += duration(tracer.spans[sid])
                    problem = check_report(rep, want)
                    ops.add(want, want if problem else 0,
                            f"{model}: {problem}" if problem else None)
                    quality[model].add(rep)
                if round_s:
                    eval_rates.append(round_cases / round_s)
                for b in (r, (r + SERVE_ROUNDS // 2) % SERVE_ROUNDS):
                    sends.setdefault(b, []).append(
                        recommend(cli, tracer, model_path, request_batches[b]))
        rss["serve"] = peak_rss_mb()
        del scorers
    finally:
        tracer.restore()
        gc.unfreeze()
        for s in tracer.spans:
            if s[END] is None:
                s[END] = time.perf_counter()
    # Each request was sent twice, half the serving time apart; its latency
    # is the faster send, which keeps what the program does on every send but
    # not a hiccup of the shared host that hit one of them.
    served, out_lines, err_lines, exit_codes, latencies = [], [], [], [], []
    for b, (first, second) in sorted(sends.items()):
        served.extend(request_batches[b])
        exit_codes.append(first[0])
        out_lines.extend(first[1])
        err_lines.extend(first[2])
        latencies += [min(duration(tracer.spans[i]), duration(tracer.spans[j])) * 1e3
                      for i, j in zip(first[3], second[3])]
        same = first[:3] == second[:3]
        ops.add(len(request_batches[b]), 0 if same else len(request_batches[b]),
                None if same else f"second send of request batch {b} answered differently")
    # after restore(), so the check's own scoring makes no spans
    failed, problems = check_recommend(
        exit_codes, served, out_lines, err_lines, n_unknown, model_path)
    ops.add(n_requests, failed, "; ".join(problems[:3]) if problems else None)

    idx = SpanIndex(tracer.spans)
    reports = {m: q for m, q in quality.items() if q.n_cases}
    gru = reports.get("gru")
    result = {
        "hyper": w.hyper,
        "end_to_end": end_to_end_metrics(idx, train_rates, eval_rates, latencies),
        # deterministic for a seed, so printed and recorded but not bounded
        "quality": {"recall_at_20": (gru.recall if gru else math.nan, "ratio"),
                    "mrr_at_20": (gru.mrr if gru else math.nan, "ratio")},
        "counts": {
            "train_pairs": train_store.n_pairs,
            "fit_pairs": fit_store.n_pairs,
            "train_steps": train_steps,
            "eval_cases_per_model": sum(c.n_pairs for c in eval_chunks),
            "recommend_requests": n_requests,
            "unknown_tokens_sent": n_unknown,
        },
        "phase_s": {p: idx.total(f"phase.{p}") for p in PHASES},
        "samples": {
            "setup_s": idx.durations("setup.rep"),
            "train_events_per_s": train_rates,
            "fit_s": idx.durations("fit.rep"),
            "eval_round_cases_per_s": eval_rates,
        },
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": ops.problems,
    }
    if trace:
        result["per_layer"] = per_layer_metrics(idx, counts, reports, rss, file_mb,
                                                unknown_warnings(err_lines))
        tracer.dump(os.path.join(workdir, "spans.jsonl"))
    return result


@dataclass
class Quality:
    """Recall and MRR pooled over several evaluate() reports."""

    hits: int = 0
    rr_sum: float = 0.0
    n_cases: int = 0

    def add(self, rep) -> None:
        self.hits += round(rep.recall * rep.n_cases)
        self.rr_sum += rep.mrr * rep.n_cases
        self.n_cases += rep.n_cases

    @property
    def recall(self) -> float:
        return self.hits / self.n_cases

    @property
    def mrr(self) -> float:
        return self.rr_sum / self.n_cases


def recommend(cli, tracer: Tracer, model_path: str, requests):
    """One in-process ``sessrec recommend`` call fed ``requests`` through stdin.

    Returns the exit code, the stdout and stderr lines and the span of each
    request, which runs from the read of its input line to the write of its
    output line.
    """
    stdin = _Stdin(requests, tracer)
    stdout, stderr = _Lines(lambda: tracer.close(stdin.spans[-1])), _Lines()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
    try:
        rc = cli.main(["recommend", "--model", model_path, "--topk", str(TOPK), "-"])
    except SystemExit as exc:
        rc = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, stdout.lines, stderr.lines, stdin.spans


def check_baseline_files(tracer: Tracer, ops: Ops, modelio, vocab, knn, bpr) -> None:
    """Every fitted baseline's model file through save -> load -> save."""
    files = [("pop", modelio.baseline_to_file("pop", vocab)),
             ("spop", modelio.baseline_to_file("spop", vocab)),
             ("bprmf", modelio.bprmf_to_file(bpr, vocab))]
    if knn is not None:
        files.append(("itemknn", modelio.itemknn_to_file(knn, vocab)))
    for kind, mf in files:
        ok = roundtrip(tracer, f"modelio.{kind}", mf, modelio)
        ops.add(1, not ok, None if ok else f"{kind} save/load/save differs")


def roundtrip(tracer: Tracer, label: str, mf, modelio) -> bool:
    """save -> load -> save in memory; true when both saves are byte-identical."""
    first, second = io.BytesIO(), io.BytesIO()
    with tracer.span(f"{label}.save"):
        modelio.save_model_file(mf, first)
    first.seek(0)
    with tracer.span(f"{label}.load"):
        loaded = modelio.load_model_file(first)
    modelio.save_model_file(loaded, second)
    return loaded.kind == mf.kind and first.getvalue() == second.getvalue()


def check_report(rep, expected_cases: int) -> str | None:
    if rep.n_cases != expected_cases:
        return f"n_cases {rep.n_cases} != {expected_cases} test pairs"
    if not (math.isfinite(rep.recall) and math.isfinite(rep.mrr)):
        return f"non-finite recall {rep.recall} or mrr {rep.mrr}"
    if not (0.0 <= rep.mrr <= rep.recall <= 1.0):
        return f"expected 0 <= mrr ({rep.mrr}) <= recall ({rep.recall}) <= 1"
    return None


def unknown_warnings(err_lines) -> int:
    return sum(line.startswith("warning: skipping unknown item id") for line in err_lines)


def check_recommend(exit_codes, requests, out_lines, err_lines, n_unknown, model_path):
    """Failed request count and reasons for the CLI recommend calls of a run."""
    from sessrec import modelio
    from sessrec.evaluate import GruScorer

    n = len(requests)
    if any(rc != 0 for rc in exit_codes):
        return n, [f"recommend exited {exit_codes}: {err_lines[-1:]}"]
    if len(out_lines) != n:
        return n, [f"{len(out_lines)} output lines for {n} requests"]
    problems = []
    warned = unknown_warnings(err_lines)
    if warned != n_unknown:
        problems.append(f"{warned} unknown-id warnings for {n_unknown} unknown tokens")
    with open(model_path, "rb") as f:
        mf = modelio.load_model_file(f)
    params = modelio.gru_from_file(mf)
    failed = 0
    for r, (req, line) in enumerate(zip(requests, out_lines)):
        fields = line.split("\t")
        items, scores = fields[0::2], fields[1::2]
        problem = None
        try:
            values = [float(s) for s in scores]
        except ValueError:
            values = [math.nan]
        if len(fields) != 2 * TOPK or len(items) != len(scores):
            problem = f"request {r}: {len(fields)} fields, expected {2 * TOPK}"
        elif len(set(items)) != TOPK or any(i not in mf.vocab.index for i in items):
            problem = f"request {r}: ids not distinct or not in the vocabulary"
        elif not all(math.isfinite(v) for v in values):
            problem = f"request {r}: non-finite score"
        elif any(b > a for a, b in zip(values, values[1:])):
            problem = f"request {r}: scores increase"
        elif r % CHECK_EVERY == 0:
            scorer = GruScorer(params)
            for tok in req.split():
                if tok in mf.vocab.index:
                    s = scorer.step(mf.vocab.index[tok])
            top = np.argsort(-s, kind="stable")[:TOPK]  # score desc, index asc
            want = [x for i in top for x in (mf.vocab.items[i], f"{s[i]:.6g}")]
            if fields != want:
                problem = f"request {r}: top-{TOPK} differs from an independent ranking"
        if problem:
            failed += 1
            problems.append(problem)
    return failed, problems


class SpanIndex:
    """Spans by name, optionally only those inside spans of another name."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self._by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self._by_name.setdefault(s[NAME], []).append(i)
        self._self: list[float] | None = None

    def ids(self, name: str, inside: str | None = None) -> list[int]:
        """Spans called ``name``, only those within an ``inside`` span if given."""
        ids = self._by_name.get(name, [])
        if inside is None:
            return ids
        outer = sorted((self.spans[i][START], self.spans[i][END])
                       for i in self._by_name.get(inside, []))
        starts = [a for a, _ in outer]
        keep = []
        for i in ids:
            k = bisect.bisect_right(starts, self.spans[i][START]) - 1
            if k >= 0 and self.spans[i][END] <= outer[k][1]:
                keep.append(i)
        return keep

    def durations(self, name: str, inside: str | None = None) -> list[float]:
        return [duration(self.spans[i]) for i in self.ids(name, inside)]

    def total(self, name: str, inside: str | None = None) -> float:
        return sum(self.durations(name, inside))

    def self_total(self, name: str) -> float:
        if self._self is None:
            self._self = self_times(self.spans)
        return sum(self._self[i] for i in self.ids(name))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(q / 100.0 * len(v)) - 1)]


def end_to_end_metrics(idx: SpanIndex, train_rates, eval_rates, latencies) -> dict:
    nan = float("nan")
    return {
        "setup_s": (statistics.median(idx.durations("setup.rep")), "s"),
        "train_events_per_s": (statistics.median(train_rates) if train_rates else nan, "1/s"),
        "fit_s": (statistics.median(idx.durations("fit.rep")), "s"),
        "eval_cases_per_s": (statistics.median(eval_rates) if eval_rates else nan, "1/s"),
        "recommend_p50_ms": (percentile(latencies, 50) if latencies else nan, "ms"),
        "recommend_p99_ms": (percentile(latencies, 99) if latencies else nan, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(idx: SpanIndex, counts, reports, rss, file_mb, unknown_warnings) -> dict:
    def per(total, n, unit=1e3):
        return total * unit / n if n else 0.0

    m = {}
    for layer in ("read_events_csv", "ingest_events", "split_train_test"):
        m[f"data.{layer}.ms"] = (statistics.median(idx.durations(f"data.{layer}")) * 1e3, "ms")
    steps = counts["batcher.steps"]
    n_backward = len(idx.ids("gru.backward_step", "phase.train"))
    m["data.batcher.ms_per_step"] = (per(idx.total("data.batcher", "phase.train"), steps), "ms")
    m["data.batcher.steps"] = (steps, "count")
    m["data.batcher.narrow_skipped"] = (counts["batcher.narrow"], "count")
    fwd = idx.durations("gru.forward_step", "phase.train")
    m["gru.forward_step.ms_per_step"] = (per(sum(fwd), len(fwd)), "ms")
    m["gru.backward_step.ms_per_step"] = (
        per(idx.total("gru.backward_step", "phase.train"), n_backward), "ms")
    m["gru.backward_step.grad_mb_per_step"] = (
        per(counts["backward.grad_bytes"], n_backward, 1 / 2**20), "MB")
    score_all = idx.durations("gru.score_all")
    n_req = len(idx.ids("cli.recommend.request"))
    served = len(idx.ids("gru.score_all", "cli.recommend.request"))
    m["gru.score_all.ms_per_call"] = (per(sum(score_all), len(score_all)), "ms")
    m["gru.score_all.calls"] = (len(score_all), "count")
    m["gru.score_all.used_ratio"] = (n_req / served if served else 0.0, "ratio")
    # one metric for whichever loss the workload trains with (hyper.loss_kind)
    ls = idx.durations("losses", "phase.train")
    m["losses.ms_per_step"] = (per(sum(ls), len(ls)), "ms")
    m["optim.update.ms_per_step"] = (per(idx.total("optim.update", "phase.train"), n_backward), "ms")
    m["optim.rows_updated_ratio"] = (
        per(counts["optim.rows_nonzero"], counts["optim.rows_passed"], 1), "ratio")
    # trace.count spans are children of train_gru, so they leave its self time
    m["training.self_ms_per_step"] = (per(idx.self_total("training.train_gru"), steps), "ms")

    eval_self, eval_cases = 0.0, 0
    for model in MODELS:
        rep = reports.get(model)
        cases = rep.n_cases if rep else 0
        step = idx.durations(f"evaluate.{model}.step")
        m[f"evaluate.{model}.cases_per_s"] = (per(cases, idx.total(f"evaluate.{model}"), 1),
                                              "1/s")
        m[f"evaluate.{model}.step_ms_per_call"] = (per(sum(step), len(step)), "ms")
        m[f"evaluate.{model}.recall_at_20"] = (rep.recall if rep else 0.0, "ratio")
        m[f"evaluate.{model}.mrr_at_20"] = (rep.mrr if rep else 0.0, "ratio")
        if rep:
            eval_self += idx.self_total(f"evaluate.{model}")
            eval_cases += cases
    rank = idx.durations("evaluate.rank_of")
    m["evaluate.rank_of.ms_per_call"] = (per(sum(rank), len(rank)), "ms")
    m["evaluate.self_ms_per_case"] = (per(eval_self, eval_cases), "ms")

    for fit in ("itemknn_train", "bprmf_train"):
        times = idx.durations(f"baselines.{fit}")
        m[f"baselines.{fit}.s"] = (statistics.median(times) if times else 0.0, "s")
    for phase in PHASES:
        m[f"peak_rss_mb.after_{phase}"] = (rss[phase], "MB")
    m["modelio.save.ms"] = (statistics.median(idx.durations("modelio.save")) * 1e3, "ms")
    m["modelio.load.ms"] = (statistics.median(idx.durations("modelio.load")) * 1e3, "ms")
    m["modelio.file_mb"] = (file_mb, "MB")
    m["cli.recommend.self_ms_per_request"] = (
        per(idx.self_total("cli.recommend.request"), n_req), "ms")
    m["cli.recommend.unknown_tokens"] = (unknown_warnings, "count")
    m["trace.spans"] = (len(idx.spans), "count")
    return m
