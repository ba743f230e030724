"""Command-line interface: prepare / train / baseline / evaluate / recommend.

Diagnostics go to stderr, data to stdout; every command exits 0 on success.
A flat ``key = value`` config file can supply defaults for any flag; flags
given on the command line win.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import baselines, data, modelio, training
# "from . import evaluate" would resolve to the evaluate() function re-exported
# by the package __init__, not the submodule, so import the module explicitly.
from .evaluate import (
    BprMfScorer,
    GruScorer,
    ItemKnnScorer,
    PopScorer,
    SessionScorer,
    SpopScorer,
    evaluate as run_evaluation,
    top_k,
)
from .gru import HyperParams

logger = logging.getLogger("sessrec")

DAY_MS = 86_400_000


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise data.DataFormatError(f"config line {line_no}: expected key = value")
            key, _, value = line.partition("=")
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset flags from the config file; explicit flags take priority."""
    if not getattr(args, "config", None):
        return
    cfg = _read_config(args.config)
    for key, value in cfg.items():
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue
        setattr(args, key, value)


def _data_path(path: str) -> str:
    if os.path.isabs(path) or os.path.exists(path):
        return path
    base = os.environ.get("SESSREC_DATA_DIR")
    if base:
        cand = os.path.join(base, path)
        if os.path.exists(cand):
            return cand
    return path


def _load_store(path: str, max_len: int = data.DEFAULT_MAX_SESSION_LEN,
                iso_time: bool = False):
    with open(_data_path(path), encoding="utf-8", newline="") as f:
        events = data.read_events_csv(f, iso_time=iso_time)
    return data.ingest_events(events, max_session_len=max_len)


def _store_with_vocab(path: str, vocab: data.ItemVocab):
    """Read a test CSV and index it against an existing (train) vocabulary."""
    with open(_data_path(path), encoding="utf-8", newline="") as f:
        events = data.read_events_csv(f)
    by_session: dict[str, list[data.Event]] = {}
    for e in events:
        by_session.setdefault(e.session_id, []).append(e)
    sessions = []
    skipped_items = 0
    for sid, evs in sorted(by_session.items(), key=lambda kv: (kv[1][0].timestamp, kv[0])):
        evs.sort(key=lambda e: e.timestamp)
        idx, times = [], []
        for e in evs:
            i = vocab.index.get(e.item_id)
            if i is None:
                skipped_items += 1
                continue
            idx.append(i)
            times.append(e.timestamp)
        if len(idx) >= 2:
            sessions.append(
                data.Session(sid, np.asarray(idx, dtype=np.int64),
                             np.asarray(times, dtype=np.int64))
            )
    if skipped_items:
        logger.warning("dropped %d events with items unknown to the model vocabulary",
                       skipped_items)
    return data.SessionStore(sessions)


def cmd_prepare(args) -> int:
    store, vocab = _load_store(args.input, max_len=int(args.max_session_len),
                               iso_time=args.iso_time)
    if len(store) == 0:
        print("error: no usable sessions in input", file=sys.stderr)
        return 1
    if args.split_time is not None:
        boundary = int(args.split_time)
    else:
        last = max(s.times.max() for s in store)
        boundary = int(last) - int(args.split_last_days) * DAY_MS + 1
    train, train_vocab, test = data.split_train_test(store, vocab, boundary)
    if len(train) == 0 or len(test) == 0:
        print(f"error: empty partition (train={len(train)}, test={len(test)} sessions)",
              file=sys.stderr)
        return 1
    out_train, out_test = args.out
    with open(out_train, "w", encoding="utf-8", newline="") as f:
        data.write_sessions_csv(train, train_vocab, f)
    with open(out_test, "w", encoding="utf-8", newline="") as f:
        data.write_sessions_csv(test, train_vocab, f)
    print(f"train_sessions={len(train)}\ttrain_events={train.n_events}\t"
          f"train_items={len(train_vocab)}")
    print(f"test_sessions={len(test)}\ttest_events={test.n_events}")
    return 0


def _hyper_from_args(args) -> HyperParams:
    return HyperParams(
        hidden_size=int(args.hidden if args.hidden is not None else 100),
        n_layers=int(args.layers if args.layers is not None else 1),
        batch_width=int(args.batch if args.batch is not None else 50),
        dropout_rate=float(args.dropout if args.dropout is not None else 0.5),
        learning_rate=float(args.lr if args.lr is not None else 0.01),
        momentum=float(args.momentum if args.momentum is not None else 0.0),
        loss_kind=args.loss or "top1",
        optimizer_kind=args.optimizer or "adagrad",
        rmsprop_decay=float(args.rmsprop_decay if args.rmsprop_decay is not None else 0.9),
        epochs=int(args.epochs if args.epochs is not None else 10),
        seed=int(args.seed if args.seed is not None else 42),
        input_mode=args.input_mode or "one_hot",
        input_decay=float(args.input_decay if args.input_decay is not None else 1.0),
        deep_input=bool(args.deep_input),
        use_bias=bool(args.bias),
        init_scale=float(args.init_scale) if args.init_scale is not None else None,
    )


def cmd_train(args) -> int:
    hyper = _hyper_from_args(args)
    store, vocab = _load_store(args.data)
    if len(store) == 0:
        print("error: no usable sessions in input", file=sys.stderr)
        return 1
    try:
        params = training.train_gru(store, vocab, hyper)
    except training.TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1
    with open(args.model, "wb") as f:
        modelio.save_model_file(modelio.gru_to_file(params, vocab), f)
    print(f"model={args.model}\tkind=gru\titems={len(vocab)}")
    return 0


def cmd_baseline(args) -> int:
    store, vocab = _load_store(args.data)
    if len(store) == 0:
        print("error: no usable sessions in input", file=sys.stderr)
        return 1
    kind = args.kind
    if kind in ("pop", "spop"):
        mf = modelio.baseline_to_file(kind, vocab)
    elif kind == "itemknn":
        try:
            model = baselines.itemknn_train(
                store, len(vocab), lam=float(args.knn_lambda), k=int(args.knn_k)
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        mf = modelio.itemknn_to_file(model, vocab)
    elif kind == "bprmf":
        model = baselines.bprmf_train(
            store, len(vocab), d=int(args.factors), epochs=int(args.epochs or 10),
            lr=float(args.lr if args.lr is not None else 0.05),
            reg=float(args.reg), seed=int(args.seed if args.seed is not None else 42),
        )
        mf = modelio.bprmf_to_file(
            model, vocab,
            {"d": str(args.factors), "lr": repr(float(args.lr if args.lr is not None else 0.05)),
             "reg": repr(float(args.reg)), "epochs": str(args.epochs or 10)},
        )
    else:
        print(f"error: unknown baseline kind {kind!r}", file=sys.stderr)
        return 1
    with open(args.model, "wb") as f:
        modelio.save_model_file(mf, f)
    print(f"model={args.model}\tkind={kind}\titems={len(vocab)}")
    return 0


def _scorer_for(mf: modelio.ModelFile) -> SessionScorer:
    if mf.kind == "gru":
        return GruScorer(modelio.gru_from_file(mf))
    if mf.kind == "pop":
        return PopScorer(mf.vocab)
    if mf.kind == "spop":
        return SpopScorer(mf.vocab)
    if mf.kind == "itemknn":
        return ItemKnnScorer(modelio.itemknn_from_file(mf))
    if mf.kind == "bprmf":
        return BprMfScorer(modelio.bprmf_from_file(mf))
    raise modelio.ModelFormatError(f"unknown model kind: {mf.kind}")


def cmd_evaluate(args) -> int:
    prefilter_n = int(args.prefilter) if args.prefilter is not None else None
    if prefilter_n is not None and prefilter_n < 1:
        print(f"error: --prefilter must be at least 1, got {prefilter_n}", file=sys.stderr)
        return 1
    with open(args.model, "rb") as f:
        mf = modelio.load_model_file(f)
    test = _store_with_vocab(args.test, mf.vocab)
    scorer = _scorer_for(mf)
    report = run_evaluation(
        scorer, test, k=int(args.cutoff), prefilter_n=prefilter_n,
        popularity=mf.vocab.popularity,
    )
    if report.n_cases == 0:
        print("error: no evaluable cases in the test set", file=sys.stderr)
        return 1
    print(report.line())
    if args.report_file:
        with open(args.report_file, "w", encoding="utf-8") as f:
            f.write(f"{'Metric':<12}{'Value':>10}\n")
            f.write(f"{'Recall@' + str(report.cutoff):<12}{report.recall:>10.4f}\n")
            f.write(f"{'MRR@' + str(report.cutoff):<12}{report.mrr:>10.4f}\n")
            f.write(f"{'Cases':<12}{report.n_cases:>10d}\n")
    return 0


def cmd_recommend(args) -> int:
    k = int(args.topk)
    if k < 1:
        print(f"error: --topk must be at least 1, got {k}", file=sys.stderr)
        return 1
    with open(args.model, "rb") as f:
        mf = modelio.load_model_file(f)
    scorer = _scorer_for(mf)
    for line in args.infile:
        known = []
        for tok in line.split():
            idx = mf.vocab.index.get(tok)
            if idx is None:
                if args.strict:
                    print(f"error: unknown item id {tok!r}", file=sys.stderr)
                    return 1
                print(f"warning: skipping unknown item id {tok!r}", file=sys.stderr)
                continue
            known.append(idx)
        if not known:
            print()
            continue
        scorer.reset()
        for idx in known:
            scorer.feed(idx)
        scores = scorer.scores()
        fields = []
        for i in top_k(scores, k):
            fields.append(mf.vocab.items[i])
            fields.append(f"{scores[i]:.6g}")
        print("\t".join(fields))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sessrec",
        description="Session-based next-item recommendation: GRU network and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest a click-stream CSV and split train/test")
    p.add_argument("--config")
    p.add_argument("--input", required=True)
    p.add_argument("--out", nargs=2, metavar=("TRAIN", "TEST"), required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--split-time", type=int, help="boundary, ms since epoch")
    g.add_argument("--split-last-days", type=int,
                   help="use sessions of the last N days as the test set")
    p.add_argument("--max-session-len", default=data.DEFAULT_MAX_SESSION_LEN)
    p.add_argument("--iso-time", action="store_true",
                   help="accept ISO-8601 timestamps and convert to ms")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the GRU network")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--loss", choices=["top1", "bpr", "xent"])
    p.add_argument("--hidden", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--optimizer", choices=["adagrad", "rmsprop"])
    p.add_argument("--rmsprop-decay", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--input-mode", choices=["one_hot", "discounted_sum"])
    p.add_argument("--input-decay", type=float)
    p.add_argument("--deep-input", action="store_true")
    p.add_argument("--bias", action="store_true")
    p.add_argument("--init-scale", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="fit one of the baseline recommenders")
    p.add_argument("--config")
    p.add_argument("--kind", required=True, choices=["pop", "spop", "itemknn", "bprmf"])
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--knn-lambda", type=float, default=20.0)
    p.add_argument("--knn-k", type=int, default=100)
    p.add_argument("--factors", type=int, default=100)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--reg", type=float, default=1e-5)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="run the next-item evaluation protocol")
    p.add_argument("--config")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--cutoff", type=int, default=20)
    p.add_argument("--prefilter", type=int,
                   help="rank only against the N most popular items plus the target")
    p.add_argument("--report-file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend",
                       help="read one session's item ids per line, write top-k items")
    p.add_argument("--config")
    p.add_argument("--model", required=True)
    p.add_argument("--topk", type=int, default=20)
    p.add_argument("--strict", action="store_true",
                   help="fail on unknown item ids instead of skipping")
    p.add_argument("infile", nargs="?", type=argparse.FileType("r"),
                   default=sys.stdin)
    p.set_defaults(func=cmd_recommend)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
    try:
        return args.func(args)
    except (data.DataFormatError, modelio.ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
