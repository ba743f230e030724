"""Command-line interface: prepare / train / baseline / evaluate / recommend.

Diagnostics go to stderr, data to stdout; every command exits 0 on success.
A flat ``key = value`` config file can supply defaults for any flag; flags
given on the command line win.

The ``train`` flags are generated from the fields of :class:`HyperParams`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import sys

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
from .gru import HyperParams, hyper_field_types

logger = logging.getLogger("sessrec")

DAY_MS = 86_400_000

# HyperParams fields whose train flag is not "--" plus the field name with
# "_" turned into "-"
TRAIN_FLAGS = {
    "loss_kind": "--loss",
    "hidden_size": "--hidden",
    "n_layers": "--layers",
    "batch_width": "--batch",
    "learning_rate": "--lr",
    "dropout_rate": "--dropout",
    "optimizer_kind": "--optimizer",
    "use_bias": "--bias",
}


class _ConfigArgumentParser(argparse.ArgumentParser):
    """Raises a parse error instead of exiting, to report it as the config
    file's."""

    def error(self, message):
        raise data.DataFormatError(message)


def _with_config(argv: list[str], args: argparse.Namespace) -> argparse.Namespace:
    """Parse ``argv`` again with the config file's ``key = value`` lines as
    ``--key=value`` arguments in front of the command's own, so that the
    command line wins. A switch takes ``true`` or ``false``; an unknown key
    is an error."""
    front = []
    with _text_file(args.config) as f:
        for line_no, line in enumerate(f, 1):
            where = f"config {args.config}, line {line_no}"
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise data.DataFormatError(f"{where}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            if key in ("command", "func") or not hasattr(args, key):
                raise data.DataFormatError(f"{where}: unknown key {key!r}")
            flag = "--" + key.replace("_", "-")
            if not isinstance(getattr(args, key), bool):
                front.append(f"{flag}={value}")
            elif value in ("true", "false"):  # a store_true switch
                front += [flag] if value == "true" else []
            else:
                raise data.DataFormatError(f"{where}: {key} takes true or false, got {value!r}")
    try:
        return build_parser(_ConfigArgumentParser).parse_args(argv[:1] + front + argv[1:])
    except data.DataFormatError as exc:
        raise data.DataFormatError(f"config {args.config}: {exc}") from None


@contextlib.contextmanager
def _text_file(path: str):
    """``path`` open for reading UTF-8 text, a leading byte-order mark
    skipped and line ends kept. Bytes that are not UTF-8 end in a
    DataFormatError naming their line."""
    with open(path, encoding="utf-8-sig", newline="") as f:
        try:
            yield f
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                for line_no, line in enumerate(raw, 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError:
                        break
            raise data.DataFormatError(f"{path}: line {line_no}: not valid UTF-8") from None


def _load_store(path: str, max_len: int = data.DEFAULT_MAX_SESSION_LEN,
                iso_time: bool = False, vocab: data.ItemVocab | None = None):
    """Sessions of a CSV, indexed as :func:`data.index_sessions` does. A CSV
    to build a vocabulary from must hold a usable session."""
    with _text_file(path) as f:
        events = data.read_events_csv(f, iso_time=iso_time)
    store, store_vocab, dropped = data.index_sessions(events, vocab, max_len)
    if vocab is None and len(store) == 0:
        raise data.DataFormatError("no usable sessions in input")
    if dropped:
        logger.warning("dropped %d events with items unknown to the model vocabulary", dropped)
    return store, store_vocab


def cmd_prepare(args) -> int:
    store, vocab = _load_store(args.input, max_len=args.max_session_len,
                               iso_time=args.iso_time)
    if args.split_time is not None:
        boundary = args.split_time
    else:
        boundary = int(store.times.max()) - args.split_last_days * DAY_MS + 1
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


def _train_flag(name: str) -> str:
    """The train flag of a HyperParams field. Its argparse dest, and its key
    in a config file, is the flag without "--" and with "-" turned into "_"."""
    return TRAIN_FLAGS.get(name, "--" + name.replace("_", "-"))


def cmd_train(args) -> int:
    try:
        hyper = HyperParams(**{name: getattr(args, _train_flag(name)[2:].replace("-", "_"))
                               for name in hyper_field_types()})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    store, vocab = _load_store(args.data)
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
    kind = args.kind
    try:
        if kind in ("pop", "spop"):
            mf = modelio.baseline_to_file(kind, vocab)
        elif kind == "itemknn":
            model = baselines.itemknn_train(store, len(vocab), lam=args.knn_lambda, k=args.knn_k)
            mf = modelio.itemknn_to_file(model, vocab)
        else:
            model = baselines.bprmf_train(store, len(vocab), d=args.factors, epochs=args.epochs,
                                          lr=args.lr, reg=args.reg, seed=args.seed)
            mf = modelio.bprmf_to_file(
                model, vocab,
                {"d": str(args.factors), "lr": repr(args.lr), "reg": repr(args.reg),
                 "epochs": str(args.epochs)},
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    for flag, value in (("--cutoff", args.cutoff), ("--prefilter", args.prefilter)):
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return 1
    with open(args.model, "rb") as f:
        mf = modelio.load_model_file(f)
    test, _ = _load_store(args.test, vocab=mf.vocab)
    scorer = _scorer_for(mf)
    try:
        report = run_evaluation(
            scorer, test, k=args.cutoff, prefilter_n=args.prefilter,
            popularity=mf.vocab.popularity,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    k = args.topk
    if k < 1:
        print(f"error: --topk must be at least 1, got {k}", file=sys.stderr)
        return 1
    with open(args.model, "rb") as f:
        mf = modelio.load_model_file(f)
    scorer = _scorer_for(mf)
    with (contextlib.nullcontext(sys.stdin) if args.infile == "-"
          else _text_file(args.infile)) as lines:
        for line in lines:
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


def build_parser(parser_class: type = argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
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
    p.add_argument("--max-session-len", type=int, default=data.DEFAULT_MAX_SESSION_LEN)
    p.add_argument("--iso-time", action="store_true",
                   help="accept ISO-8601 timestamps and convert to ms")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the GRU network")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    types = hyper_field_types()
    for f in dataclasses.fields(HyperParams):
        typ, _ = types[f.name]
        if typ is bool:
            p.add_argument(_train_flag(f.name), action="store_true", default=f.default)
        else:
            p.add_argument(_train_flag(f.name), type=typ, default=f.default,
                           choices=f.metadata.get("choices"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="fit one of the baseline recommenders")
    p.add_argument("--config")
    p.add_argument("--kind", required=True, choices=["pop", "spop", "itemknn", "bprmf"])
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--knn-lambda", type=float, default=20.0)
    p.add_argument("--knn-k", type=int, default=100)
    p.add_argument("--factors", type=int, default=100)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--reg", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=42)
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
    p.add_argument("infile", nargs="?", default="-")
    p.set_defaults(func=cmd_recommend)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = _with_config(argv, args)
        return args.func(args)
    except (data.DataFormatError, modelio.ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
