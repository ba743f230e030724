import dataclasses
import hashlib
import io
import pathlib

import numpy as np
import pytest

from sessrec.cli import main
from sessrec.data import read_events_csv
from sessrec.evaluate import PopScorer
from sessrec.gru import HyperParams
from sessrec.modelio import gru_from_file, load_model_file, save_model_file

from conftest import bprmf_prefix_scores, spop_prefix_scores

DAY = 86_400_000


def write_corpus(path, rng, n_sessions=60, n_items=12, days=7):
    """Synthetic click stream spread over a week."""
    lines = ["SessionId,ItemId,Time"]
    for s in range(n_sessions):
        day = s % days
        t0 = day * DAY + int(rng.integers(0, DAY - 10_000))
        length = int(rng.integers(2, 6))
        for k in range(length):
            item = int(rng.integers(n_items))
            lines.append(f"sess{s:04d},prod{item},{t0 + k * 1000}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def corpus(tmp_path, rng):
    path = tmp_path / "clicks.csv"
    write_corpus(path, rng)
    return path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrepare:
    def test_split_last_days(self, corpus, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        code, out, err = run(
            ["prepare", "--input", str(corpus), "--out", str(train), str(test),
             "--split-last-days", "1"], capsys,
        )
        assert code == 0
        assert "train_sessions=" in out and "test_sessions=" in out
        last_day_start = 6 * DAY
        # the test sessions parse back cleanly and all start in the final day
        events = read_events_csv(test.read_text())
        firsts = {}
        for s, t in zip(events.sessions.tolist(), events.times.tolist()):
            firsts.setdefault(s, t)
        assert all(t >= last_day_start for t in firsts.values())

    def test_idempotent(self, corpus, tmp_path, capsys):
        t1, e1 = tmp_path / "t1.csv", tmp_path / "e1.csv"
        code, _, _ = run(
            ["prepare", "--input", str(corpus), "--out", str(t1), str(e1),
             "--split-last-days", "1"], capsys,
        )
        assert code == 0
        t2, e2 = tmp_path / "t2.csv", tmp_path / "e2.csv"
        code, _, _ = run(
            ["prepare", "--input", str(t1), "--out", str(t2), str(e2),
             "--split-time", str(10 * DAY)], capsys,
        )
        # re-preparing with a boundary past all data keeps train intact
        assert code == 1 or t2.read_text() == t1.read_text()

    def test_summary_counts_match_line_count(self, corpus, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _, out, _ = run(
            ["prepare", "--input", str(corpus), "--out", str(train), str(test),
             "--split-last-days", "1"], capsys,
        )
        fields = dict(kv.split("=") for line in out.splitlines() for kv in line.split("\t"))
        assert int(fields["train_events"]) == len(train.read_text().splitlines()) - 1
        assert int(fields["test_events"]) == len(test.read_text().splitlines()) - 1

    def test_unreadable_input_fails(self, tmp_path, capsys):
        code, _, err = run(
            ["prepare", "--input", str(tmp_path / "nope.csv"),
             "--out", "a", "b", "--split-last-days", "1"], capsys,
        )
        assert code == 1 and "error" in err


@pytest.fixture
def prepared(corpus, tmp_path, rng):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    assert main(["prepare", "--input", str(corpus), "--out", str(train), str(test),
                 "--split-last-days", "1"]) == 0
    return train, test


BAD_TIMES = [("timestamp out of range", "99999999999999999999"), ("negative timestamp", "-5")]


@pytest.mark.parametrize("command,kind,first,text", [
    (command, kind, "1", text)
    for command in ("prepare", "train", "evaluate") for kind, text in BAD_TIMES
] + [("prepare --iso-time", "negative timestamp", "1970-01-01T00:00:00", "1969-12-31T23:59:59")])
def test_bad_timestamp_exits_1_naming_its_line(command, kind, first, text, prepared, tmp_path,
                                               capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"SessionId,ItemId,Time\nsess,prod1,{first}\nsess,prod2,{text}\n")
    model = tmp_path / "m.bin"
    if command == "evaluate":
        assert main(["baseline", "--kind", "pop", "--data", str(prepared[0]),
                     "--model", str(model)]) == 0
        capsys.readouterr()
    name, *flags = command.split()
    argv = {
        "prepare": ["prepare", "--input", str(bad), "--out", str(tmp_path / "train.csv"),
                    str(tmp_path / "test.csv"), "--split-time", "1"],
        "train": ["train", "--data", str(bad), "--model", str(model), "--epochs", "1"],
        "evaluate": ["evaluate", "--model", str(model), "--test", str(bad)],
    }[name] + flags
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: line 3: {kind} {text!r}\n"


class TestTrain:
    def test_defaults_persisted_in_hyper_block(self, prepared, tmp_path, capsys):
        train, _ = prepared
        model = tmp_path / "m.bin"
        code, _, _ = run(
            ["train", "--data", str(train), "--model", str(model), "--epochs", "1"],
            capsys,
        )
        assert code == 0
        from sessrec.modelio import load_model_file

        with open(model, "rb") as f:
            mf = load_model_file(f)
        assert mf.hyper["loss_kind"] == "top1"
        assert mf.hyper["batch_width"] == "50"
        assert float(mf.hyper["dropout_rate"]) == 0.5
        assert float(mf.hyper["learning_rate"]) == 0.01
        assert float(mf.hyper["momentum"]) == 0.0

    def test_zero_epochs_loadable(self, prepared, tmp_path, capsys):
        train, _ = prepared
        model = tmp_path / "m.bin"
        code, _, _ = run(
            ["train", "--data", str(train), "--model", str(model), "--epochs", "0"],
            capsys,
        )
        assert code == 0
        from sessrec.modelio import load_model_file

        with open(model, "rb") as f:
            mf = load_model_file(f)
        assert mf.kind == "gru"

    def test_same_seed_byte_identical(self, prepared, tmp_path, capsys):
        train, _ = prepared
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        args = ["train", "--data", str(train), "--epochs", "2", "--hidden", "8",
                "--batch", "4", "--seed", "7"]
        assert main(args + ["--model", str(a)]) == 0
        assert main(args + ["--model", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_usable_sessions_fails(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("SessionId,ItemId,Time\ns1,a,1000\n")
        code, out, err = run(
            ["train", "--data", str(data), "--model", str(tmp_path / "m.bin")], capsys
        )
        assert code == 1 and out == ""
        assert err == "error: no usable sessions in input\n"
        assert not (tmp_path / "m.bin").exists()

    def test_config_file_with_flag_override(self, prepared, tmp_path, capsys):
        train, _ = prepared
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nhidden = 8\nloss = bpr\n")
        model = tmp_path / "m.bin"
        code, _, _ = run(
            ["train", "--data", str(train), "--model", str(model),
             "--config", str(cfg), "--loss", "top1"], capsys,
        )
        assert code == 0
        from sessrec.modelio import load_model_file

        with open(model, "rb") as f:
            mf = load_model_file(f)
        assert mf.hyper["loss_kind"] == "top1"  # flag wins
        assert mf.hyper["hidden_size"] == "8"  # config applied

    def test_config_switch_reaches_model_file(self, prepared, tmp_path, capsys):
        train, _ = prepared
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 0\ndeep_input = true\nbias = false\n")
        model = tmp_path / "m.bin"
        code, _, _ = run(["train", "--data", str(train), "--model", str(model),
                          "--config", str(cfg)], capsys)
        assert code == 0
        with open(model, "rb") as f:
            hyper = gru_from_file(load_model_file(f)).hyper
        assert hyper.deep_input is True and hyper.use_bias is False

    @pytest.mark.parametrize("line, named", [
        ("bogus = 3", "'bogus'"), ("deep_input = yes", "deep_input"), ("hidden = abc", "--hidden"),
    ])
    def test_bad_config_line_fails(self, line, named, prepared, tmp_path, capsys):
        train, _ = prepared
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs = 0\n{line}\n")
        model = tmp_path / "m.bin"
        code, out, err = run(["train", "--data", str(train), "--model", str(model),
                              "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: config") and err.count("\n") == 1 and named in err
        assert not model.exists()

    @pytest.mark.parametrize("flags, config, named", [
        (["--hidden", "0"], "", "hidden_size"),
        (["--lr", "-1"], "", "learning_rate"),
        (["--lr", "nan"], "", "learning_rate"),
        (["--rmsprop-decay", "1.5"], "", "rmsprop_decay"),
        (["--init-scale", "-1"], "", "init_scale"),
        (["--init-scale", "nan"], "", "init_scale"),
        (["--seed", "-1"], "", "seed"),
        ([], "hidden = abc\n", "--hidden"),
    ], ids=["hidden-0", "lr-neg", "lr-nan", "rmsprop-decay-1.5", "init-scale-neg",
            "init-scale-nan", "seed-neg", "config-hidden-abc"])
    def test_bad_hyperparameter_exits_1(self, flags, config, named, prepared, tmp_path,
                                        capsys):
        train, _ = prepared
        model = tmp_path / "m.bin"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, out, err = run(["train", "--data", str(train), "--model", str(model),
                              "--config", str(cfg), *flags], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not model.exists()


PIN_CSV = """SessionId,ItemId,Time
s1,a,1000
s1,b,2000
s1,c,3000
s2,b,1500
s2,d,2500
s3,a,4000
s3,e,4100
s3,a,4200
"""

# Each HyperParams field: its train flag with a value other than the
# default, and that value as the field holds it.
NON_DEFAULT = {
    "loss_kind": (["--loss", "bpr"], "bpr"),
    "hidden_size": (["--hidden", "3"], 3),
    "n_layers": (["--layers", "2"], 2),
    "batch_width": (["--batch", "7"], 7),
    "learning_rate": (["--lr", "0.2"], 0.2),
    "momentum": (["--momentum", "0.5"], 0.5),
    "dropout_rate": (["--dropout", "0.25"], 0.25),
    "optimizer_kind": (["--optimizer", "rmsprop"], "rmsprop"),
    "rmsprop_decay": (["--rmsprop-decay", "0.8"], 0.8),
    "epochs": (["--epochs", "0"], 0),
    "seed": (["--seed", "9"], 9),
    "input_mode": (["--input-mode", "discounted_sum"], "discounted_sum"),
    "input_decay": (["--input-decay", "0.6"], 0.6),
    "deep_input": (["--deep-input"], True),
    "use_bias": (["--bias"], True),
    "init_scale": (["--init-scale", "0.3"], 0.3),
}


class TestModelFileSchema:
    """``train --epochs 0`` runs no training step, so these files hold only
    the seeded initialization: no bit of them depends on BLAS."""

    @pytest.fixture
    def pin_csv(self, tmp_path):
        path = tmp_path / "pin.csv"
        path.write_text(PIN_CSV)
        return path

    @pytest.mark.parametrize("flags, sha256", [
        ([], "83622468c3243a7443cccdd2d5f9d452f24996c54474733825d14ceea13cd004"),
        ([f for flags, _ in NON_DEFAULT.values() for f in flags],
         "8e1e6e7101081c94638f4505e9af6825e4f9c7071f1e4a0d511047a1f1333d59"),
    ], ids=["defaults", "every-field-non-default"])
    def test_model_file_bytes_pinned(self, flags, sha256, pin_csv, tmp_path, capsys):
        model = tmp_path / "m.bin"
        assert main(["train", "--data", str(pin_csv), "--model", str(model),
                     "--epochs", "0", *flags]) == 0
        assert hashlib.sha256(model.read_bytes()).hexdigest() == sha256

    def test_table_covers_every_field(self):
        assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(HyperParams)}

    @pytest.mark.parametrize("name", sorted(NON_DEFAULT))
    def test_flag_round_trips_through_file(self, name, pin_csv, tmp_path, capsys):
        flags, value = NON_DEFAULT[name]
        assert getattr(HyperParams(), name) != value
        model = tmp_path / "m.bin"
        assert main(["train", "--data", str(pin_csv), "--model", str(model),
                     "--epochs", "0", *flags]) == 0
        with open(model, "rb") as f:
            hyper = gru_from_file(load_model_file(f)).hyper
        want = dataclasses.replace(HyperParams(epochs=0), **{name: value})
        assert hyper == want


class TestBaseline:
    @pytest.mark.parametrize("kind", ["pop", "spop", "itemknn", "bprmf"])
    def test_no_usable_sessions_fails(self, kind, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("SessionId,ItemId,Time\ns1,a,1000\n")
        code, out, err = run(
            ["baseline", "--kind", kind, "--data", str(data),
             "--model", str(tmp_path / "m.bin")], capsys,
        )
        assert code == 1 and out == ""
        assert err == "error: no usable sessions in input\n"
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--knn-k", "0"), ("--knn-k", "-5"), ("--knn-lambda", "-1"), ("--knn-lambda", "nan"),
    ])
    def test_itemknn_bad_parameters_rejected(self, flag, value, prepared, tmp_path, capsys):
        train, _ = prepared
        model = tmp_path / "knn.bin"
        code, out, err = run(
            ["baseline", "--kind", "itemknn", "--data", str(train),
             "--model", str(model), flag, value], capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not model.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--factors", "0"), ("--epochs", "-1"), ("--lr", "0"), ("--lr", "nan"), ("--reg", "-1"),
    ])
    def test_bprmf_bad_parameters_rejected(self, flag, value, prepared, tmp_path, capsys):
        train, _ = prepared
        model = tmp_path / "bpr.bin"
        code, out, err = run(
            ["baseline", "--kind", "bprmf", "--data", str(train),
             "--model", str(model), flag, value], capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not model.exists()

    def test_bprmf_zero_epochs_recorded(self, prepared, tmp_path, capsys):
        train, _ = prepared
        model = tmp_path / "bpr.bin"
        assert main(["baseline", "--kind", "bprmf", "--data", str(train),
                     "--model", str(model), "--epochs", "0"]) == 0
        with open(model, "rb") as f:
            assert load_model_file(f).hyper["epochs"] == "0"


class TestEvaluateAndRecommend:
    def test_pop_on_degenerate_corpus_perfect_recall(self, tmp_path, capsys):
        # most popular item is always the next one
        lines = ["SessionId,ItemId,Time"]
        t = 0
        for s in range(20):
            day = 0 if s < 15 else 10
            t0 = day * DAY + s * 1000
            lines.append(f"s{s},raretag{s % 3},{t0}")
            lines.append(f"s{s},hit,{t0 + 1}")
        (tmp_path / "c.csv").write_text("\n".join(lines) + "\n")
        train, test = tmp_path / "tr.csv", tmp_path / "te.csv"
        assert main(["prepare", "--input", str(tmp_path / "c.csv"),
                     "--out", str(train), str(test), "--split-time", str(5 * DAY)]) == 0
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        code, out, _ = run(
            ["evaluate", "--model", str(model), "--test", str(test),
             "--cutoff", "20"], capsys,
        )
        assert code == 0
        assert "recall@20=1.000000" in out

    def test_cutoff_one_recall_equals_mrr(self, prepared, tmp_path, capsys):
        train, test = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        code, out, _ = run(
            ["evaluate", "--model", str(model), "--test", str(test),
             "--cutoff", "1"], capsys,
        )
        assert code == 0
        report_line = out.strip().splitlines()[-1]
        fields = dict(kv.split("=") for kv in report_line.split("\t"))
        assert fields["recall@1"] == fields["mrr@1"]

    def test_report_file_holds_the_report(self, prepared, tmp_path, capsys):
        train, test = prepared
        model, report = tmp_path / "pop.bin", tmp_path / "report.txt"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        capsys.readouterr()
        code, out, _ = run(["evaluate", "--model", str(model), "--test", str(test),
                            "--cutoff", "5", "--report-file", str(report)], capsys)
        assert code == 0
        fields = dict(kv.split("=") for kv in out.strip().split("\t"))
        assert report.read_text(encoding="utf-8") == (
            f"Metric           Value\n"
            f"Recall@5    {float(fields['recall@5']):>10.4f}\n"
            f"MRR@5       {float(fields['mrr@5']):>10.4f}\n"
            f"Cases       {int(fields['n_cases']):>10d}\n")

    @pytest.mark.parametrize("kind", ["spop", "itemknn", "bprmf"])
    def test_all_baseline_kinds_evaluate(self, kind, prepared, tmp_path, capsys):
        train, test = prepared
        model = tmp_path / f"{kind}.bin"
        assert main(["baseline", "--kind", kind, "--data", str(train),
                     "--model", str(model), "--epochs", "1"]) == 0
        code, out, _ = run(
            ["evaluate", "--model", str(model), "--test", str(test)], capsys
        )
        assert code == 0 and "recall@20=" in out

    def test_recommend_matches_evaluator_ordering(self, prepared, tmp_path, capsys):
        from sessrec.cli import _scorer_for
        from sessrec.modelio import load_model_file

        train, test = prepared
        for kind in ["gru", "gru-dsum", "pop", "spop", "itemknn", "bprmf"]:
            model = tmp_path / f"{kind}.bin"
            if kind.startswith("gru"):
                argv = ["train", "--data", str(train), "--model", str(model),
                        "--epochs", "1", "--hidden", "8", "--batch", "4"]
                if kind == "gru-dsum":
                    argv += ["--input-mode", "discounted_sum", "--input-decay", "0.8",
                             "--loss", "xent", "--optimizer", "rmsprop"]
            else:
                argv = ["baseline", "--kind", kind, "--data", str(train),
                        "--model", str(model), "--epochs", "1"]
            assert main(argv) == 0
            with open(model, "rb") as f:
                mf = load_model_file(f)
            v = mf.vocab.items
            lines = ["prod1 prod2", f"{v[1]} nosuch {v[2]} {v[0]}", f"ghost {v[3]}",
                     f"{v[2]} {v[2]} nope {v[4]} {v[1]} {v[3]}", "", "missing"]
            query = tmp_path / "q.txt"
            query.write_text("".join(line + "\n" for line in lines))
            capsys.readouterr()
            code, out, err = run(
                ["recommend", "--model", str(model), "--topk", "5", str(query)], capsys
            )
            assert code == 0
            fields = out.splitlines()[0].split("\t")
            items, scores = fields[0::2], [float(x) for x in fields[1::2]]
            assert len(items) == 5
            assert scores == sorted(scores, reverse=True)
            # oracle: score after every event, keep the last, full lexsort;
            # S-POP and BPR-MF score the prefix by their definitions
            scorer = _scorer_for(mf)
            reference = {
                "spop": lambda prefix: spop_prefix_scores(prefix, mf.vocab),
                "bprmf": lambda prefix: bprmf_prefix_scores(scorer.model, prefix),
            }.get(kind)
            want_out, want_err = [], []
            for line in lines:
                scorer.reset()
                vec, prefix = None, []
                for tok in line.split():
                    if tok not in mf.vocab.index:
                        want_err.append(f"warning: skipping unknown item id {tok!r}")
                        continue
                    prefix.append(mf.vocab.index[tok])
                    vec = reference(prefix) if reference else scorer.step(prefix[-1])
                if vec is None:
                    want_out.append("")
                    continue
                order = np.lexsort((np.arange(len(vec)), -vec))[:5]
                want_out.append("\t".join(
                    x for i in order for x in (mf.vocab.items[i], f"{vec[i]:.6g}")))
            assert out == "".join(line + "\n" for line in want_out), kind
            assert err == "".join(line + "\n" for line in want_err), kind

    @pytest.mark.parametrize("topk", ["0", "-2"])
    def test_recommend_topk_below_one_rejected(self, topk, prepared, tmp_path, capsys):
        train, _ = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        query = tmp_path / "q.txt"
        query.write_text("prod1\n")
        capsys.readouterr()
        code, out, err = run(
            ["recommend", "--model", str(model), "--topk", topk, str(query)], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("prefilter", ["0", "-3"])
    def test_evaluate_prefilter_below_one_rejected(self, prefilter, prepared, tmp_path,
                                                   capsys):
        train, test = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        capsys.readouterr()
        code, out, err = run(
            ["evaluate", "--model", str(model), "--test", str(test),
             "--prefilter", prefilter], capsys,
        )
        assert code == 1 and out == ""
        assert err == f"error: --prefilter must be at least 1, got {prefilter}\n"

    @pytest.mark.parametrize("cutoff", ["0", "-3"])
    def test_evaluate_cutoff_below_one_rejected(self, cutoff, prepared, tmp_path, capsys):
        train, test = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        capsys.readouterr()
        code, out, err = run(
            ["evaluate", "--model", str(model), "--test", str(test), "--cutoff", cutoff],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == f"error: --cutoff must be at least 1, got {cutoff}\n"

    def test_config_sets_cutoff(self, prepared, tmp_path, capsys):
        train, test = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("cutoff = 5\n")
        capsys.readouterr()
        code, out, _ = run(["evaluate", "--model", str(model), "--test", str(test),
                            "--config", str(cfg)], capsys)
        assert code == 0 and out.startswith("recall@5=")

    def test_test_csv_gets_bot_filter(self, prepared, tmp_path, capsys):
        # a 250-event session in a test CSV that prepare did not write is
        # dropped, as prepare drops it
        train, _ = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        with open(model, "rb") as f:
            items = load_model_file(f).vocab.items
        rows = [f"bot,{items[k % len(items)]},{k}" for k in range(250)]
        rows += [f"s1,{items[0]},5", f"s1,{items[1]},6", f"s1,{items[2]},7"]
        test = tmp_path / "raw.csv"
        test.write_text("SessionId,ItemId,Time\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        code, out, _ = run(["evaluate", "--model", str(model), "--test", str(test)], capsys)
        assert code == 0 and out.endswith("n_cases=2\n")

    @pytest.mark.parametrize("edit", [
        {"hidden_size": None}, {"hidden_size": "abc"}, {"loss_kind": "hinge"},
    ], ids=["missing", "unparseable", "rejected"])
    def test_bad_hyper_block_exits_1(self, edit, prepared, tmp_path, capsys):
        train, test = prepared
        model = tmp_path / "gru.bin"
        assert main(["train", "--data", str(train), "--model", str(model),
                     "--epochs", "0", "--hidden", "4"]) == 0
        with open(model, "rb") as f:
            mf = load_model_file(f)
        for key, value in edit.items():
            if value is None:
                del mf.hyper[key]
            else:
                mf.hyper[key] = value
        with open(model, "wb") as f:
            save_model_file(mf, f)
        query = tmp_path / "q.txt"
        query.write_text(mf.vocab.items[0] + "\n")
        capsys.readouterr()
        for argv in (["evaluate", "--test", str(test)], ["recommend", str(query)]):
            code, out, err = run(argv + ["--model", str(model)], capsys)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_recommend_unknown_item_skipped_with_warning(self, prepared, tmp_path, capsys):
        train, _ = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        query = tmp_path / "q.txt"
        query.write_text("nosuchitem prod1\n")
        code, out, err = run(
            ["recommend", "--model", str(model), "--topk", "3", str(query)], capsys
        )
        assert code == 0
        assert "skipping unknown item" in err
        assert out.strip()

    def test_recommend_strict_fails_on_unknown(self, prepared, tmp_path, capsys):
        train, _ = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        query = tmp_path / "q.txt"
        query.write_text("nosuchitem\n")
        code, _, err = run(
            ["recommend", "--model", str(model), "--strict", str(query)], capsys
        )
        assert code == 1 and "unknown item" in err

    @pytest.mark.parametrize("edit", ["drop W_out", "one row of W_out", "NaN in U"])
    def test_bad_matrix_exits_1(self, edit, prepared, tmp_path, capsys):
        train, test = prepared
        model = tmp_path / "gru.bin"
        assert main(["train", "--data", str(train), "--model", str(model),
                     "--epochs", "0", "--hidden", "4"]) == 0
        with open(model, "rb") as f:
            mf = load_model_file(f)
        if edit == "drop W_out":
            del mf.matrices["W_out"]
        elif edit == "one row of W_out":
            mf.matrices["W_out"] = mf.matrices["W_out"][:1]
        else:
            mf.matrices["layers.0.U"][1, 2] = np.nan
        with open(model, "wb") as f:
            save_model_file(mf, f)
        query = tmp_path / "q.txt"
        query.write_text(mf.vocab.items[0] + "\n")
        capsys.readouterr()
        for argv in (["evaluate", "--test", str(test)], ["recommend", str(query)]):
            code, out, err = run(argv + ["--model", str(model)], capsys)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_huge_bprmf_factor_exits_1(self, prepared, tmp_path, capsys):
        train, test = prepared
        model = tmp_path / "bprmf.bin"
        assert main(["baseline", "--kind", "bprmf", "--data", str(train), "--model", str(model),
                     "--epochs", "1"]) == 0
        with open(model, "rb") as f:
            mf = load_model_file(f)
        factors = mf.matrices["factors"]
        raw = bytearray(factors[1, 2].tobytes())
        raw[7] ^= 0x40  # the top exponent bit: about 0.05 becomes about 1e306, still finite
        factors[1, 2] = np.frombuffer(bytes(raw))[0]
        assert np.isfinite(factors).all() and abs(factors[1, 2]) > 1e300
        with open(model, "wb") as f:
            save_model_file(mf, f)
        query = tmp_path / "q.txt"
        query.write_text(" ".join(mf.vocab.items[:3]) + "\n")
        capsys.readouterr()
        for argv in (["evaluate", "--test", str(test)], ["recommend", str(query)]):
            code, out, err = run(argv + ["--model", str(model)], capsys)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and "factors is too large" in err
            assert err.count("\n") == 1

    def test_nan_target_score_exits_1(self, prepared, tmp_path, capsys, monkeypatch):
        import sessrec.cli as cli

        class NanScorer(PopScorer):
            def score_queries(self, queries):
                return np.full(super().score_queries(queries).shape, np.nan)

        train, test = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        monkeypatch.setattr(cli, "_scorer_for", lambda mf: NanScorer(mf.vocab))
        capsys.readouterr()
        code, out, err = run(["evaluate", "--model", str(model), "--test", str(test)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: test session ") and "is NaN" in err
        assert err.count("\n") == 1

    def test_recommend_reads_stdin_and_leaves_it_open(self, prepared, tmp_path, capsys,
                                                     monkeypatch):
        train, _ = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        query = tmp_path / "q.txt"
        query.write_text("prod1\nprod2 prod3\n")
        capsys.readouterr()
        _, want, _ = run(["recommend", "--model", str(model), str(query)], capsys)
        for argv in ([], ["-"]):
            stdin = io.StringIO(query.read_text())
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, _ = run(["recommend", "--model", str(model), *argv], capsys)
            assert code == 0 and out == want and len(out.splitlines()) == 2
            assert not stdin.closed

    def test_recommend_missing_input_exits_1(self, prepared, tmp_path, capsys):
        train, _ = prepared
        model = tmp_path / "pop.bin"
        assert main(["baseline", "--kind", "pop", "--data", str(train),
                     "--model", str(model)]) == 0
        capsys.readouterr()
        code, out, err = run(
            ["recommend", "--model", str(model), str(tmp_path / "nope.txt")], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


NOT_UTF8 = b"SessionId,ItemId,Time\ns1,a,1\ns1,b\xff,2\ns2,a,3\ns2,c,4\n"


@pytest.mark.parametrize("command", ["prepare", "train", "baseline", "evaluate"])
def test_csv_not_utf8_exits_1_naming_its_line(command, prepared, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(NOT_UTF8)
    model = tmp_path / "m.bin"
    if command == "evaluate":
        assert main(["baseline", "--kind", "pop", "--data", str(prepared[0]),
                     "--model", str(model)]) == 0
        capsys.readouterr()
    argv = {
        "prepare": ["prepare", "--input", str(bad), "--out", str(tmp_path / "train.csv"),
                    str(tmp_path / "test.csv"), "--split-time", "1"],
        "train": ["train", "--data", str(bad), "--model", str(model), "--epochs", "1"],
        "baseline": ["baseline", "--kind", "pop", "--data", str(bad), "--model", str(model)],
        "evaluate": ["evaluate", "--model", str(model), "--test", str(bad)],
    }[command]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {bad}: line 3: not valid UTF-8\n"


def test_config_not_utf8_exits_1_naming_its_line(prepared, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"epochs = 0\n# caf\xe9\n")
    model = tmp_path / "m.bin"
    code, out, err = run(["train", "--data", str(prepared[0]), "--model", str(model),
                          "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {cfg}: line 2: not valid UTF-8\n"
    assert not model.exists()


def test_recommend_file_not_utf8_exits_1_naming_its_line(prepared, tmp_path, capsys):
    model = tmp_path / "pop.bin"
    assert main(["baseline", "--kind", "pop", "--data", str(prepared[0]),
                 "--model", str(model)]) == 0
    query = tmp_path / "q.txt"
    query.write_bytes(b"prod1\nprod2 \xc3(\n")
    capsys.readouterr()
    code, _, err = run(["recommend", "--model", str(model), str(query)], capsys)
    assert code == 1
    assert err == f"error: {query}: line 2: not valid UTF-8\n"


@pytest.mark.parametrize("command", ["prepare", "baseline", "evaluate"])
def test_relative_path_not_looked_up_elsewhere(command, prepared, tmp_path, capsys,
                                               monkeypatch):
    # a relative name that is not in the working directory names no file, even
    # where an environment variable points at a directory that holds it
    model = tmp_path / "m.bin"
    assert main(["baseline", "--kind", "pop", "--data", str(prepared[0]),
                 "--model", str(model)]) == 0
    capsys.readouterr()
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "clicks.csv").write_bytes(prepared[0].read_bytes())
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("SESSREC_DATA_DIR", str(elsewhere))
    argv = {
        "prepare": ["prepare", "--input", "clicks.csv", "--out", str(tmp_path / "a.csv"),
                    str(tmp_path / "b.csv"), "--split-time", "1"],
        "baseline": ["baseline", "--kind", "pop", "--data", "clicks.csv",
                     "--model", str(tmp_path / "other.bin")],
        "evaluate": ["evaluate", "--model", str(model), "--test", "clicks.csv"],
    }[command]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "clicks.csv" in err and err.count("\n") == 1


def test_byte_order_mark_skipped(tmp_path, capsys):
    golden = pathlib.Path(__file__).parent / "data" / "golden_clicks.csv"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + golden.read_bytes())
    outputs = []
    for name, source in (("plain", golden), ("marked", marked)):
        train, test = tmp_path / f"{name}_train.csv", tmp_path / f"{name}_test.csv"
        code, out, err = run(["prepare", "--input", str(source), "--out", str(train),
                              str(test), "--split-time", "1000000"], capsys)
        assert code == 0 and err == ""
        outputs.append((out, train.read_bytes(), test.read_bytes()))
    assert outputs[0] == outputs[1]


def test_byte_order_mark_skipped_in_config_and_recommend_files(prepared, tmp_path, capsys):
    model = tmp_path / "pop.bin"
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfkind = pop\n")
    assert main(["baseline", "--config", str(cfg), "--kind", "spop", "--data", str(prepared[0]),
                 "--model", str(model)]) == 0
    with model.open("rb") as f:
        assert load_model_file(f).kind == "spop"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"prod1 prod2\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    capsys.readouterr()
    want = run(["recommend", "--model", str(model), str(plain)], capsys)
    code, out, err = want
    assert code == 0 and err == "" and set(out.split("\t")[:3:2]) == {"prod1", "prod2"}
    assert run(["recommend", "--model", str(model), str(marked)], capsys) == want
