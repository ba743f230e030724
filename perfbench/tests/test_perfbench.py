"""Tests of the benchmark itself: corpus, span arithmetic, tracing, contract.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import io
import json
import os
import shutil
import subprocess

import numpy as np
import pytest

import corpus
import pipeline
from conftest import BENCH, ROOT
from tracer import Tracer, self_times
from sessrec import data


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_same_seed_gives_byte_identical_csv():
    a = corpus.to_csv(corpus.generate(400, 500, seed=3)[0])
    b = corpus.to_csv(corpus.generate(400, 500, seed=3)[0])
    c = corpus.to_csv(corpus.generate(400, 500, seed=4)[0])
    assert a == b
    assert a != c


def test_generator_rejects_a_corpus_too_small_to_cover_the_catalog():
    with pytest.raises(ValueError, match="fresh positions"):
        corpus.generate(1000, 100, seed=1)


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_vocabulary_reaches_the_workload_catalog_size(name):
    w = pipeline.WORKLOADS[name]
    sessions, n_train = corpus.generate(w.n_items, w.n_sessions, seed=7)
    events = data.read_events_csv(io.StringIO(corpus.to_csv(sessions)))
    store, vocab = data.ingest_events(events)
    train, train_vocab, test = data.split_train_test(
        store, vocab, corpus.session_start_ms(n_train))
    assert len(train_vocab) == w.n_items
    assert len(train) == n_train
    assert test.n_pairs >= w.eval_cases


def test_session_lengths_match_the_paper_and_repeat_per_block():
    sessions, n_train = corpus.generate(2000, 3000, seed=5)
    lengths = np.array([len(s) for s in sessions])
    assert lengths.min() == 2
    assert lengths.mean() == pytest.approx(3.97, abs=0.02)  # RSC15: 31,637,239 / 7,966,257
    block = corpus.LENGTH_BLOCK
    train_blocks = lengths[:n_train].reshape(-1, block)
    test_blocks = lengths[n_train:].reshape(-1, block)
    for b in (*train_blocks, *test_blocks):
        assert sorted(b) == sorted(train_blocks[0])
    assert not (train_blocks[0] == train_blocks[1]).all()


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["parent", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],  # overlaps a: the union 1..5 counts once
        ["c", 6.0, 7.0, 0],
        ["grandchild", 6.2, 6.8, 3],  # counts against c, not against parent
        ["outside", 9.5, 12.0, 0],  # clipped to the parent's end
    ]
    got = self_times(spans)
    assert got == pytest.approx([10.0 - 4.0 - 1.0 - 0.5, 2.0, 3.0, 0.4, 0.6, 2.5])


def test_tracer_nests_spans_and_closes_inner_ones():
    t = Tracer()
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(outer)  # closes inner too
    assert t.spans[inner][3] == outer
    assert t.spans[inner][2] is not None
    with t.span("next"):
        pass
    assert t.spans[-1][3] == -1


def test_percentile_is_nearest_rank():
    values = list(range(1, 1101))
    assert pipeline.percentile(values, 50) == 550
    assert pipeline.percentile(values, 99) == 1089
    assert sum(v > pipeline.percentile(values, 99) for v in values) >= 10


def test_requests_are_the_prefixes_that_evaluate_ranks():
    sessions = [data.Session(f"s{k}", np.array(items), np.arange(len(items)))
                for k, items in enumerate(([0, 1, 2], [3, 4], [0, 2, 4, 1]))]
    requests, n_unknown = pipeline.make_requests(sessions, ["a", "b", "c", "d", "e"], seed=1)
    assert len(requests) == sum(len(s) - 1 for s in sessions)
    known = [" ".join(t for t in r.split() if not t.startswith("unknown")) for r in requests]
    assert known == ["a", "a b", "d", "a", "a c", "a c e"]
    assert n_unknown == sum(t.startswith("unknown") for r in requests for t in r.split())


def _tiny(hyper, itemknn):
    return pipeline.Workload("tiny", n_items=300, n_sessions=600, hyper=hyper,
                             train_pairs=600, fit_pairs=600, eval_cases=300, requests=300,
                             itemknn=itemknn, fit_before=(1, 2, 3))


@pytest.mark.parametrize("hyper,itemknn", [
    (dict(loss_kind="top1", optimizer_kind="adagrad"), True),
    (dict(input_mode="discounted_sum", input_decay=0.8, loss_kind="xent",
          optimizer_kind="rmsprop", momentum=0.3), False),
])
def test_tracing_leaves_the_program_unchanged(tmp_path, hyper, itemknn):
    w = _tiny(hyper, itemknn)
    training = importlib.import_module("sessrec.training")
    originals = (training.forward_step, training.LOSSES, training.SessionBatcher)
    plain = pipeline.run_workload(w, 11, 10.0, False, str(tmp_path / "plain"))
    traced = pipeline.run_workload(w, 11, 10.0, True, str(tmp_path / "traced"))
    assert (training.forward_step, training.LOSSES, training.SessionBatcher) == originals

    for r in (plain, traced):
        assert r["failed"] == 0 and not r["problems"], r["problems"]
    e2e, layers = plain["end_to_end"], traced["per_layer"]
    quality = plain["quality"]
    assert layers["evaluate.gru.recall_at_20"][0] == quality["recall_at_20"][0]
    assert layers["evaluate.gru.mrr_at_20"][0] == quality["mrr_at_20"][0]
    assert traced["quality"] == quality
    assert 0 < quality["mrr_at_20"][0] <= quality["recall_at_20"][0] <= 1

    spec = _benchmark_json()
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert all(np.isfinite(v) and v > 0 for v, _ in e2e.values())
    assert layers["cli.recommend.unknown_tokens"][0] == plain["counts"]["unknown_tokens_sent"]
    assert layers["data.batcher.steps"][0] > 0
    assert layers["losses.ms_per_step"][0] > 0


def test_run_fails_without_sessrec_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    spec = _benchmark_json()
    proc = subprocess.run(
        spec["command"] + ["--workload", "serve-10k", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
