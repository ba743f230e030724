import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sessrec.baselines import bprmf_train, itemknn_train
from sessrec.cli import _scorer_for
from sessrec.gru import HyperParams, init_network
from sessrec.modelio import (
    ModelFile,
    ModelFormatError,
    baseline_to_file,
    bprmf_from_file,
    bprmf_to_file,
    gru_from_file,
    gru_to_file,
    itemknn_from_file,
    itemknn_to_file,
    load_model_file,
    save_model_file,
)

from conftest import store_from_lists


def round_trip(mf: ModelFile) -> tuple[bytes, ModelFile]:
    buf = io.BytesIO()
    save_model_file(mf, buf)
    raw = buf.getvalue()
    return raw, load_model_file(io.BytesIO(raw))


class TestContainer:
    def test_round_trip_bit_identical(self, rng):
        store, vocab = store_from_lists([[0, 1, 2], [2, 1]])
        mf = ModelFile(
            "gru",
            vocab,
            {"alpha": "0.5", "note": "free text"},
            {"m": rng.standard_normal((3, 4)), "v": rng.standard_normal((1, 2))},
        )
        raw1, loaded = round_trip(mf)
        raw2, _ = round_trip(loaded)
        assert raw1 == raw2
        assert loaded.kind == "gru"
        assert loaded.vocab.items == vocab.items
        np.testing.assert_array_equal(loaded.vocab.popularity, vocab.popularity)
        assert loaded.hyper == mf.hyper
        np.testing.assert_array_equal(loaded.matrices["m"], mf.matrices["m"])

    def test_bad_magic_rejected(self):
        with pytest.raises(ModelFormatError, match="magic"):
            load_model_file(io.BytesIO(b"XXXX" + b"\x00" * 64))

    def test_version_mismatch_rejected(self):
        store, vocab = store_from_lists([[0, 1]])
        buf = io.BytesIO()
        save_model_file(ModelFile("pop", vocab), buf)
        raw = bytearray(buf.getvalue())
        raw[4] = 99
        with pytest.raises(ModelFormatError, match="version"):
            load_model_file(io.BytesIO(bytes(raw)))

    def test_truncation_rejected(self):
        store, vocab = store_from_lists([[0, 1]])
        buf = io.BytesIO()
        save_model_file(ModelFile("pop", vocab), buf)
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model_file(io.BytesIO(buf.getvalue()[:-3]))

    def test_corrupt_length_is_a_format_error(self, tmp_path):
        store, vocab = store_from_lists([[0, 1]])
        buf = io.BytesIO()
        save_model_file(ModelFile("gru", vocab, {}, {"m": np.ones((2, 3))}), buf)
        raw = bytearray(buf.getvalue())
        shape_at = raw.index(b"\x01\x00\x00\x00m") + 5  # after the name "m"
        raw[shape_at:shape_at + 8] = b"\xff" * 8  # (2**32 - 1) x (2**32 - 1)
        path = tmp_path / "m.bin"
        path.write_bytes(bytes(raw))
        with open(path, "rb") as f, pytest.raises(ModelFormatError, match="truncated"):
            load_model_file(f)

    def test_unknown_kind_rejected(self):
        store, vocab = store_from_lists([[0, 1]])
        with pytest.raises(ModelFormatError):
            save_model_file(ModelFile("mystery", vocab), io.BytesIO())

    def test_unicode_item_ids(self):
        store, vocab = store_from_lists([[0, 1]])
        vocab.items = ["商品-1", "πρ-2"]
        vocab.index = {it: i for i, it in enumerate(vocab.items)}
        _, loaded = round_trip(ModelFile("spop", vocab))
        assert loaded.vocab.items == vocab.items


class TestModelConversions:
    def test_gru_round_trip_preserves_behaviour(self):
        store, vocab = store_from_lists([[0, 1, 2], [1, 2, 0]])
        hyper = HyperParams(hidden_size=4, use_bias=True, n_layers=2,
                            deep_input=True, seed=5)
        params = init_network(len(vocab), hyper)
        _, loaded = round_trip(gru_to_file(params, vocab))
        params2 = gru_from_file(loaded)
        assert params2.hyper == hyper
        for (na, pa), (nb, pb) in zip(params.named_params(), params2.named_params()):
            assert na == nb
            np.testing.assert_array_equal(pa, np.asarray(pb).reshape(pa.shape))

    def test_itemknn_round_trip(self, rng):
        sessions = [list(rng.integers(0, 8, 4)) for _ in range(10)]
        store, vocab = store_from_lists(sessions, n_items=8)
        model = itemknn_train(store, 8, lam=7.0, k=5)
        _, loaded = round_trip(itemknn_to_file(model, vocab))
        model2 = itemknn_from_file(loaded)
        np.testing.assert_array_equal(model.neighbor_index, model2.neighbor_index)
        np.testing.assert_array_equal(model.neighbor_sim, model2.neighbor_sim)
        assert model2.lam == 7.0 and model2.k == 5

    def test_bprmf_round_trip(self):
        store, vocab = store_from_lists([[0, 1, 2], [2, 0]])
        model = bprmf_train(store, 3, d=4, epochs=1, seed=2)
        _, loaded = round_trip(bprmf_to_file(model, vocab))
        np.testing.assert_array_equal(bprmf_from_file(loaded).factors, model.factors)

    def test_vocab_only_baselines(self):
        store, vocab = store_from_lists([[0, 1, 1]])
        for kind in ("pop", "spop"):
            _, loaded = round_trip(baseline_to_file(kind, vocab))
            assert loaded.kind == kind
            np.testing.assert_array_equal(loaded.vocab.popularity, vocab.popularity)
        with pytest.raises(ModelFormatError):
            baseline_to_file("gru", vocab)


def tiny_models():
    """A valid model file of every kind over one 5-item vocabulary."""
    store, vocab = store_from_lists([[0, 1, 2, 3], [2, 1, 4], [4, 0, 3, 1]], n_items=5)
    deep = HyperParams(hidden_size=3, n_layers=2, deep_input=True, use_bias=True,
                       input_mode="discounted_sum", input_decay=0.5, seed=2)
    return {
        "gru": gru_to_file(init_network(5, HyperParams(hidden_size=3, seed=1)), vocab),
        "gru-deep": gru_to_file(init_network(5, deep), vocab),
        "itemknn": itemknn_to_file(itemknn_train(store, 5, lam=1.0, k=3), vocab),
        "bprmf": bprmf_to_file(bprmf_train(store, 5, d=2, epochs=1), vocab, {"d": "2"}),
        "pop": baseline_to_file("pop", vocab),
    }


FROM_FILE = {"gru": gru_from_file, "itemknn": itemknn_from_file, "bprmf": bprmf_from_file}


def to_bytes(mf: ModelFile) -> bytes:
    buf = io.BytesIO()
    save_model_file(mf, buf)
    return buf.getvalue()


def load_and_convert(raw: bytes):
    mf = load_model_file(io.BytesIO(raw))
    return mf, FROM_FILE.get(mf.kind, lambda mf: None)(mf)


class TestValidation:
    @pytest.mark.parametrize("name", sorted(tiny_models()))
    def test_valid_files_load(self, name):
        mf, _ = load_and_convert(to_bytes(tiny_models()[name]))
        assert mf.kind == name.split("-")[0]

    @pytest.mark.parametrize("name, matrix", [
        ("gru", "W_out"), ("gru-deep", "layers.1.b_z"), ("gru-deep", "b_out"),
        ("itemknn", "neighbor_sim"), ("bprmf", "factors"),
    ])
    def test_missing_matrix_rejected(self, name, matrix):
        mf = tiny_models()[name]
        del mf.matrices[matrix]
        with pytest.raises(ModelFormatError, match=f"lacks matrix '{matrix}'"):
            load_and_convert(to_bytes(mf))

    @pytest.mark.parametrize("name, matrix", [
        ("gru", "W_out"), ("gru", "layers.0.W"), ("gru-deep", "layers.1.W_r"),
        ("gru-deep", "b_out"), ("itemknn", "neighbor_index"), ("bprmf", "factors"),
    ])
    def test_shape_mismatch_rejected(self, name, matrix):
        mf = tiny_models()[name]
        mf.matrices[matrix] = np.atleast_2d(mf.matrices[matrix])[:-1]
        with pytest.raises(ModelFormatError, match=f"matrix {matrix} is"):
            load_and_convert(to_bytes(mf))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, matrix", [
        ("gru", "layers.0.U_z"), ("gru-deep", "layers.0.b"), ("itemknn", "neighbor_sim"),
        ("bprmf", "factors"),
    ])
    def test_non_finite_value_rejected(self, name, matrix, value):
        mf = tiny_models()[name]
        np.atleast_2d(mf.matrices[matrix])[0, 0] = value
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_and_convert(to_bytes(mf))

    def test_unexpected_matrix_rejected(self):
        mf = tiny_models()["gru"]  # no biases
        mf.matrices["b_out"] = np.zeros((1, 5))
        with pytest.raises(ModelFormatError, match="unexpected matrix 'b_out'"):
            load_and_convert(to_bytes(mf))

    @pytest.mark.parametrize("key", ["lambda", "k"])
    def test_itemknn_hyper_key_required(self, key):
        mf = tiny_models()["itemknn"]
        del mf.hyper[key]
        with pytest.raises(ModelFormatError, match=f"lacks '{key}'"):
            load_and_convert(to_bytes(mf))

    @pytest.mark.parametrize("value", [-2.0, 5.0, 1.5])
    def test_itemknn_neighbor_must_be_an_item(self, value):
        mf = tiny_models()["itemknn"]
        mf.matrices["neighbor_index"][2, 1] = value
        with pytest.raises(ModelFormatError, match="neighbor_index"):
            load_and_convert(to_bytes(mf))

    def test_too_many_layers_rejected_before_listing_them(self):
        mf = tiny_models()["gru"]
        mf.hyper["n_layers"] = str(10**12)
        with pytest.raises(ModelFormatError, match="cannot hold"):
            load_and_convert(to_bytes(mf))

    def test_bad_ids_counts_and_trailing_bytes_rejected(self):
        raw = to_bytes(tiny_models()["pop"])
        with pytest.raises(ModelFormatError, match="after its last matrix"):
            load_model_file(io.BytesIO(raw + b"\x00"))
        # item ids are "item0" .. "item4": make one not UTF-8, then a duplicate
        pos = raw.index(b"item3") + 4
        with pytest.raises(ModelFormatError, match="UTF-8"):
            load_model_file(io.BytesIO(raw[:pos] + b"\xff" + raw[pos + 1:]))
        with pytest.raises(ModelFormatError, match="duplicate"):
            load_model_file(io.BytesIO(raw[:pos] + b"2" + raw[pos + 1:]))
        # the last popularity count's top byte: a count of 2**63 or more
        top = raw.index(b"item4") + 5 + 8 * 5 - 1
        with pytest.raises(ModelFormatError, match="popularity"):
            load_model_file(io.BytesIO(raw[:top] + b"\x80" + raw[top + 1:]))

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_corrupt_files_raise_only_model_format_error(self, data):
        models = tiny_models()
        name = data.draw(st.sampled_from(sorted(models)))
        raw = to_bytes(models[name])
        how = data.draw(st.sampled_from(["truncate", "flip", "drop"]))
        if how == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif how == "flip":
            pos = data.draw(st.integers(0, len(raw) - 1))
            raw = raw[:pos] + bytes([raw[pos] ^ data.draw(st.integers(1, 255))]) + raw[pos + 1:]
        elif models[name].matrices:
            mf = models[name]
            del mf.matrices[data.draw(st.sampled_from(sorted(mf.matrices)))]
            raw = to_bytes(mf)
        try:
            mf, _ = load_and_convert(raw)
        except ModelFormatError:
            return
        # whatever loads gives a scorer with a score per vocabulary item; a
        # flipped exponent may leave a huge finite value that overflows there
        if len(mf.vocab):
            with np.errstate(over="ignore", invalid="ignore"):
                assert _scorer_for(mf).step(0).shape == (len(mf.vocab),)
