"""Versioned binary container for trained models.

Layout (all integers little-endian):

    magic   4 bytes  b"SRE1"
    version u32
    kind    length-prefixed UTF-8 string (gru | pop | spop | itemknn | bprmf)
    vocab   u32 item count, then per item a length-prefixed UTF-8 id,
            then item-count u64 popularity counts
    hyper   u32 pair count, then per pair two length-prefixed strings
    params  u32 matrix count, then per matrix a length-prefixed name,
            u32 rows, u32 cols, rows*cols float64 values row-major

Round-trips are bit-exact; unknown magic or version is rejected loudly.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from .baselines import BprMfModel, ItemKnnModel
from .data import ItemVocab
from .gru import HyperParams, NetworkParams, hyper_field_types

__all__ = ["ModelFile", "ModelFormatError", "save_model_file", "load_model_file",
           "gru_to_file", "gru_from_file", "itemknn_to_file", "itemknn_from_file",
           "bprmf_to_file", "bprmf_from_file", "baseline_to_file"]

MAGIC = b"SRE1"
VERSION = 1
KINDS = ("gru", "pop", "spop", "itemknn", "bprmf")


class ModelFormatError(ValueError):
    pass


@dataclass
class ModelFile:
    kind: str
    vocab: ItemVocab
    hyper: dict[str, str] = field(default_factory=dict)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)


def _write_str(f: BinaryIO, s: str) -> None:
    b = s.encode("utf-8")
    f.write(struct.pack("<I", len(b)))
    f.write(b)


def _read_exact(f: BinaryIO, n: int) -> bytes:
    b = f.read(n)
    if len(b) != n:
        raise ModelFormatError(f"truncated model file: wanted {n} bytes, got {len(b)}")
    return b


def _read_str(f: BinaryIO) -> str:
    (n,) = struct.unpack("<I", _read_exact(f, 4))
    return _read_exact(f, n).decode("utf-8")


def save_model_file(mf: ModelFile, f: BinaryIO) -> None:
    if mf.kind not in KINDS:
        raise ModelFormatError(f"unknown model kind: {mf.kind}")
    f.write(MAGIC)
    f.write(struct.pack("<I", VERSION))
    _write_str(f, mf.kind)
    f.write(struct.pack("<I", len(mf.vocab)))
    for item in mf.vocab.items:
        _write_str(f, item)
    f.write(np.asarray(mf.vocab.popularity, dtype="<u8").tobytes())
    f.write(struct.pack("<I", len(mf.hyper)))
    for key in sorted(mf.hyper):
        _write_str(f, key)
        _write_str(f, mf.hyper[key])
    f.write(struct.pack("<I", len(mf.matrices)))
    for name in sorted(mf.matrices):
        m = np.atleast_2d(np.asarray(mf.matrices[name], dtype=np.float64))
        _write_str(f, name)
        f.write(struct.pack("<II", m.shape[0], m.shape[1]))
        f.write(m.astype("<f8").tobytes(order="C"))


def load_model_file(f: BinaryIO) -> ModelFile:
    magic = _read_exact(f, 4)
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<I", _read_exact(f, 4))
    if version != VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    kind = _read_str(f)
    if kind not in KINDS:
        raise ModelFormatError(f"unknown model kind: {kind}")
    (n_items,) = struct.unpack("<I", _read_exact(f, 4))
    items = [_read_str(f) for _ in range(n_items)]
    pop = np.frombuffer(_read_exact(f, 8 * n_items), dtype="<u8").astype(np.int64)
    vocab = ItemVocab(items, pop)
    (n_pairs,) = struct.unpack("<I", _read_exact(f, 4))
    hyper = {}
    for _ in range(n_pairs):
        k = _read_str(f)
        hyper[k] = _read_str(f)
    (n_mat,) = struct.unpack("<I", _read_exact(f, 4))
    matrices = {}
    for _ in range(n_mat):
        name = _read_str(f)
        rows, cols = struct.unpack("<II", _read_exact(f, 8))
        data = np.frombuffer(_read_exact(f, 8 * rows * cols), dtype="<f8")
        matrices[name] = data.reshape(rows, cols).copy()
    return ModelFile(kind, vocab, hyper, matrices)


# --- conversions between model objects and the container ---


def _hyper_value(text: str, typ: type, optional: bool):
    if optional and text == "":
        return None
    if typ is bool:
        if text not in ("True", "False"):
            raise ValueError(text)
        return text == "True"
    return typ(text)


def _hyper_from_kv(kv: dict[str, str]) -> HyperParams:
    """Every HyperParams field from the hyper block, read by the field's type."""
    values = {}
    for name, (typ, optional) in hyper_field_types().items():
        if name not in kv:
            raise ModelFormatError(f"hyper block lacks {name!r}")
        try:
            values[name] = _hyper_value(kv[name], typ, optional)
        except ValueError:
            raise ModelFormatError(
                f"hyper {name} = {kv[name]!r} is not a {typ.__name__}"
            ) from None
    try:
        return HyperParams(**values)
    except ValueError as exc:
        raise ModelFormatError(f"bad hyperparameters in model file: {exc}") from exc


def gru_to_file(params: NetworkParams, vocab: ItemVocab) -> ModelFile:
    """The hyper block holds every HyperParams field as ``str(value)``,
    or ``""`` for None."""
    hyper = {name: "" if value is None else str(value)
             for name, value in dataclasses.asdict(params.hyper).items()}
    matrices = {name: arr for name, arr in params.named_params()}
    return ModelFile("gru", vocab, hyper, matrices)


def gru_from_file(mf: ModelFile) -> NetworkParams:
    return NetworkParams.from_named(len(mf.vocab), _hyper_from_kv(mf.hyper), mf.matrices)


def itemknn_to_file(model: ItemKnnModel, vocab: ItemVocab) -> ModelFile:
    # neighbor indices are stored as float64; exact for any realistic catalog
    return ModelFile(
        "itemknn",
        vocab,
        {"lambda": repr(model.lam), "k": str(model.k)},
        {
            "neighbor_index": model.neighbor_index.astype(np.float64),
            "neighbor_sim": model.neighbor_sim,
        },
    )


def itemknn_from_file(mf: ModelFile) -> ItemKnnModel:
    return ItemKnnModel(
        n_items=len(mf.vocab),
        neighbor_index=mf.matrices["neighbor_index"].astype(np.int64),
        neighbor_sim=mf.matrices["neighbor_sim"],
        lam=float(mf.hyper["lambda"]),
        k=int(mf.hyper["k"]),
    )


def bprmf_to_file(model: BprMfModel, vocab: ItemVocab, hyper: dict[str, str] | None = None) -> ModelFile:
    return ModelFile("bprmf", vocab, hyper or {}, {"factors": model.factors})


def bprmf_from_file(mf: ModelFile) -> BprMfModel:
    return BprMfModel(mf.matrices["factors"])


def baseline_to_file(kind: str, vocab: ItemVocab) -> ModelFile:
    """POP and S-POP need nothing beyond the vocabulary."""
    if kind not in ("pop", "spop"):
        raise ModelFormatError(f"not a vocabulary-only baseline: {kind}")
    return ModelFile(kind, vocab)
