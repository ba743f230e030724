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

from .baselines import BprMfModel, ItemKnnModel, neighbor_width
from .data import ItemVocab
from .gru import HyperParams, NetworkParams, hyper_field_types, param_shapes

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
    try:
        b = f.read(n)
    except (OverflowError, MemoryError):  # a corrupt length no buffer can hold
        b = b""
    if len(b) != n:
        raise ModelFormatError(f"truncated model file: wanted {n} bytes, got {len(b)}")
    return b


def _read_str(f: BinaryIO) -> str:
    (n,) = struct.unpack("<I", _read_exact(f, 4))
    try:
        return _read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"string in model file is not UTF-8: {exc}") from None


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
    pop = np.frombuffer(_read_exact(f, 8 * n_items), dtype="<i8").astype(np.int64)
    if (pop < 0).any():  # written as u64, so a count of 2**63 or more
        raise ModelFormatError("popularity count out of range in model file")
    try:
        vocab = ItemVocab(items, pop)
    except ValueError as exc:
        raise ModelFormatError(f"bad vocabulary in model file: {exc}") from None
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
    if f.read(1):
        raise ModelFormatError("model file has bytes after its last matrix")
    return ModelFile(kind, vocab, hyper, matrices)


# --- conversions between model objects and the container ---


def _hyper_value(kv: dict[str, str], name: str, typ: type, optional: bool = False):
    """The hyper block's ``name`` read as a ``typ``; ``""`` is None if optional."""
    if name not in kv:
        raise ModelFormatError(f"hyper block lacks {name!r}")
    text = kv[name]
    if optional and text == "":
        return None
    try:
        if typ is bool:
            if text not in ("True", "False"):
                raise ValueError(text)
            return text == "True"
        return typ(text)
    except ValueError:
        raise ModelFormatError(f"hyper {name} = {text!r} is not a {typ.__name__}") from None


def _hyper_from_kv(kv: dict[str, str]) -> HyperParams:
    """Every HyperParams field from the hyper block, read by the field's type."""
    values = {name: _hyper_value(kv, name, typ, optional)
              for name, (typ, optional) in hyper_field_types().items()}
    try:
        return HyperParams(**values)
    except ValueError as exc:
        raise ModelFormatError(f"bad hyperparameters in model file: {exc}") from exc


def _checked_matrices(mf: ModelFile, shapes: dict[str, tuple[int, int]]) -> dict[str, np.ndarray]:
    """``mf``'s matrices, which must be exactly those named in ``shapes``,
    each of its shape and with finite values only."""
    for name in mf.matrices:
        if name not in shapes:
            raise ModelFormatError(f"unexpected matrix {name!r} in {mf.kind} model file")
    for name, (rows, cols) in shapes.items():
        m = mf.matrices.get(name)
        if m is None:
            raise ModelFormatError(f"{mf.kind} model file lacks matrix {name!r}")
        if m.shape != (rows, cols):
            raise ModelFormatError(
                f"matrix {name} is {m.shape[0]}x{m.shape[1]}, expected {rows}x{cols}")
        if not np.isfinite(m).all():
            raise ModelFormatError(f"matrix {name} holds a non-finite value")
    return mf.matrices


def gru_to_file(params: NetworkParams, vocab: ItemVocab) -> ModelFile:
    """The hyper block holds every HyperParams field as ``str(value)``,
    or ``""`` for None."""
    hyper = {name: "" if value is None else str(value)
             for name, value in dataclasses.asdict(params.hyper).items()}
    matrices = {name: arr for name, arr in params.named_params()}
    return ModelFile("gru", vocab, hyper, matrices)


def gru_from_file(mf: ModelFile) -> NetworkParams:
    n_items, hyper = len(mf.vocab), _hyper_from_kv(mf.hyper)
    if hyper.n_layers > len(mf.matrices):  # before listing the layers' shapes
        raise ModelFormatError(f"{len(mf.matrices)} matrices cannot hold {hyper.n_layers} layers")
    matrices = _checked_matrices(mf, param_shapes(n_items, hyper))
    return NetworkParams.from_named(n_items, hyper, matrices)


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
    n_items = len(mf.vocab)
    lam, k = _hyper_value(mf.hyper, "lambda", float), _hyper_value(mf.hyper, "k", int)
    if k < 1 or not (np.isfinite(lam) and lam >= 0):
        raise ModelFormatError(f"bad Item-KNN parameters in model file: k={k}, lambda={lam}")
    width = neighbor_width(n_items, k)
    matrices = _checked_matrices(mf, {"neighbor_index": (n_items, width),
                                      "neighbor_sim": (n_items, width)})
    index = matrices["neighbor_index"]
    if np.any((index != np.floor(index)) | (index < -1) | (index >= n_items)):
        raise ModelFormatError("neighbor_index holds a value that is neither an item nor -1")
    return ItemKnnModel(n_items, index.astype(np.int64), matrices["neighbor_sim"], lam, k)


def bprmf_to_file(model: BprMfModel, vocab: ItemVocab, hyper: dict[str, str] | None = None) -> ModelFile:
    return ModelFile("bprmf", vocab, hyper or {}, {"factors": model.factors})


def bprmf_from_file(mf: ModelFile) -> BprMfModel:
    """The factors must have a row per item; their width is the model's.

    Twice the largest squared row norm must be finite: by Cauchy-Schwarz it
    bounds every score of a prefix mean, so no score overflows.
    """
    d = mf.matrices["factors"].shape[1] if "factors" in mf.matrices else 1
    factors = _checked_matrices(mf, {"factors": (len(mf.vocab), max(d, 1))})["factors"]
    with np.errstate(over="ignore"):
        bound = 2.0 * np.einsum("ij,ij->i", factors, factors).max(initial=0.0)
    if not np.isfinite(bound):
        raise ModelFormatError("matrix factors is too large: session scores would overflow")
    return BprMfModel(factors)


def baseline_to_file(kind: str, vocab: ItemVocab) -> ModelFile:
    """POP and S-POP need nothing beyond the vocabulary."""
    if kind not in ("pop", "spop"):
        raise ModelFormatError(f"not a vocabulary-only baseline: {kind}")
    return ModelFile(kind, vocab)
