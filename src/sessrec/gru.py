"""The recurrent scoring network.

One or more GRU layers over 1-of-N (or discounted weighted-sum) session
input, with a tanh-activated linear output layer scoring items. Forward
stepping works on session-parallel mini-batches; the backward pass produces
gradients with the hidden state carried in from the previous step treated
as constant (truncated backpropagation, horizon one). Gradients of the
item-indexed matrices are row-compact: the output weights get rows only for
the sampled score columns and the input weights only for the items in the
batch, so a step's cost does not grow with the catalog.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .data import MiniBatch
from .linalg import make_rng, sigmoid, uniform_init
from .losses import LOSSES
from .optim import OPTIMIZERS, dropout_mask

__all__ = [
    "HyperParams",
    "GruLayerParams",
    "NetworkParams",
    "HiddenState",
    "ForwardCache",
    "Gradients",
    "hyper_field_types",
    "param_shapes",
    "init_network",
    "discounted_input",
    "forward_step",
    "backward_step",
    "score_all",
]

INPUT_MODES = ("one_hot", "discounted_sum")


@dataclass
class HyperParams:
    """Training configuration. Defaults follow the best TOP1 parametrization
    on the e-commerce click data: batch 50, dropout 0.5, lr 0.01, momentum 0.

    The fields are the one list of hyperparameters: the model file's hyper
    block and the ``train`` flags are generated from them, field order being
    the flags' order in ``--help``. A field's ``choices`` metadata lists the
    values it accepts.
    """

    loss_kind: str = field(default="top1", metadata={"choices": tuple(LOSSES)})
    hidden_size: int = 100
    n_layers: int = 1
    batch_width: int = 50
    learning_rate: float = 0.01
    momentum: float = 0.0
    dropout_rate: float = 0.5
    optimizer_kind: str = field(default="adagrad", metadata={"choices": OPTIMIZERS})
    rmsprop_decay: float = 0.9
    epochs: int = 10
    seed: int = 42
    input_mode: str = field(default="one_hot", metadata={"choices": INPUT_MODES})
    input_decay: float = 1.0
    deep_input: bool = False
    use_bias: bool = False
    init_scale: float | None = None

    def __post_init__(self):
        if self.hidden_size < 1 or self.n_layers < 1 or self.batch_width < 1:
            raise ValueError("hidden_size, n_layers and batch_width must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate out of [0, 1): {self.dropout_rate}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0: {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum out of [0, 1): {self.momentum}")
        for f in dataclasses.fields(self):
            choices = f.metadata.get("choices")
            if choices is not None and getattr(self, f.name) not in choices:
                raise ValueError(f"unknown {f.name}: {getattr(self, f.name)!r}")
        if not 0.0 <= self.rmsprop_decay < 1.0:
            raise ValueError(f"rmsprop_decay out of [0, 1): {self.rmsprop_decay}")
        if not 0.0 < self.input_decay <= 1.0:
            raise ValueError(f"input_decay out of (0, 1]: {self.input_decay}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self.seed}")
        if self.init_scale is not None and not (
            math.isfinite(self.init_scale) and self.init_scale > 0.0
        ):
            raise ValueError(f"init_scale must be finite and > 0: {self.init_scale}")


def hyper_field_types() -> dict[str, tuple[type, bool]]:
    """Each HyperParams field's type and whether it may be None, in field order."""
    out = {}
    for name, hint in typing.get_type_hints(HyperParams).items():
        args = typing.get_args(hint)  # (float, NoneType) for "float | None"
        out[name] = (args[0], True) if type(None) in args else (hint, False)
    return out


@dataclass
class GruLayerParams:
    """Gate matrices of one layer.

    ``W_*`` map the layer input (item rows for the first layer, lower hidden
    state -- optionally with item rows appended -- for deeper layers) to the
    hidden space; ``U_*`` are the recurrent matrices. Biases are optional
    and absent by default.
    """

    W_z: np.ndarray
    W_r: np.ndarray
    W: np.ndarray
    U_z: np.ndarray
    U_r: np.ndarray
    U: np.ndarray
    b_z: np.ndarray | None = None
    b_r: np.ndarray | None = None
    b: np.ndarray | None = None

    @property
    def hidden_size(self) -> int:
        return self.U.shape[0]


_LAYER_WEIGHTS = ("W_z", "W_r", "W", "U_z", "U_r", "U")
_LAYER_BIASES = ("b_z", "b_r", "b")


@dataclass
class NetworkParams:
    n_items: int
    layers: list[GruLayerParams]
    W_out: np.ndarray  # (n_items, hidden of last layer)
    b_out: np.ndarray | None
    hyper: HyperParams

    def named_params(self):
        """(name, array) pairs for every trainable parameter."""
        out = []
        for i, lp in enumerate(self.layers):
            for nm in _LAYER_WEIGHTS + _LAYER_BIASES:
                arr = getattr(lp, nm)
                if arr is not None:
                    out.append((f"layers.{i}.{nm}", arr))
        out.append(("W_out", self.W_out))
        if self.b_out is not None:
            out.append(("b_out", self.b_out))
        return out

    @classmethod
    def from_named(
        cls, n_items: int, hyper: HyperParams, named: dict[str, np.ndarray]
    ) -> "NetworkParams":
        """Inverse of :meth:`named_params`; 1-row bias matrices become vectors."""

        def vec(m: np.ndarray | None) -> np.ndarray | None:
            return None if m is None else m.reshape(-1)

        layers = [
            GruLayerParams(**{nm: named[f"layers.{i}.{nm}"] for nm in _LAYER_WEIGHTS},
                           **{nm: vec(named.get(f"layers.{i}.{nm}")) for nm in _LAYER_BIASES})
            for i in range(hyper.n_layers)
        ]
        return cls(n_items, layers, named["W_out"], vec(named.get("b_out")), hyper)


class HiddenState:
    """Per-layer hidden activations, one row per active session lane.

    In discounted-sum input mode ``acc`` holds each lane's input accumulator,
    one row of item weights per lane (see :func:`discounted_input`); it is
    None in 1-of-N mode.
    """

    def __init__(self, layers: list[np.ndarray], acc: np.ndarray | None = None):
        self.layers = layers
        self.acc = acc

    @classmethod
    def zeros(cls, params: NetworkParams, width: int) -> "HiddenState":
        """The state of ``width`` lanes that have seen no event."""
        hyper = params.hyper
        acc = None
        if hyper.input_mode == "discounted_sum":
            acc = np.zeros((width, params.n_items))
        return cls([np.zeros((width, hyper.hidden_size)) for _ in range(hyper.n_layers)], acc)

    @property
    def width(self) -> int:
        return self.layers[0].shape[0]

    def reorder(self, prev_lanes: np.ndarray) -> "HiddenState":
        """Realign lane rows after the batcher replaced or dropped lanes."""
        acc = None if self.acc is None else self.acc[prev_lanes]
        return HiddenState([h[prev_lanes] for h in self.layers], acc)


def param_shapes(n_items: int, hyper: HyperParams) -> dict[str, tuple[int, int]]:
    """Name and shape of every parameter, in :meth:`NetworkParams.named_params`
    order; biases are 1-row matrices, as the model file stores them."""
    h = hyper.hidden_size
    shapes = {}
    for i in range(hyper.n_layers):
        in_dim = n_items if i == 0 else h + (n_items if hyper.deep_input else 0)
        for nm in _LAYER_WEIGHTS:
            shapes[f"layers.{i}.{nm}"] = (in_dim, h) if nm.startswith("W") else (h, h)
        if hyper.use_bias:
            shapes.update({f"layers.{i}.{nm}": (1, h) for nm in _LAYER_BIASES})
    shapes["W_out"] = (n_items, h)
    if hyper.use_bias:
        shapes["b_out"] = (1, n_items)
    return shapes


def init_network(n_items: int, hyper: HyperParams) -> NetworkParams:
    """Seeded network initialization; same hyperparameters give the same net.

    Weights are drawn in :func:`param_shapes` order; biases start at zero.
    """
    rng = make_rng(hyper.seed)
    named = {
        name: np.zeros(shape) if name.rsplit(".", 1)[-1].startswith("b")
        else uniform_init(*shape, rng, scale=hyper.init_scale)
        for name, shape in param_shapes(n_items, hyper).items()
    }
    return NetworkParams.from_named(n_items, hyper, named)


@dataclass
class _LayerCache:
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    c: np.ndarray
    h: np.ndarray
    h_dropped: np.ndarray
    mask: np.ndarray


@dataclass
class ForwardCache:
    """Intermediates of one forward step, needed by backward_step."""

    items: np.ndarray
    input_vectors: np.ndarray | None  # (B, n_items), discounted mode only
    sampled_columns: np.ndarray
    layer: list[_LayerCache] = field(default_factory=list)
    linear_scores: np.ndarray | None = None  # pre-tanh output scores
    scores: np.ndarray | None = None


class Gradients(dict):
    """Parameter name -> gradient, as returned by :func:`backward_step`.

    ``rows[name]``, where present, lists in ascending order the parameter
    rows that the gradient's rows belong to; every other parameter row has
    a zero gradient. A name without an entry has a gradient of the
    parameter's full shape.
    """

    def __init__(self):
        super().__init__()
        self.rows: dict[str, np.ndarray] = {}

    def set(self, name: str, grad: np.ndarray, rows: np.ndarray | None = None) -> None:
        self[name] = grad
        if rows is not None:
            self.rows[name] = rows


def _scatter_rows(n_rows: int, inverse: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.add.at`` of ``values`` into ``n_rows`` zero rows, in index order."""
    block = np.zeros((n_rows,) + values.shape[1:])
    np.add.at(block, inverse, values)
    return block


def _check_in_vocab(idx: np.ndarray, n_items: int, what: str) -> None:
    bad = idx[(idx < 0) | (idx >= n_items)]
    if bad.size:
        raise IndexError(f"{what} out of vocabulary: {bad[0]}")


def discounted_input(h: HiddenState, batch: MiniBatch, decay: float) -> np.ndarray | None:
    """Advance each lane's discounted-sum accumulator by the batch's event and
    return its rows scaled to unit norm, the input that :func:`forward_step`
    takes in that mode.

    A lane flagged in ``batch.reset_mask`` starts from zero, every weight is
    multiplied by ``decay`` and the input item's weight grows by 1, so the
    event ``k`` steps back weighs ``decay**k`` and repeats add up. Training
    and serving both build the input here, so they feed the same bits. A
    state without an accumulator (1-of-N input) gives None.
    """
    acc = h.acc
    if acc is None:
        return None
    acc[batch.reset_mask] = 0.0
    acc *= decay
    acc[np.arange(batch.width), batch.inputs] += 1.0
    return acc / np.linalg.norm(acc, axis=1, keepdims=True)


def forward_step(
    params: NetworkParams,
    batch: MiniBatch,
    h: HiddenState,
    sampled_columns: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
    input_vectors: np.ndarray | None = None,
) -> tuple[np.ndarray, HiddenState, ForwardCache]:
    """Advance every lane one event and score the sampled items.

    Hidden rows flagged in ``batch.reset_mask`` are zeroed (all layers)
    before stepping. Scores are ``tanh(h_last . W_out[cols].T)``; the
    pre-activation scores are kept on the returned cache for losses that
    consume linear scores. :func:`score_all` scores the full vocabulary.

    ``input_vectors`` carries the unit-norm discounted-sum input rows (see
    :func:`discounted_input`) and is required in that mode; in 1-of-N mode
    the batch's item indices are used directly as row lookups. The returned
    state keeps ``h``'s accumulator.
    """
    hyper = params.hyper
    items = np.asarray(batch.inputs, dtype=np.intp)
    _check_in_vocab(items, params.n_items, "input item index")
    cols = np.asarray(sampled_columns, dtype=np.intp)
    _check_in_vocab(cols, params.n_items, "sampled column")
    if hyper.input_mode == "discounted_sum":
        if input_vectors is None:
            raise ValueError("discounted_sum input mode requires input_vectors")

        def item_feed(W):
            return input_vectors @ W
    else:
        input_vectors = None

        def item_feed(W):
            return W[items]  # 1-of-N input: plain row lookup
    if training and hyper.dropout_rate > 0.0 and rng is None:
        raise ValueError("training with dropout requires an rng")

    cache = ForwardCache(items=items, input_vectors=input_vectors, sampled_columns=cols)
    lower: np.ndarray | None = None
    new_layers: list[np.ndarray] = []
    for li, lp in enumerate(params.layers):
        h_prev = h.layers[li].copy()
        h_prev[batch.reset_mask] = 0.0
        # W_z/W_r/W contributions of the layer input: the items for the first
        # layer; the lower layer's output, then the items if deep, above it
        hdim = lp.hidden_size
        feeds = []
        for W in (lp.W_z, lp.W_r, lp.W):
            if li == 0:
                f = item_feed(W)
            else:
                f = lower @ W[:hdim]
                if hyper.deep_input:
                    f = f + item_feed(W[hdim:])
            feeds.append(f)
        f_z, f_r, f_c = feeds
        if lp.b_z is not None:
            f_z = f_z + lp.b_z
            f_r = f_r + lp.b_r
            f_c = f_c + lp.b
        z = sigmoid(f_z + h_prev @ lp.U_z)
        r = sigmoid(f_r + h_prev @ lp.U_r)
        c = np.tanh(f_c + (r * h_prev) @ lp.U)
        h_new = (1.0 - z) * h_prev + z * c
        mask = dropout_mask(h_new.shape, hyper.dropout_rate, rng, training=training)
        h_dropped = h_new * mask
        cache.layer.append(_LayerCache(h_prev, z, r, c, h_new, h_dropped, mask))
        new_layers.append(h_new)
        lower = h_dropped

    linear = lower @ params.W_out[cols].T
    if params.b_out is not None:
        linear = linear + params.b_out[cols]
    cache.linear_scores = linear
    cache.scores = np.tanh(linear)
    return cache.scores, HiddenState(new_layers, h.acc), cache


def backward_step(
    params: NetworkParams,
    cache: ForwardCache,
    dscores: np.ndarray,
    on_preactivation: bool = False,
) -> Gradients:
    """Gradients of a scalar loss with respect to every parameter.

    ``dscores`` is the loss gradient on the step's scores: on the tanh
    outputs by default, or on the pre-activation scores when
    ``on_preactivation`` is set (cross-entropy). The hidden state carried in
    from the previous step is treated as constant.

    Item-indexed gradients are row-compact (see :class:`Gradients`):
    ``W_out`` and ``b_out`` hold one row per distinct sampled column; the
    first layer's ``W_z``/``W_r``/``W`` hold one row per distinct input item
    (one-hot) or per item with a non-zero input weight (discounted sum);
    deeper layers with deep input hold their ``hidden`` recurrent-input rows
    followed by the item rows. Duplicate columns or items sum in batch order,
    so every row equals that of the dense gradient bit for bit, and all rows
    left out are exactly zero in it. The other gradients are dense.
    """
    if cache.scores is None:
        raise ValueError("forward cache is incomplete; run forward_step first")
    hyper = params.hyper
    cols = cache.sampled_columns
    if on_preactivation:
        d_lin = np.asarray(dscores, dtype=np.float64)
    else:
        d_lin = np.asarray(dscores, dtype=np.float64) * (1.0 - cache.scores**2)

    grads = Gradients()
    last = cache.layer[-1].h_dropped
    out_rows, out_inv = np.unique(cols, return_inverse=True)
    grads.set("W_out", _scatter_rows(len(out_rows), out_inv, d_lin.T @ last), out_rows)
    if params.b_out is not None:
        grads.set("b_out", _scatter_rows(len(out_rows), out_inv, d_lin.sum(axis=0)), out_rows)

    iv = cache.input_vectors
    if iv is not None:
        # The full GEMM, then sliced: a GEMM over fewer columns may round
        # differently, and retrains must stay byte-identical.
        item_rows = np.flatnonzero(iv.any(axis=0))

        def item_grad(da):
            return (iv.T @ da)[item_rows]
    else:
        item_rows, item_inv = np.unique(cache.items, return_inverse=True)

        def item_grad(da):
            return _scatter_rows(len(item_rows), item_inv, da)
    # deep-input layers: the lower layer's hidden rows, then the item rows
    deep_rows = np.concatenate([np.arange(hyper.hidden_size), hyper.hidden_size + item_rows])

    d_hd = d_lin @ params.W_out[cols]  # grad on the dropped output of the top layer
    for li in range(len(params.layers) - 1, -1, -1):
        lp = params.layers[li]
        lc = cache.layer[li]
        dh = d_hd * lc.mask
        dz = dh * (lc.c - lc.h_prev)
        dc = dh * lc.z
        da_c = dc * (1.0 - lc.c**2)
        da_z = dz * lc.z * (1.0 - lc.z)
        dr = (da_c @ lp.U.T) * lc.h_prev
        da_r = dr * lc.r * (1.0 - lc.r)

        pre = f"layers.{li}."
        grads.set(pre + "U", (lc.r * lc.h_prev).T @ da_c)
        grads.set(pre + "U_z", lc.h_prev.T @ da_z)
        grads.set(pre + "U_r", lc.h_prev.T @ da_r)
        if lp.b_z is not None:
            grads.set(pre + "b_z", da_z.sum(axis=0))
            grads.set(pre + "b_r", da_r.sum(axis=0))
            grads.set(pre + "b", da_c.sum(axis=0))

        hdim = lp.hidden_size
        for nm, da in (("W_z", da_z), ("W_r", da_r), ("W", da_c)):
            if li == 0:
                grads.set(pre + nm, item_grad(da), item_rows)
            else:
                g = cache.layer[li - 1].h_dropped.T @ da
                if hyper.deep_input:
                    grads.set(pre + nm, np.concatenate([g, item_grad(da)]), deep_rows)
                else:
                    grads.set(pre + nm, g)

        if li > 0:
            d_hd = (
                da_z @ lp.W_z[:hdim].T
                + da_r @ lp.W_r[:hdim].T
                + da_c @ lp.W[:hdim].T
            )
    return grads


def score_all(params: NetworkParams, h_lane: np.ndarray) -> np.ndarray:
    """Scores over the full vocabulary for one lane's top-layer hidden row."""
    s = np.asarray(h_lane, dtype=np.float64) @ params.W_out.T
    if params.b_out is not None:
        s = s + params.b_out
    return np.tanh(s)
