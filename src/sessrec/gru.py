"""The recurrent scoring network.

One or more GRU layers over 1-of-N (or discounted weighted-sum) session
input, with a tanh-activated linear output layer scoring items. Forward
stepping works on session-parallel mini-batches: one :func:`forward_step`
call per batch realigns the lanes' state, resetting the lanes that start a
new session, builds the batch's input and advances every lane, for
training and serving alike. The backward pass produces
gradients with the hidden state carried in from the previous step treated
as constant (truncated backpropagation, horizon one). Every item-indexed
read and write goes through one sparse map of item weights per lane
(:class:`LaneItems`): the 1-of-N input is a map of one item per lane, the
discounted-sum input a map of each lane's session items, and the output
layer's sampled columns a map of one column each. A feed gathers only the
mapped items' rows and a gradient scatters only into them, so gradients of
the item-indexed matrices are row-compact and a step's cost follows the
batch width and the sessions' lengths, not the catalog size.
"""

from __future__ import annotations

import dataclasses
import functools
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
    "LaneItems",
    "HiddenState",
    "ForwardCache",
    "Gradients",
    "hyper_field_types",
    "param_shapes",
    "init_network",
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


class LaneItems:
    """A sparse row of item weights per session lane.

    The rows are flat arrays in lane-major order: lane ``k`` holds the items
    ``items[offsets[k]:offsets[k + 1]]``, ascending, with the matching
    ``weights``. It is the GRU's one gather (:meth:`feed`) and scatter
    (:meth:`grad`) of item rows, and it holds per-lane session items, which
    :meth:`realign` moves to the next batch's lanes and :meth:`accumulate`
    advances: each lane's discounted-sum accumulator in a :class:`HiddenState`,
    which :meth:`unit_norm` scales into the input, and S-POP's counts.
    :meth:`one_hot` maps the 1-of-N input, and the output layer's sampled
    columns, one item per lane.
    """

    def __init__(self, n_items: int, offsets: np.ndarray, items: np.ndarray,
                 weights: np.ndarray):
        self.n_items = n_items
        self.offsets = offsets
        self.items = items
        self.weights = weights

    @classmethod
    def empty(cls, n_items: int, width: int) -> "LaneItems":
        return cls(n_items, np.zeros(width + 1, dtype=np.intp), np.empty(0, dtype=np.intp),
                   np.empty(0))

    @classmethod
    def one_hot(cls, n_items: int, items: np.ndarray) -> "LaneItems":
        """Lane ``k`` holds ``items[k]`` alone, at weight 1.0."""
        return cls(n_items, np.arange(len(items) + 1, dtype=np.intp), items,
                   np.ones(len(items)))

    @property
    def width(self) -> int:
        return len(self.offsets) - 1

    @functools.cached_property
    def lanes(self) -> np.ndarray:
        """The lane of every entry."""
        return np.arange(self.width).repeat(self.offsets[1:] - self.offsets[:-1])

    @functools.cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self.items, return_inverse=True)

    @property
    def rows(self) -> np.ndarray:
        """The distinct items of all lanes, ascending."""
        return self._distinct[0]

    def realign(self, batch: MiniBatch) -> "LaneItems":
        """The map in ``batch``'s lane order, reset lanes empty."""
        starts = batch.realign(self.offsets[:-1])
        counts = batch.realign(self.offsets[1:]) - starts
        offsets = np.zeros(len(counts) + 1, dtype=np.intp)
        counts.cumsum(out=offsets[1:])
        idx = (starts - offsets[:-1]).repeat(counts) + np.arange(offsets[-1])
        return LaneItems(self.n_items, offsets, self.items[idx], self.weights[idx])

    def accumulate(self, items: np.ndarray, decay: float) -> "LaneItems":
        """Every weight times ``decay``, and 1 added to each lane's item of
        ``items``, inserted in order where the lane does not hold it."""
        n = self.n_items
        # ``lane * n + item`` keys ascend through a lane-major map; a stable
        # merge puts each input right after an entry of the same key
        keys = np.concatenate((self.lanes * n + self.items, np.arange(len(items)) * n + items))
        order = keys.argsort(kind="stable")
        keys = keys[order]
        weights = np.concatenate((self.weights * decay, np.ones(len(items))))[order]
        again = keys[1:] == keys[:-1]
        weights[:-1][again] += 1.0
        kept = np.concatenate(([True], ~again))
        keys, weights = keys[kept], weights[kept]
        offsets = np.searchsorted(keys, np.arange(len(items) + 1) * n)
        return LaneItems(n, offsets, keys % n, weights)

    def unit_norm(self) -> "LaneItems":
        """The map with each lane's weights scaled to unit Euclidean norm.
        Every lane must hold an item."""
        norms = np.sqrt(np.add.reduceat(self.weights * self.weights, self.offsets[:-1]))
        return LaneItems(self.n_items, self.offsets, self.items, self.weights / norms[self.lanes])

    def feed(self, W: np.ndarray) -> np.ndarray:
        """Each lane's weighted sum of ``W``'s item rows, summed in item
        order; shape (width, columns of ``W``). Every lane must hold an item."""
        rows = self.weights[:, None] * W[self.items]
        if len(self.items) == self.width:  # one item per lane: its row is its sum
            return rows
        return np.add.reduceat(rows, self.offsets[:-1])

    def grad(self, da: np.ndarray) -> np.ndarray:
        """The gradient of :meth:`feed` onto ``W``'s :attr:`rows`, given the
        gradient ``da`` on its output: each entry adds ``weight * da[lane]``
        to its item's row, in batch order.

        ``np.bincount`` over (row, column) cells adds in that order from zero,
        as an unbuffered scatter-add of the rows (the tests' oracle) would, at
        a fraction of its cost."""
        rows, inverse = self._distinct
        h = da.shape[1]
        cells = (inverse[:, None] * h + np.arange(h)).ravel()
        terms = (self.weights[:, None] * da[self.lanes]).ravel()
        return np.bincount(cells, weights=terms, minlength=len(rows) * h).reshape(len(rows), h)


class HiddenState:
    """Per-layer hidden activations, one row per active session lane.

    In discounted-sum input mode ``acc`` holds each lane's input accumulator,
    a :class:`LaneItems` map of its session's items: the event ``k`` steps
    back weighs ``decay**k`` and repeats add up. It is None in 1-of-N mode.
    :func:`forward_step` realigns a state to its batch and returns a new one;
    it never writes into the state it is given.
    """

    def __init__(self, layers: list[np.ndarray], acc: LaneItems | None = None):
        self.layers = layers
        self.acc = acc

    @classmethod
    def zeros(cls, params: NetworkParams, width: int) -> "HiddenState":
        """The state of ``width`` lanes that have seen no event."""
        hyper = params.hyper
        acc = None
        if hyper.input_mode == "discounted_sum":
            acc = LaneItems.empty(params.n_items, width)
        return cls([np.zeros((width, hyper.hidden_size)) for _ in range(hyper.n_layers)], acc)

    @property
    def width(self) -> int:
        return self.layers[0].shape[0]

    def realign(self, batch: MiniBatch) -> "HiddenState":
        """Every layer and the accumulator in ``batch``'s lane order."""
        acc = None if self.acc is None else self.acc.realign(batch)
        return HiddenState([batch.realign(h) for h in self.layers], acc)


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
    mask: np.ndarray | float  # 1.0 outside training


@dataclass
class ForwardCache:
    """Intermediates of one forward step, needed by backward_step."""

    input_vectors: LaneItems  # the layer-0 input: one-hot or unit-norm discounted rows
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


def _check_in_vocab(idx: np.ndarray, n_items: int, what: str) -> None:
    if not idx.size:  # serving samples no score columns; skip the ufuncs
        return
    bad = idx[(idx < 0) | (idx >= n_items)]
    if bad.size:
        raise IndexError(f"{what} out of vocabulary: {bad[0]}")


def forward_step(
    params: NetworkParams,
    batch: MiniBatch,
    h: HiddenState,
    sampled_columns: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, HiddenState, ForwardCache]:
    """Advance every lane one event and score the sampled items.

    ``h`` is the state the previous step returned, in its lane order: the
    step first realigns it to ``batch`` (:meth:`HiddenState.realign`), which
    starts reset lanes afresh. It then builds the layer-0 input, a
    :class:`LaneItems` map whose feed is each lane's weighted sum of its
    items' rows: in 1-of-N mode the batch's input item alone per lane; in
    discounted-sum mode the accumulator advanced by the input item
    (:meth:`LaneItems.accumulate` at ``input_decay``) and scaled to unit
    norm. Training and serving both step here, so they feed the same bits.
    The returned state carries the advanced accumulator; ``h`` is left as it
    was, also when an index out of the vocabulary raises IndexError.

    Scores are ``tanh(h_last . W_out[cols].T)``; the pre-activation scores
    are kept on the returned cache for losses that consume linear scores.
    :func:`score_all` scores the full vocabulary, as serving does: it samples
    no columns, and outside training no dropout mask is drawn.
    """
    hyper = params.hyper
    items = np.asarray(batch.inputs, dtype=np.intp)
    _check_in_vocab(items, params.n_items, "input item index")
    cols = np.asarray(sampled_columns, dtype=np.intp)
    _check_in_vocab(cols, params.n_items, "sampled column")
    if training and hyper.dropout_rate > 0.0 and rng is None:
        raise ValueError("training with dropout requires an rng")
    h = h.realign(batch)
    if hyper.input_mode == "discounted_sum":
        acc = h.acc.accumulate(items, hyper.input_decay)
        input_vectors = acc.unit_norm()
    else:
        acc, input_vectors = None, LaneItems.one_hot(params.n_items, items)

    cache = ForwardCache(input_vectors, cols)
    lower: np.ndarray | None = None
    new_layers: list[np.ndarray] = []
    for li, lp in enumerate(params.layers):
        h_prev = h.layers[li]
        # W_z/W_r/W contributions of the layer input: the items for the first
        # layer; the lower layer's output, then the items if deep, above it
        hdim = lp.hidden_size
        feeds = []
        for W in (lp.W_z, lp.W_r, lp.W):
            if li == 0:
                f = input_vectors.feed(W)
            else:
                f = lower @ W[:hdim]
                if hyper.deep_input:
                    f = f + input_vectors.feed(W[hdim:])
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
        mask = dropout_mask(h_new.shape, hyper.dropout_rate, rng) if training else 1.0
        h_dropped = h_new * mask
        cache.layer.append(_LayerCache(h_prev, z, r, c, h_new, h_dropped, mask))
        new_layers.append(h_new)
        lower = h_dropped

    cache.linear_scores = cache.scores = np.empty((len(lower), 0))
    if cols.size:
        linear = lower @ params.W_out[cols].T
        if params.b_out is not None:
            linear = linear + params.b_out[cols]
        cache.linear_scores, cache.scores = linear, np.tanh(linear)
    return cache.scores, HiddenState(new_layers, acc), cache


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
    first layer's ``W_z``/``W_r``/``W`` hold one row per distinct item of the
    lanes' input map, in either input mode; deeper layers with deep input
    hold their ``hidden`` recurrent-input rows followed by the item rows.
    Both scatter through :meth:`LaneItems.grad`: duplicate columns or items
    sum in batch order, so every row equals that of a dense scatter-add bit
    for bit, and all rows left out are exactly zero in it. The other
    gradients are dense.
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
    out = LaneItems.one_hot(params.n_items, cols)
    grads.set("W_out", out.grad(d_lin.T @ last), out.rows)
    if params.b_out is not None:
        grads.set("b_out", out.grad(d_lin.sum(axis=0)[:, None])[:, 0], out.rows)

    # each map entry scatters its weight times its lane's gradient into its
    # item's row; no row outside the lanes' items is touched
    item_rows, item_grad = cache.input_vectors.rows, cache.input_vectors.grad
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
    """Scores over the full vocabulary for one lane's top-layer hidden row, or
    a row of them for each row of a (width, hidden) matrix of lanes."""
    s = np.asarray(h_lane, dtype=np.float64) @ params.W_out.T
    if params.b_out is not None:
        s += params.b_out
    return np.tanh(s, out=s)
