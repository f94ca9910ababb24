"""Network families with explicit weights: plain, skip-augmented, and
linear-neuron-augmented step-activation networks.

A network with ``L`` hidden layers is parameterized by weight matrices
``W_0..W_L`` and shift vectors ``b_0..b_L``.  The output is
``W_L f_L(x) - b_L`` where hidden activations follow the kind-specific
recursion:

* plain:  ``f_l = step(W_{l-1} f_{l-1} - b_{l-1})``
* skip:   ``f_l = step(W_{l-1} f_{l-1} + V_{l-1} x - b_{l-1})`` for
  ``l >= 2``; the matrices ``V_l`` tap the raw input and carry a per-layer
  budget of nonzero rows.
* lin:    each hidden layer except the last is augmented with ``s``
  identity-activation neurons; the step activation applies to the first
  ``p_l`` coordinates only.

The step activation fires at zero: ``step(0) = 1``.  Every builder in this
package relies on that boundary convention.

Weight matrices may be dense ``numpy`` arrays or ``scipy.sparse`` matrices;
the builders pick each one's storage from its shape and nonzero count (see
``builders.dsl``).  A skip stage without taps may store no ``V`` at all
(``None``); it reads no input, whatever its budget.  No module of this
package imports ``scipy.sparse`` at top level: it is imported where a
sparse matrix is first made or read, and ``issparse`` asks it only once it
is loaded, so a run that meets only dense matrices never loads it.

``evaluate_batch`` runs in column blocks of ``BLOCK_FLOATS`` over the
widest stage they pass.  The pattern stage (``pattern_stage``) is one past
the last stage that reads the input: through the taps, or through an
identity neuron whose value depends on it.  From there on a point's column
is a function of its step bits and of identity values that do not depend
on the input, so of each block only the first point of each run of equal
adjacent columns goes on through the later stages.  ``_run_heads`` marks
those runs, for ``evaluate_batch`` and for the piece analyses alike.

A ``Network`` is valid for its whole life.  Constructing one runs
``validate``, the one statement of the rules of each class, and raises
``InvalidNetworkError`` with every violation; no other code checks them
again.  That holds because no code in this package writes to a layer array
after the network holding it is made, which also makes concurrent reads
safe.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, InvalidNetworkError

__all__ = [
    "NetworkKind",
    "Architecture",
    "LayerParams",
    "Network",
    "heaviside",
    "validate",
    "evaluate",
    "evaluate_batch",
    "embed",
    "issparse",
]


# floats one evaluate_batch block keeps in its widest stage (512 kB), so a
# block's activations stay in cache through the pass; a block has at least
# BLOCK_MIN_COLUMNS columns however wide the network
BLOCK_FLOATS = 2**16
BLOCK_MIN_COLUMNS = 256
# the output stage multiplies column counts that are multiples of this:
# BLAS sums every such column in one order, leftover columns and a
# one-column product in others
OUTPUT_COLUMN_MULTIPLE = 8


class NetworkKind(enum.Enum):
    PLAIN = "plain"
    SKIP = "skip"
    LIN = "lin"


def heaviside(u: float) -> int:
    """Step activation: 1 iff ``u >= 0`` (zero maps to 1)."""
    u = float(u)
    if not math.isfinite(u):
        raise InvalidInputError(f"heaviside: non-finite argument {u!r}")
    return 1 if u >= 0.0 else 0


@dataclass(frozen=True)
class Architecture:
    """Shape of a network: kind, hidden depth, and width bookkeeping.

    ``widths`` is ``(p_0, ..., p_{L+1})`` with input and output dimensions at
    the ends.  For the lin kind, ``widths`` stores the unaugmented step-neuron
    counts; the stored matrices act on the augmented widths
    ``p_l + lin_count`` for hidden layers ``1..L-1``.
    """

    kind: NetworkKind
    widths: tuple[int, ...]
    skip_counts: tuple[int, ...] = ()
    lin_count: int = 0

    @property
    def depth(self) -> int:
        return len(self.widths) - 2

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return self.widths[1:-1]

    def augmented_widths(self) -> tuple[int, ...]:
        """Actual vector sizes at each level (input, hidden 1..L, output)."""
        if self.kind is not NetworkKind.LIN:
            return self.widths
        ws = list(self.widths)
        for ell in range(1, self.depth):
            ws[ell] += self.lin_count
        return tuple(ws)

    def param_count(self) -> int:
        ws = self.augmented_widths()
        total = sum((ws[i] + 1) * ws[i + 1] for i in range(len(ws) - 1))
        if self.kind is NetworkKind.SKIP:
            total += self.input_dim * sum(self.skip_counts)
        return total


@dataclass
class LayerParams:
    """One affine stage: ``W h + V x - b`` (``V`` only for skip layers)."""

    W: object
    b: np.ndarray
    V: object | None = None


@dataclass(frozen=True)
class Network:
    """An architecture and its L+1 affine stages; construction raises
    ``InvalidNetworkError`` unless ``validate`` finds nothing."""

    arch: Architecture
    layers: tuple[LayerParams, ...]

    def __post_init__(self):
        violations = validate(self)
        if violations:
            raise InvalidNetworkError(violations)

    @cached_property
    def _pattern_stage(self) -> int:
        # stage i reads the input if it is stage 0, has taps, or weighs an
        # identity neuron that a reading stage computed
        last, carried = 0, False
        for i, layer in enumerate(self.layers):
            if layer.V is not None or \
                    (carried and mat_nonzero_rows(layer.W[:, step_rows(self.arch, i - 1):])):
                last = i
            carried = last == i and step_rows(self.arch, i) is not None
        return last + 1

    @cached_property
    def _pattern_rows(self) -> np.ndarray:
        # the rows of the pattern stage's input level that it weighs: every
        # step row, and each identity row with a nonzero weight (none, by
        # the rule above, unless the stage is set early)
        first = self._pattern_stage
        width = self.arch.augmented_widths()[first]
        p = step_rows(self.arch, first - 1) or width
        weighed = nonzero_row_mask(self.layers[first].W[:, p:].T)
        return np.concatenate([np.arange(p), p + np.flatnonzero(weighed)])

    @cached_property
    def _tap_bands(self) -> dict:
        # per stage with a dense one-column tap matrix: the rows from its
        # first to its last nonzero row, which _forward adds on alone
        bands = {}
        for i, layer in enumerate(self.layers):
            V = layer.V
            if isinstance(V, np.ndarray) and V.shape[1] == 1:
                rows = V[:, 0].nonzero()[0]
                bands[i] = slice(rows[0], rows[-1] + 1) if rows.size else slice(0, 0)
        return bands


# -- matrix payload helpers (dense ndarray or scipy.sparse) -----------------

def issparse(M) -> bool:
    """Whether ``M`` is a ``scipy.sparse`` matrix, without importing scipy:
    no sparse matrix exists before ``scipy.sparse`` is loaded."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(M)


def nonzero_row_mask(M) -> np.ndarray:
    """Whether each row has a nonzero entry (explicit zeros do not count)."""
    if issparse(M):
        csr = M.tocsr()
        mask = np.zeros(csr.shape[0], dtype=bool)
        rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
        mask[rows[csr.data != 0]] = True
        return mask
    return np.any(np.asarray(M) != 0, axis=1)


def mat_nonzero_rows(M) -> int:
    """Rows with at least one nonzero entry (explicit zeros do not count)."""
    return int(nonzero_row_mask(M).sum())


def mat_all_finite(M) -> bool:
    if issparse(M):
        return bool(np.all(np.isfinite(M.tocoo().data)))
    return bool(np.all(np.isfinite(M)))


# -- validation --------------------------------------------------------------

def arch_violations(arch: Architecture) -> list[str]:
    """The architecture half of ``validate``: depth, widths, skip budgets
    and the identity-neuron count, without any layer."""
    L = arch.depth
    if L < 1:
        return [f"architecture: depth {L} < 1"]
    out: list[str] = []
    if any(w < 1 for w in arch.widths):
        out.append(f"architecture: widths {arch.widths} contain an entry < 1")
    if arch.kind is NetworkKind.SKIP:
        if len(arch.skip_counts) != L - 1:
            out.append(
                f"architecture: skip_counts has length {len(arch.skip_counts)}, expected L-1 = {L - 1}")
        else:
            for i, s in enumerate(arch.skip_counts):
                p = arch.widths[i + 2]
                if not 0 <= s <= p:
                    out.append(f"architecture: skip budget s_{i + 2}={s} outside [0, p_{i + 2}={p}]")
    else:
        if arch.skip_counts:
            out.append("architecture: skip_counts set on a non-skip network")
    if arch.kind is NetworkKind.LIN:
        if arch.lin_count < 0:
            out.append(f"architecture: lin_count {arch.lin_count} < 0")
    elif arch.lin_count:
        out.append("architecture: lin_count set on a non-lin network")
    return out


def validate(net: Network) -> list[str]:
    """Check every structural invariant; returns the list of violations.

    An empty list means the network is well formed.  Violations name the
    layer and the rule so callers can report them directly.  Every
    ``Network`` runs this once, when it is made.
    """
    arch = net.arch
    out = arch_violations(arch)
    if out:
        return out
    L = arch.depth

    if len(net.layers) != L + 1:
        return [f"layers: {len(net.layers)} affine stages, expected L+1 = {L + 1}"]

    ws = arch.augmented_widths()
    for i, layer in enumerate(net.layers):
        want = (ws[i + 1], ws[i])
        got = tuple(layer.W.shape)
        if got != want:
            out.append(f"layer {i}: W shape {got}, expected {want}")
        b = np.asarray(layer.b)
        if b.shape != (ws[i + 1],):
            out.append(f"layer {i}: b shape {b.shape}, expected ({ws[i + 1]},)")
        if layer.V is not None:
            if arch.kind is not NetworkKind.SKIP:
                out.append(f"layer {i}: V present on a {arch.kind.value} network")
            elif not 1 <= i <= L - 1:
                out.append(f"layer {i}: V present outside hidden layers 2..L")
            else:
                vshape = tuple(layer.V.shape)
                if vshape != (ws[i + 1], arch.input_dim):
                    out.append(f"layer {i}: V shape {vshape}, expected ({ws[i + 1]}, {arch.input_dim})")
                else:
                    used = mat_nonzero_rows(layer.V)
                    budget = arch.skip_counts[i - 1]
                    if used > budget:
                        out.append(f"layer {i}: skip budget exceeded at layer {i + 1} "
                                   f"({used} nonzero rows of V > s_{i + 1}={budget})")
        if not mat_all_finite(layer.W) or not np.all(np.isfinite(b)) or \
                (layer.V is not None and not mat_all_finite(layer.V)):
            out.append(f"layer {i}: non-finite parameter")
    return out


# -- evaluation --------------------------------------------------------------

def step_rows(arch: Architecture, i: int) -> int | None:
    """How many leading rows of hidden stage ``i`` are step neurons: the
    first ``p_{i+1}`` of a lin hidden layer before the last, every row
    (``None``) otherwise."""
    if arch.kind is NetworkKind.LIN and i < arch.depth - 1:
        return arch.widths[i + 1]
    return None


def _product(W, h: np.ndarray) -> np.ndarray:
    # scipy multiplies 2-D operands only: one labeling at a time
    return np.stack([W @ g for g in h]) if h.ndim == 3 and issparse(W) else W @ h


def _forward(net: Network, h: np.ndarray, x: np.ndarray, lo: int, hi: int,
             filled: dict | None = None, trace: list | None = None) -> np.ndarray:
    """Affine stages ``lo..hi-1`` of ``net`` on column-stacked activations.

    ``h`` is (width, n), or (labelings, width, n) when every labeling has
    its own; ``x`` is the (input, n) matrix the skip taps read.  ``filled``
    maps a stage to ``(W, b)``: that stage uses the (labelings, out, in)
    weight tensor and (labelings, out) bias instead of its own.  Hidden
    activations are appended to ``trace`` if given.
    """
    arch = net.arch
    L = arch.depth
    filled = filled or {}
    for i in range(lo, hi):
        layer = net.layers[i]
        W, b = filled.get(i, (layer.W, layer.b))
        tail = h.shape[-1] % OUTPUT_COLUMN_MULTIPLE if i == L else 0
        if tail:
            # the leftover columns go through a product padded with zero
            # columns, so every output column is summed in one order and a
            # point's output does not depend on its batch, block or column
            padded = np.zeros(h.shape[:-1] + (OUTPUT_COLUMN_MULTIPLE,))
            padded[..., :tail] = h[..., -tail:]
            z = _product(W, padded)[..., :tail]
            if h.shape[-1] > tail:
                z = np.concatenate([_product(W, h[..., :-tail]), z], axis=-1)
        elif i < L and W.shape[-1] == 1 and isinstance(W, np.ndarray):
            # one inner column: the outer product is the matmul's, bit for
            # bit but for the sign of a zero, which a hidden stage only
            # compares or carries in an identity row short of the output
            z = W * h
        else:
            z = _product(W, h)
        V = layer.V
        if V is not None:
            # a one-column tap matrix adds its products only on the band of
            # rows from its first to its last nonzero row: a row outside
            # would gain a signed zero, which a skip stage, pure step, only
            # compares.  A view, so a small stage pays no gather.  V @ x
            # keeps its whole product, since BLAS sums a row subset of a
            # wider or sparse V in another order
            band = net._tap_bands.get(i)
            if band is None:
                z += V @ x
            else:
                z[..., band, :] += V[band] * x
        b = np.asarray(b)[..., None]
        if i < L:
            # step(0) = 1, compared as z >= b in one pass: the rounded z - b
            # keeps the sign of the exact one and is 0 only when z == b.  The
            # identity neurons of a lin layer subtract.
            p = step_rows(arch, i)
            if p is None:
                np.greater_equal(z, b, out=z)
            else:
                z[..., p:, :] -= b[..., p:, :]
                np.greater_equal(z[..., :p, :], b[..., :p, :], out=z[..., :p, :])
            if trace is not None:
                trace.append(z)
        else:
            z -= b
        h = z
    return h


def evaluate(net: Network, x) -> np.ndarray:
    """Evaluate at one point: the row of a one-point ``evaluate_batch``."""
    return evaluate_batch(net, [np.ravel(x)])[0]


def _checked_points(net: Network, X) -> np.ndarray:
    """Points as the (n, d) float rows of ``X`` (a vector is n points of a
    one-input network), refused unless d is the input dimension and every
    coordinate is finite."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[1] != net.arch.input_dim:
        raise InvalidInputError(
            f"evaluate_batch: points have dimension {X.shape[1]}, network expects {net.arch.input_dim}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("evaluate_batch: non-finite input")
    return X


def evaluate_batch(net: Network, X, with_trace: bool = False):
    """Evaluate at many points, rows of ``X``; returns an (n, p_out) array.

    With ``with_trace`` the hidden activation matrices (width x n) are
    returned as well, and the batch is one block.  Without a trace it is
    one loop over blocks of columns sized to ``BLOCK_FLOATS`` over the
    widest of the stages before ``pattern_stage``, at least
    ``BLOCK_MIN_COLUMNS``, so a block's activations stay in cache.  Past
    the pattern stage a point's column is a function of its step bits and
    of input-free identity values, so of each run of adjacent points with
    equal columns there only the first point goes on: each block's run
    heads go through the remaining stages in blocks sized over the widest
    of those, and an ordered grid has few runs.  Equal columns may differ
    in the sign of a zero identity value, which cannot reach the output
    (see ``pattern_stage``).

    A point's output is the same float whatever the batch, the block or
    its column, here or in ``evaluate``: the output stage multiplies the
    columns left over after the last multiple of ``OUTPUT_COLUMN_MULTIPLE``
    in a product padded with zero columns, so BLAS sums every column in one
    order, and a run head's output is the one every point of its run
    would get.  The run heads are gathered C-ordered, as any block is
    laid out: BLAS sums a Fortran-ordered copy in another order.  Hidden
    stages need no padding; the tests compare whole passes bit for bit at
    several block sizes.
    """
    cols = _checked_points(net, X).T
    n = cols.shape[1]
    L = net.arch.depth
    if with_trace:
        trace = []
        return _forward(net, cols, cols, 0, L + 1, trace=trace).T, trace
    ws = net.arch.augmented_widths()
    first = pattern_stage(net)
    # each prefix block's run heads go on through the suffix; a block's
    # first column opens a run unless it equals the column before it
    fresh = np.empty(n, dtype=bool)
    last = np.nan
    outs, at = [], 0
    for part in _blocks(cols, ws[:first + 1]):
        h = _forward(net, part, part, 0, first)
        heads = _run_heads(h, (h[:, :1] != last).any(), fresh[at:at + h.shape[1]])
        at += h.shape[1]
        last = h[:, -1:].copy()
        del h  # so two blocks are never alive at once
        outs += [_forward(net, block, None, first, L + 1) for block in _blocks(heads, ws[first:])]
    starts = np.flatnonzero(fresh)
    return np.repeat(np.concatenate(outs, axis=1).T, np.diff(starts, append=n), axis=0)


def _run_heads(h: np.ndarray, opens: bool, mark: np.ndarray) -> np.ndarray:
    """The heads of the runs of equal adjacent columns of ``h``, activations
    at ``pattern_stage``: each column that differs from the one before it,
    and the first column if it ``opens`` a run.  ``mark`` gets one flag per
    column, set at each head; the heads are gathered C-ordered, as any
    block is laid out (``h[:, mark]`` is Fortran-ordered, and BLAS sums
    that in another order)."""
    mark[:1] = opens
    np.logical_or.reduce(h[:, 1:] != h[:, :-1], axis=0, out=mark[1:])
    return h.compress(mark, axis=1)


def pattern_stage(net: Network) -> int:
    """One past the last stage that reads the input, computed once per
    network.  A stage reads the input if it is stage 0, if it has a tap
    matrix (``V`` is not ``None``), or if it has a nonzero weight on an
    identity neuron whose value depends on the input: an identity row of a
    stage that reads the input.  The rule reads structure only, so a plain
    network gives 1, a skip network one past its last tapped stage, and a
    lin network the first stage that weighs none of the input-dependent
    identity neurons.

    From this stage on, every stage computes from step bits and from
    identity values that do not depend on the input; the identity rows it
    is handed that do are multiplied by zero weights.  Such a zero product
    can carry the sign of the identity value, but a signed zero cannot
    reach the output: identity values only pass into sums, where it moves
    nothing but the sign of a zero, and the last hidden layer is pure step,
    which compares."""
    return net._pattern_stage


def _block_columns(widths) -> int:
    """Columns of a block that holds ``BLOCK_FLOATS`` over the widest of
    ``widths``: at least ``BLOCK_MIN_COLUMNS``, and whole multiples of the
    output stage's column count, so only the last block pads."""
    block = BLOCK_FLOATS // max(widths) // OUTPUT_COLUMN_MULTIPLE
    return max(BLOCK_MIN_COLUMNS, block * OUTPUT_COLUMN_MULTIPLE)


def _blocks(cols: np.ndarray, widths) -> list[np.ndarray]:
    block = _block_columns(widths)
    return np.split(cols, range(block, cols.shape[1], block), axis=1)


# -- kind embeddings ---------------------------------------------------------

def embed(net: Network, target_kind: NetworkKind) -> Network:
    """Re-express a network in a richer kind without changing its function.

    Supported directions: plain->skip (no skip taps), plain->lin
    (zero added linear neurons), skip->lin (p_0 identity-activation neurons
    carry the input across the layers), and any kind to itself.  The result
    evaluates bit-for-bit identically to the input on every point.
    """
    arch = net.arch
    if target_kind is arch.kind:
        return net
    if arch.kind is NetworkKind.PLAIN and target_kind is NetworkKind.SKIP:
        new_arch = replace(arch, kind=NetworkKind.SKIP, skip_counts=(0,) * (arch.depth - 1))
        return Network(new_arch, net.layers)
    if arch.kind is NetworkKind.PLAIN and target_kind is NetworkKind.LIN:
        new_arch = replace(arch, kind=NetworkKind.LIN, lin_count=0)
        return Network(new_arch, net.layers)
    if arch.kind is NetworkKind.SKIP and target_kind is NetworkKind.LIN:
        new_arch = Architecture(NetworkKind.LIN, arch.widths, (), arch.input_dim)
        return Network(new_arch, carry_input(net, arch.depth - 1, 0.0))
    raise InvalidInputError(
        f"embed: unsupported direction {arch.kind.value} -> {target_kind.value}")


def carry_input(net: Network, last: int, bias: float) -> tuple[LayerParams, ...]:
    """The layers of ``net`` with its d inputs carried by d extra neurons
    appended to hidden layers 1..``last``; the skip taps become ordinary
    weights on the carried copy, so no layer keeps a ``V``.

    Stage 0 copies x into the carriers and later stages pass them along,
    each carrier computing ``c - bias``: 0 for identity neurons, 1/2 for
    step neurons forwarding a binary input.  Every tap must sit in stages
    1..``last``.  A layer whose ``W`` is sparse is assembled sparse.
    """
    d = net.arch.input_dim
    layers = []
    for i, layer in enumerate(net.layers):
        W, V, b = layer.W, layer.V, np.asarray(layer.b, dtype=float)
        n_out, n_in = W.shape
        sparse = issparse(W)
        if sparse:
            import scipy.sparse as sp
            eye, zeros = sp.identity(d), sp.csr_matrix
        else:
            eye, zeros = np.eye(d), np.zeros
        if V is None:
            V = zeros((n_out, d))
        elif not sparse and issparse(V):
            V = V.toarray()
        grid = [[W, V] if 1 <= i <= last else [W]]
        if i < last:
            grid.append([eye] if i == 0 else [zeros((d, n_in)), eye])
            b = np.concatenate([b, np.full(d, bias)])
        layers.append(LayerParams(sp.bmat(grid, format="csr") if sparse else np.block(grid), b))
    return tuple(layers)
