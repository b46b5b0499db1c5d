"""The batched policy: frozen random weights with per-neuron units, or the
weight-trainable tanh baseline, computing in POLICY_DTYPE.
"""

from __future__ import annotations

import functools

import numpy as np

from .architecture import Architecture, sample_weights
from .errors import DomainError
from .genome import decode
from .neural_unit import NeuronMode, layer_step_recurrent, layer_step_simple
from .rundir import load_champion  # noqa: F401  the name perfbench/ loads it by

POLICY_DTYPE = np.float64
# Every row of a frozen-weight product is bitwise as in a product of this
# many rows, whatever the batch size, the live set or the worker split.
PRODUCT_ROWS = 128
PROBE_SEED = 20240917
PROBE_TRIALS = 32


@functools.cache
def rows_stable(fan_in, fan_out, dtype):
    """Whether a PRODUCT_ROWS-row product of this shape in ``dtype`` gives each
    row the same bits at any place in it; checked once per shape and dtype.

    Each of PROBE_TRIALS trials draws a fresh fixed-seed random
    (PRODUCT_ROWS, fan_in) matrix and row order; the reordered matrix must
    give the reordered product bitwise.
    """
    rng = np.random.default_rng(PROBE_SEED)
    w_t = rng.normal(size=(fan_out, fan_in)).T.astype(dtype)
    for _ in range(PROBE_TRIALS):
        a = rng.normal(size=(PRODUCT_ROWS, fan_in)).astype(dtype)
        perm = rng.permutation(PRODUCT_ROWS)
        if not np.array_equal(a[perm] @ w_t, (a @ w_t)[perm]):
            return False
    return True


def worker_splits(arch: Architecture, rows, workers):
    """Bounds of up to ``workers`` even contiguous splits of ``rows`` rows;
    each split's policy keeps its rows' batch indices (see
    :class:`BatchedPolicy`). Every frozen-weight shape is checked first, so
    that the pool workers fork with the cached answers. One worker, or one
    row, takes the whole batch, and nothing is checked."""
    if workers <= 1 or rows <= 1:
        return [0, rows]
    if arch.neuron_mode is not NeuronMode.PLAIN_TANH:  # else no frozen-weight products
        for shape in zip(arch.layer_sizes, arch.layer_sizes[1:]):
            rows_stable(*shape, POLICY_DTYPE)
    return np.linspace(0, rows, min(workers, rows) + 1).astype(int).tolist()


class BatchedPolicy:
    """Forward pass for the live rows of a batch of B candidates.

    For unit modes the frozen weights are shared across the batch; for the
    plain-tanh baseline each candidate carries its own weights. A policy
    serves one batch of episodes: it starts with all B rows live and every
    neuron state zero, and ``keep`` drops rows whose episode has ended, so
    ``forward`` only ever computes running episodes.
    ``rows`` holds the index in this batch of each live row; its batch
    index adds ``first_row``, the batch's first row in a split population
    (see :func:`worker_splits`). Every weight product multiplies a layer
    plane's rows where they are, as whole PRODUCT_ROWS-row slices (see
    :meth:`_weight_product`). A row's outputs depend on its own genome and
    inputs alone, and on its batch index modulo PRODUCT_ROWS only where
    some product's rows are not stable (see :func:`rows_stable`).
    """

    def __init__(self, arch: Architecture, genomes, first_row=0):
        self.arch = arch
        genomes = np.atleast_2d(genomes)
        self.batch = genomes.shape[0]
        self.mode = arch.neuron_mode
        self.rows = np.arange(self.batch)
        self.first_row = first_row
        # Whether all-live rows sit at their batch index modulo PRODUCT_ROWS.
        self._aligned = first_row % PRODUCT_ROWS == 0
        if self.mode is NeuronMode.PLAIN_TANH:
            self.layers = decode(genomes, arch, POLICY_DTYPE)
            return
        self.weights = [w.astype(POLICY_DTYPE) for w in sample_weights(arch)]
        # Each unit coefficient as one contiguous plane, as the layer steps
        # expect: (B, n, 2, 3) to (2, 3, B, n), or (B, n, 2) to (2, B, n).
        k = 2 if self.mode is NeuronMode.RECURRENT else 1
        self.params = [np.array(np.moveaxis(p, range(2, 2 + k), range(k)), order="C")
                       for p in decode(genomes, arch, POLICY_DTYPE)]
        # Per layer, plane 0 holds the unit outputs of the live rows [:m]
        # and, for recurrent units, plane 1 their states. The rows run to
        # whole PRODUCT_ROWS-row slices, so that every product slice lies on
        # the plane. Products and unit steps share _scratch.
        rows = -(-self.batch // PRODUCT_ROWS) * PRODUCT_ROWS
        self.planes = [np.zeros((k, rows, n), POLICY_DTYPE) for n in arch.layer_sizes]
        self._scratch = np.zeros((2, rows * max(arch.layer_sizes)), POLICY_DTYPE)

    def keep(self, order):
        """Keep the live rows ``order`` (integer indices into the live rows),
        row ``order[j]`` moving to place j; only rows that move are copied,
        and of their planes only the recurrent states, since ``forward``
        writes every output plane before it reads it."""
        if not np.issubdtype(np.asarray(order).dtype, np.integer):
            raise DomainError(f"keep: order must hold integer indices, got {order!r}")
        self.rows = self.rows[order]
        if self.mode is NeuronMode.PLAIN_TANH:
            self.layers = [(w[order], b[order]) for w, b in self.layers]
            return
        n = len(order)
        moved = np.flatnonzero(order != np.arange(n))
        src = order[moved]
        for k, p in enumerate(self.params):
            p[..., moved, :] = p[..., src, :]
            self.params[k] = p[..., :n, :]
        for plane in self.planes:
            plane[1:, moved] = plane[1:, src]

    def _weight_product(self, k, m):
        """Layer k's outputs of the m live rows times W_k.T, each row bitwise
        as in a PRODUCT_ROWS-row product, written into scratch row 0.

        Each product multiplies the plane's rows where they are, as whole
        PRODUCT_ROWS-row slices; the plane's rows past the live ones fill
        the last slice. That keeps a live row's bits where it sits at its
        batch index modulo PRODUCT_ROWS, as in an all-live aligned batch,
        which never checks, or where the shape's rows are stable (see
        :func:`rows_stable`). Else each PRODUCT_ROWS-row block of batch
        indices runs at PRODUCT_ROWS rows, each live row in its place.
        """
        w_t = self.weights[k].T
        x = self.planes[k][0]
        out = self._scratch[0, : len(x) * w_t.shape[1]].reshape(len(x), -1)
        if (m < self.batch or not self._aligned) and not rows_stable(*w_t.shape, POLICY_DTYPE):
            buf = self._scratch[1, : PRODUCT_ROWS * len(w_t)].reshape(PRODUCT_ROWS, -1)
            block_of, place = np.divmod(self.first_row + self.rows, PRODUCT_ROWS)
            for c in np.unique(block_of):
                sel = np.flatnonzero(block_of == c)
                buf[place[sel]] = x[sel]
                out[sel] = (buf @ w_t)[place[sel]]
            return out[:m]
        for i in range(0, m, PRODUCT_ROWS):
            np.matmul(x[i : i + PRODUCT_ROWS], w_t, out=out[i : i + PRODUCT_ROWS])
        return out[:m]

    def forward(self, obs):
        """obs: (live rows, obs_dim) -> new actions (live rows, action_dim)."""
        x = np.asarray(obs, dtype=POLICY_DTYPE)
        if self.mode is NeuronMode.PLAIN_TANH:
            for w, b in self.layers:
                x = np.tanh(np.einsum("boi,bi->bo", w, x) + b)
        else:
            for k in range(len(self.arch.layer_sizes)):
                x = self.step_layer(k, x if k == 0 else self._weight_product(k - 1, len(x)))[0]
        return x.astype(np.float64)

    def step_layer(self, k, pre):
        """Step the units of layer k on the inputs ``pre`` of the first m
        rows, (m, n) or (m, 1) to give each unit the same input; returns
        the layer's planes of those rows, [outputs] or, for recurrent
        units, [outputs, states]."""
        m, n = pre.shape[0], self.arch.layer_sizes[k]
        out = self.planes[k][:, :m]
        step = layer_step_recurrent if self.mode is NeuronMode.RECURRENT else layer_step_simple
        step(self.params[k], pre, out, self._scratch[1, : m * n].reshape(m, n))
        return out
