"""Per-neuron math: the stateful recurrent unit and its simple ablation.

A recurrent unit holds a 2x3 parameter matrix that maps the column vector
[input, state, 1] through tanh to [output, new_state]. The simple variant
keeps only a scale and a bias on the input, with no state feedback.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


class NeuronMode(enum.Enum):
    RECURRENT = "recurrent"
    SIMPLE = "simple"
    PLAIN_TANH = "tanh"


class OutputKind(enum.Enum):
    TANH = "tanh"
    SIGMOID = "sigmoid"


# Parameter matrix shapes per mode: (rows, cols).
RECURRENT_SHAPE = (2, 3)
SIMPLE_SHAPE = (1, 2)

PARAMS_PER_NEURON = {
    NeuronMode.RECURRENT: 6,
    NeuronMode.SIMPLE: 2,
}


@dataclass
class NeuronParams:
    """Evolvable parameters of one neuron."""

    mode: NeuronMode
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        expected = RECURRENT_SHAPE if self.mode is NeuronMode.RECURRENT else SIMPLE_SHAPE
        if self.values is None:
            self.values = np.zeros(expected)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != expected:
            raise DomainError(
                f"neuron params for mode {self.mode.value} must have shape "
                f"{expected}, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("neuron params must be finite")


@dataclass
class NeuronState:
    """Persistent per-neuron state; always a tanh output, so h is in [-1, 1]."""

    h: float = 0.0


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{name} must be finite, got {value!r}")


def activate_recurrent(params: NeuronParams, x: float, h: float):
    """One time step of a recurrent unit.

    Returns (output, new_state) = tanh(M . [x, h, 1]); the caller stores the
    new state for the next step.
    """
    if params.mode is not NeuronMode.RECURRENT:
        raise DomainError(f"expected a recurrent unit, got mode {params.mode.value}")
    _check_finite("x", x)
    _check_finite("h", h)
    m = params.values
    out = np.tanh(m[0, 0] * x + m[0, 1] * h + m[0, 2])
    h_new = np.tanh(m[1, 0] * x + m[1, 1] * h + m[1, 2])
    return float(out), float(h_new)


def activate_simple(params: NeuronParams, x: float) -> float:
    """Stateless unit: tanh(a*x + b) with params.values = [[a, b]]."""
    if params.mode is not NeuronMode.SIMPLE:
        raise DomainError(f"expected a simple unit, got mode {params.mode.value}")
    _check_finite("x", x)
    a, b = params.values[0]
    return float(np.tanh(a * x + b))


def output_nonlinearity(raw: float, kind: OutputKind) -> float:
    """Squash a pre-activation into [-1,1] (tanh) or [0,1] (sigmoid)."""
    _check_finite("raw", raw)
    if kind is OutputKind.TANH:
        return float(np.tanh(raw))
    if kind is OutputKind.SIGMOID:
        # Stable logistic via scipy-free formulation; inputs here are modest.
        return float(1.0 / (1.0 + np.exp(-raw)))
    raise DomainError(f"unknown output nonlinearity {kind!r}")


def parameter_major(values, mode: NeuronMode):
    """Unit parameters with each coefficient as one contiguous plane.

    Moves the per-unit coefficient axes to the front: (..., n, 2, 3) becomes
    (2, 3, ..., n) for recurrent units and (..., n, 2) becomes (2, ..., n)
    for simple ones, the layout the layer steps below expect.
    """
    k = 2 if mode is NeuronMode.RECURRENT else 1
    nd = values.ndim
    return np.ascontiguousarray(np.moveaxis(values, range(nd - k, nd), range(k)))


def layer_step_recurrent(values, x, h, out_fn=None):
    """Vectorized recurrent step for a whole layer (or batch of layers).

    values: (2, 3, ..., n), parameter-major (see :func:`parameter_major`);
    x and h: (..., n). Returns (out, h_new). When ``out_fn`` is given it
    replaces tanh on the output row (used for configured output
    nonlinearities).
    """
    z_out = values[0, 0] * x + values[0, 1] * h + values[0, 2]
    z_state = values[1, 0] * x + values[1, 1] * h + values[1, 2]
    out = np.tanh(z_out) if out_fn is None else out_fn(z_out)
    return out, np.tanh(z_state)


def layer_step_simple(values, x, out_fn=None):
    """Vectorized simple step: values (2, ..., n) holds the [scale, bias] planes."""
    z = values[0] * x + values[1]
    return np.tanh(z) if out_fn is None else out_fn(z)


def apply_output_kinds(z, kinds):
    """Apply per-output-neuron nonlinearities to pre-activations along the last axis."""
    out = np.empty_like(z)
    for j, kind in enumerate(kinds):
        if kind is OutputKind.TANH:
            out[..., j] = np.tanh(z[..., j])
        else:
            out[..., j] = 1.0 / (1.0 + np.exp(-z[..., j]))
    return out
