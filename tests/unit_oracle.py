"""Scalar per-neuron oracle: one unit, one time step, plain Python floats in
and out, parameters in ``network.POLICY_DTYPE``.

The vectorized layer steps in ``evounits.neural_unit`` compute the same
arithmetic over whole layers and batches; ``test_neural_unit`` checks them
against these functions elementwise.
"""

from dataclasses import dataclass, field

import numpy as np

from evounits import network
from evounits.errors import DomainError
from evounits.neural_unit import NeuronMode

# Parameter matrix shapes per mode: (rows, cols).
RECURRENT_SHAPE = (2, 3)
SIMPLE_SHAPE = (1, 2)


@dataclass
class NeuronParams:
    """Evolvable parameters of one neuron."""

    mode: NeuronMode
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        expected = RECURRENT_SHAPE if self.mode is NeuronMode.RECURRENT else SIMPLE_SHAPE
        if self.values is None:
            self.values = np.zeros(expected)
        self.values = np.asarray(self.values, dtype=network.POLICY_DTYPE)
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


def output_nonlinearity(raw: float) -> float:
    """Squash a pre-activation into [-1, 1] with tanh, as every unit does."""
    _check_finite("raw", raw)
    return float(np.tanh(raw))
