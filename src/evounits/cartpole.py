"""Cart-pole swing-up task with self-contained physics.

The pole (a uniform rod) starts hanging down; the agent pushes the cart with
a force in [-force_mag, force_mag] and is rewarded for holding the pole
upright while keeping the cart centered. Angle convention: theta = 0 is
upright, pi is hanging down; the pole's center of mass sits at
(x + (l/2) sin(theta), (l/2) cos(theta)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .schema import at_least, check_fields, positive


@dataclass(frozen=True)
class SwingUpParams:
    m_cart: float = positive(0.5)
    m_pole: float = positive(0.5)
    length: float = positive(0.6)  # full rod length
    gravity: float = positive(9.82)
    friction: float = at_least(0, 0.1)  # cart-ground friction coefficient on x velocity
    force_mag: float = positive(10.0)
    dt: float = positive(0.01)
    x_threshold: float = positive(2.4)
    max_steps: int = at_least(1, 1000)
    reset_noise: float = at_least(0, 0.01)  # uniform half-width around (0, 0, pi, 0)

    __post_init__ = check_fields


def accelerations(params: SwingUpParams, state, force):
    """(x_acc, theta_acc) from the rod-on-cart equations of motion.

    Works elementwise on arrays; ``state`` is (x, x_dot, theta, theta_dot).
    """
    _, x_dot, theta, theta_dot = state
    mc, mp = params.m_cart, params.m_pole
    length, g, b = params.length, params.gravity, params.friction
    total = mc + mp
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    # Uniform rod: COM at length/2, inertia mp*length^2/12 about the COM.
    denom = 4.0 * total - 3.0 * mp * cos_t**2
    x_acc = (
        4.0 * force
        - 4.0 * b * x_dot
        + 2.0 * mp * length * theta_dot**2 * sin_t
        - 3.0 * mp * g * sin_t * cos_t
    ) / denom
    theta_acc = 3.0 * (g * sin_t - x_acc * cos_t) / (2.0 * length)
    return x_acc, theta_acc


def initial_state(params: SwingUpParams, seed):
    """Seeded start near (0, 0, pi, 0) with small uniform perturbations."""
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-params.reset_noise, params.reset_noise, size=4)
    return np.array([0.0, 0.0, np.pi, 0.0]) + noise


def step_reward(params: SwingUpParams, x, cos_theta):
    """Per-step reward in [0, 1]: upright-ness times centered-ness, from the
    cart position ``x`` and the pole's ``cos_theta``."""
    r_theta = (cos_theta + 1.0) / 2.0
    r_x = np.cos((x / params.x_threshold) * (np.pi / 2.0))
    return r_theta * np.maximum(r_x, 0.0)


class BatchedSwingUp:
    """The running instances of a batch of episodes, advanced in lockstep.

    ``reset`` starts one instance per seed. ``step`` advances every instance
    held and flags in ``done`` those whose episode ended with that step;
    ``keep`` then drops them, so stepping never spends work on an ended
    episode. A single episode is a batch of one seed.
    """

    obs_dim = 5
    action_dim = 1

    def __init__(self, params: SwingUpParams):
        self.params = params
        self.state = np.zeros((4, 0))
        self.t = 0
        self.done = np.zeros(0, dtype=bool)

    def reset(self, seeds):
        # Each distinct seed is drawn once; a training generation shares one.
        distinct, inverse = np.unique(seeds, return_inverse=True)
        cols = np.stack([initial_state(self.params, int(s)) for s in distinct], axis=1)
        self.state = cols.take(inverse, axis=1)
        self.t = 0
        self.done = np.zeros(len(seeds), dtype=bool)
        return self._observe(np.cos(self.state[2]))

    def _observe(self, cos_theta):
        """Rows of (x, x_dot, cos theta, sin theta, theta_dot)."""
        x, x_dot, theta, theta_dot = self.state
        obs = np.empty((x.size, self.obs_dim))
        obs[:, 0] = x
        obs[:, 1] = x_dot
        obs[:, 2] = cos_theta
        obs[:, 3] = np.sin(theta)
        obs[:, 4] = theta_dot
        return obs

    def step(self, actions):
        """Advance every held instance; returns (obs, reward, done) per instance."""
        if self.done.any():
            raise DomainError("step() on an ended episode; drop it with keep() or reset")
        if not np.isfinite(actions).all():
            raise DomainError("actions must be finite")
        p = self.params
        force = np.clip(actions, -1.0, 1.0) * p.force_mag
        x_acc, theta_acc = accelerations(p, self.state, force)
        # Semi-implicit Euler, updating the rows of the state in place.
        x, x_dot, theta, theta_dot = self.state
        x_dot += x_acc * p.dt
        theta_dot += theta_acc * p.dt
        x += x_dot * p.dt
        theta += theta_dot * p.dt
        self.t += 1
        cos_theta = np.cos(theta)
        reward = step_reward(p, x, cos_theta)
        if self.t >= p.max_steps:
            self.done = np.ones(x.shape, dtype=bool)
        else:
            self.done = np.abs(x) > p.x_threshold
        return self._observe(cos_theta), reward, self.done

    def keep(self, order):
        """Keep the instances ``order`` (integer indices into those held),
        instance ``order[j]`` moving to place j."""
        if not np.issubdtype(np.asarray(order).dtype, np.integer):
            raise DomainError(f"keep: order must hold integer indices, got {order!r}")
        self.state = self.state.take(order, axis=1)
        self.done = self.done[order]


def check_arch(arch):
    """Raise ConfigError unless the network's input and output layers fit this task."""
    sizes = arch.layer_sizes
    if (sizes[0], sizes[-1]) != (BatchedSwingUp.obs_dim, BatchedSwingUp.action_dim):
        raise ConfigError(
            f"arch.layer_sizes: {list(sizes)} must start with "
            f"{BatchedSwingUp.obs_dim} inputs and end with {BatchedSwingUp.action_dim} "
            "output for the swing-up task"
        )
