"""Full networks: frozen random weights with per-neuron units, and the
weight-trainable tanh baseline. Also the champion checkpoint format.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .architecture import Architecture, count_parameters
from .errors import CheckpointError, ConfigError, DomainError
from .genome import decode
from .neural_unit import (
    NeuronMode,
    OutputKind,
    apply_output_kinds,
    layer_step_recurrent,
    layer_step_simple,
    parameter_major,
)

CHECKPOINT_SCHEMA_VERSION = 1


def sample_weights(arch: Architecture):
    """Frozen weight matrices, one per layer gap, shape (fan_out, fan_in).

    Each layer draws from its own stream keyed by (weight_seed, layer index),
    so appending layers never perturbs earlier matrices.
    """
    weights = []
    for k, (fan_in, fan_out) in enumerate(zip(arch.layer_sizes, arch.layer_sizes[1:])):
        rng = np.random.default_rng(np.random.SeedSequence((arch.weight_seed, k)))
        weights.append(rng.normal(0.0, arch.weight_std, size=(fan_out, fan_in)))
    return weights


def weight_checksum(weights) -> str:
    """SHA-256 over the raw float64 bytes of all matrices, in layer order."""
    digest = hashlib.sha256()
    for w in weights:
        digest.update(np.ascontiguousarray(w, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _all_tanh(kinds):
    return all(k is OutputKind.TANH for k in kinds)


class RandomNetwork:
    """Random-weight network with one evolvable unit per neuron.

    The weight matrices are built once from the architecture's seed and are
    never touched afterwards; only the unit parameters (from the genome) and
    the per-neuron states change between instances and time steps.
    """

    def __init__(self, arch: Architecture, genome, weights=None):
        if arch.neuron_mode is NeuronMode.PLAIN_TANH:
            raise ConfigError("neuron_mode: plain-tanh networks use FfnnPolicy")
        self.arch = arch
        self.weights = sample_weights(arch) if weights is None else weights
        self.params = [parameter_major(p, arch.neuron_mode) for p in decode(genome, arch)]
        self.states = [np.zeros(n) for n in arch.layer_sizes]
        self._out_fn = None
        if not _all_tanh(arch.output_kinds):
            self._out_fn = lambda z: apply_output_kinds(z, arch.output_kinds)

    def reset_states(self):
        for h in self.states:
            h.fill(0.0)

    def forward(self, obs):
        """One time step; updates neuron states in place, returns the action."""
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape != (self.arch.obs_dim,):
            raise DomainError(
                f"observation shape {obs.shape} does not match input layer "
                f"({self.arch.obs_dim},)"
            )
        if not np.all(np.isfinite(obs)):
            raise DomainError("observation must be finite")
        recurrent = self.arch.neuron_mode is NeuronMode.RECURRENT
        x = obs
        last = self.arch.n_layers - 1
        for k in range(self.arch.n_layers):
            pre = x if k == 0 else self.weights[k - 1] @ x
            out_fn = self._out_fn if k == last else None
            if recurrent:
                x, h_new = layer_step_recurrent(self.params[k], pre, self.states[k], out_fn)
                self.states[k][:] = h_new
            else:
                x = layer_step_simple(self.params[k], pre, out_fn)
        return x

    def clone(self):
        net = RandomNetwork.__new__(RandomNetwork)
        net.arch = self.arch
        net.weights = self.weights  # frozen, safe to share
        net.params = self.params
        net.states = [h.copy() for h in self.states]
        net._out_fn = self._out_fn
        return net


class FfnnPolicy:
    """Plain fully connected tanh network; weights and biases come from the genome."""

    def __init__(self, arch: Architecture, genome):
        if arch.neuron_mode is not NeuronMode.PLAIN_TANH:
            raise ConfigError("neuron_mode: FfnnPolicy requires plain-tanh mode")
        self.arch = arch
        self.layers = decode(genome, arch)
        self._out_fn = None
        if not _all_tanh(arch.output_kinds):
            self._out_fn = lambda z: apply_output_kinds(z, arch.output_kinds)

    def reset_states(self):
        pass  # stateless

    def forward(self, obs):
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape != (self.arch.obs_dim,):
            raise DomainError(
                f"observation shape {obs.shape} does not match input layer "
                f"({self.arch.obs_dim},)"
            )
        if not np.all(np.isfinite(obs)):
            raise DomainError("observation must be finite")
        x = obs
        last = len(self.layers) - 1
        for k, (w, b) in enumerate(self.layers):
            z = w @ x + b
            if k == last and self._out_fn is not None:
                x = self._out_fn(z)
            else:
                x = np.tanh(z)
        return x


def build_policy(arch: Architecture, genome, weights=None):
    if arch.neuron_mode is NeuronMode.PLAIN_TANH:
        return FfnnPolicy(arch, genome)
    return RandomNetwork(arch, genome, weights=weights)


class BatchedPolicy:
    """Forward pass for the live rows of a batch of B candidates.

    For unit modes the frozen weights are shared across the batch; for the
    plain-tanh baseline each candidate carries its own weights. ``keep``
    drops rows whose episode has ended and ``reset_states`` brings all B
    rows back, so ``forward`` only ever computes running episodes.
    ``rows`` holds the batch index of each live row.
    """

    def __init__(self, arch: Architecture, genomes, weights=None):
        self.arch = arch
        genomes = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        self.batch = genomes.shape[0]
        if genomes.shape[1] != count_parameters(arch):
            raise ConfigError(
                f"genome length mismatch: expected {count_parameters(arch)}, "
                f"got {genomes.shape[1]}"
            )
        self.mode = arch.neuron_mode
        self._out_fn = None
        if not _all_tanh(arch.output_kinds):
            self._out_fn = lambda z: apply_output_kinds(z, arch.output_kinds)
        if self.mode is NeuronMode.PLAIN_TANH:
            per_layer = [decode(g, arch) for g in genomes]
            self._all_layers = [
                (
                    np.stack([cand[k][0] for cand in per_layer]),
                    np.stack([cand[k][1] for cand in per_layer]),
                )
                for k in range(arch.n_layers - 1)
            ]
        else:
            self.weights = sample_weights(arch) if weights is None else weights
            per = 6 if self.mode is NeuronMode.RECURRENT else 2
            shape = (2, 3) if self.mode is NeuronMode.RECURRENT else (2,)
            self._all_params = []
            pos = 0
            for n in arch.layer_sizes:
                block = genomes[:, pos : pos + n * per].reshape((self.batch, n) + shape)
                self._all_params.append(parameter_major(block, self.mode))
                pos += n * per
            # Inputs of each weight product, scattered back to their rows.
            self._product_in = [np.zeros((self.batch, n)) for n in arch.layer_sizes[:-1]]
        self.reset_states()

    def reset_states(self):
        """Zero every neuron state and make all B rows live again."""
        self.rows = np.arange(self.batch)
        if self.mode is NeuronMode.PLAIN_TANH:
            self.layers = self._all_layers
        else:
            self.params = self._all_params
            self.states = [np.zeros((self.batch, n)) for n in self.arch.layer_sizes]

    def keep(self, mask):
        """Keep only the live rows where ``mask`` is true, in order."""
        self.rows = self.rows[mask]
        if self.mode is NeuronMode.PLAIN_TANH:
            self.layers = [(w[mask], b[mask]) for w, b in self.layers]
        else:
            self.params = [p.compress(mask, axis=-2) for p in self.params]
            self.states = [h[mask] for h in self.states]

    def _weight_product(self, k, x):
        """x @ W_k.T for the live rows, computed over all B rows.

        BLAS results for a row are not bitwise stable as the row count
        changes, so the live rows go back to their places in a (B, n)
        buffer and every product runs at B rows.
        """
        w_t = self.weights[k].T
        if self.rows.size == self.batch:
            return x @ w_t
        buf = self._product_in[k]
        buf[self.rows] = x
        return (buf @ w_t)[self.rows]

    def forward(self, obs):
        """obs: (live rows, obs_dim) -> actions (live rows, action_dim)."""
        x = np.asarray(obs, dtype=np.float64)
        if self.mode is NeuronMode.PLAIN_TANH:
            last = len(self.layers) - 1
            for k, (w, b) in enumerate(self.layers):
                z = np.einsum("boi,bi->bo", w, x) + b
                x = self._out_fn(z) if (k == last and self._out_fn) else np.tanh(z)
            return x
        last = self.arch.n_layers - 1
        recurrent = self.mode is NeuronMode.RECURRENT
        for k in range(self.arch.n_layers):
            pre = x if k == 0 else self._weight_product(k - 1, x)
            out_fn = self._out_fn if k == last else None
            if recurrent:
                x, self.states[k] = layer_step_recurrent(
                    self.params[k], pre, self.states[k], out_fn
                )
            else:
                x = layer_step_simple(self.params[k], pre, out_fn)
        return x


def _arch_to_dict(arch: Architecture) -> dict:
    return {
        "layer_sizes": list(arch.layer_sizes),
        "neuron_mode": arch.neuron_mode.value,
        "output_kinds": [k.value for k in arch.output_kinds],
        "weight_seed": int(arch.weight_seed),
        "weight_std": float(arch.weight_std),
    }


def _arch_from_dict(d: dict) -> Architecture:
    return Architecture(
        layer_sizes=tuple(d["layer_sizes"]),
        neuron_mode=NeuronMode(d["neuron_mode"]),
        output_kinds=tuple(OutputKind(k) for k in d["output_kinds"]),
        weight_seed=d["weight_seed"],
        weight_std=d["weight_std"],
    )


def save_champion(path, arch: Architecture, genome, eval_info=None):
    """Write a champion checkpoint as JSON; floats round-trip bit-exactly."""
    if arch.neuron_mode is NeuronMode.PLAIN_TANH:
        checksum = None
    else:
        checksum = weight_checksum(sample_weights(arch))
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "kind": "champion",
        "arch": _arch_to_dict(arch),
        "genome": [float(v) for v in np.asarray(genome, dtype=np.float64)],
        "weight_checksum": checksum,
        "eval": eval_info,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_champion(path):
    """Read a champion checkpoint; verifies the frozen-weight checksum.

    Returns (arch, genome, eval_info).
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot decode checkpoint {path}: {exc}") from exc
    try:
        if payload["schema_version"] != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint schema {payload['schema_version']}"
            )
        if payload.get("kind") != "champion":
            raise CheckpointError(f"not a champion checkpoint: {path}")
        arch = _arch_from_dict(payload["arch"])
        genome = np.asarray(payload["genome"], dtype=np.float64)
        recorded = payload["weight_checksum"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    if genome.size != count_parameters(arch):
        raise CheckpointError(
            f"checkpoint genome length {genome.size} does not match architecture "
            f"(expected {count_parameters(arch)})"
        )
    if recorded is not None:
        actual = weight_checksum(sample_weights(arch))
        if actual != recorded:
            raise CheckpointError(
                "weight checksum mismatch: weights were mutated or the "
                "generator changed since this checkpoint was written"
            )
    return arch, genome, payload.get("eval")
