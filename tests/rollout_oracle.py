"""Full-batch rollout oracle: every candidate is stepped until the whole
batch has ended, with unit parameters in the per-unit (B, n, 2, 3) layout.

This is the rollout as it stood before live-row compaction. Ended episodes
freeze their state and earn zero reward while the rest of the batch runs
on, so every weight product and unit step covers all B rows. Batches hold
at most ``network.PRODUCT_ROWS`` rows, and each weight product is padded to
that many rows with every row in place, which is the rounding the
production rollout promises for every row. The golden tests compare the
production rollout with it bitwise.
"""

import numpy as np

from evounits import network
from evounits.architecture import count_parameters, sample_weights
from evounits.cartpole import accelerations, initial_state, step_reward
from evounits.genome import decode
from evounits.neural_unit import NeuronMode


def unit_step_recurrent(values, x, h):
    """values: (..., n, 2, 3) per-unit matrices."""
    z_out = values[..., 0, 0] * x + values[..., 0, 1] * h + values[..., 0, 2]
    z_state = values[..., 1, 0] * x + values[..., 1, 1] * h + values[..., 1, 2]
    return np.tanh(z_out), np.tanh(z_state)


def unit_step_simple(values, x):
    """values: (..., n, 2) per-unit [scale, bias] rows."""
    return np.tanh(values[..., 0] * x + values[..., 1])


class FreezingSwingUp:
    """N instances in lockstep; ended instances freeze and earn zero reward."""

    def __init__(self, params, n):
        self.params = params
        self.n = n
        self.state = np.zeros((4, n))
        self.t = 0
        self.done = np.ones(n, dtype=bool)

    def reset(self, seeds):
        self.state = np.stack([initial_state(self.params, s) for s in seeds], axis=1)
        self.t = 0
        self.done = np.zeros(self.n, dtype=bool)
        return self._observe()

    def _observe(self):
        x, x_dot, theta, theta_dot = self.state
        return np.stack([x, x_dot, np.cos(theta), np.sin(theta), theta_dot], axis=1)

    @property
    def all_done(self):
        return bool(self.done.all())

    def step(self, actions):
        p = self.params
        force = np.clip(actions, -1.0, 1.0) * p.force_mag
        x, x_dot, theta, theta_dot = self.state
        x_acc, theta_acc = accelerations(p, self.state, force)
        alive = ~self.done
        x_dot = np.where(alive, x_dot + x_acc * p.dt, x_dot)
        theta_dot = np.where(alive, theta_dot + theta_acc * p.dt, theta_dot)
        x = np.where(alive, x + x_dot * p.dt, x)
        theta = np.where(alive, theta + theta_dot * p.dt, theta)
        self.state = np.stack([x, x_dot, theta, theta_dot])
        self.t += 1
        reward = np.where(alive, step_reward(p, x, np.cos(theta)), 0.0)
        self.done |= np.abs(x) > p.x_threshold
        if self.t >= p.max_steps:
            self.done[:] = True
        return self._observe(), reward, self.done.copy()


def padded_product(x, w):
    """x @ w.T with the rows of x in place in a PRODUCT_ROWS-row product."""
    buf = np.zeros((network.PRODUCT_ROWS, x.shape[1]), network.POLICY_DTYPE)
    buf[: len(x)] = x
    return (buf @ w.T)[: len(x)]


class FullBatchPolicy:
    """Forward pass over all B <= PRODUCT_ROWS rows, unit parameters as
    (B, n, 2, 3), in network.POLICY_DTYPE with float64 actions."""

    def __init__(self, arch, genomes):
        self.arch = arch
        genomes = np.atleast_2d(np.asarray(genomes, dtype=network.POLICY_DTYPE))
        assert genomes.shape[1] == count_parameters(arch)
        self.batch = genomes.shape[0]
        assert self.batch <= network.PRODUCT_ROWS
        self.mode = arch.neuron_mode
        if self.mode is NeuronMode.PLAIN_TANH:
            per_layer = [decode(g, arch, network.POLICY_DTYPE) for g in genomes]
            self.layers = [
                (np.stack([c[k][0] for c in per_layer]), np.stack([c[k][1] for c in per_layer]))
                for k in range(arch.n_layers - 1)
            ]
            return
        self.weights = [w.astype(network.POLICY_DTYPE) for w in sample_weights(arch)]
        per = 6 if self.mode is NeuronMode.RECURRENT else 2
        shape = (2, 3) if self.mode is NeuronMode.RECURRENT else (2,)
        self.params = []
        pos = 0
        for n in arch.layer_sizes:
            block = genomes[:, pos : pos + n * per]
            self.params.append(block.reshape((self.batch, n) + shape))
            pos += n * per
        self.states = [np.zeros((self.batch, n), network.POLICY_DTYPE) for n in arch.layer_sizes]

    def reset_states(self):
        if self.mode is not NeuronMode.PLAIN_TANH:
            for h in self.states:
                h.fill(0.0)

    def forward(self, obs):
        x = np.asarray(obs, dtype=network.POLICY_DTYPE)
        if self.mode is NeuronMode.PLAIN_TANH:
            for w, b in self.layers:
                x = np.tanh(np.einsum("boi,bi->bo", w, x) + b)
            return x.astype(np.float64)
        recurrent = self.mode is NeuronMode.RECURRENT
        for k in range(self.arch.n_layers):
            pre = x if k == 0 else padded_product(x, self.weights[k - 1])
            if recurrent:
                x, h_new = unit_step_recurrent(self.params[k], pre, self.states[k])
                self.states[k][:] = h_new
            else:
                x = unit_step_simple(self.params[k], pre)
        return x.astype(np.float64)


def episode_totals(net, env, seeds):
    """Per-row episode reward and the step at which each row's episode ended."""
    net.reset_states()
    obs = env.reset(seeds)
    totals = np.zeros(len(seeds))
    lengths = np.zeros(len(seeds), dtype=int)
    while not env.all_done:
        alive = ~env.done
        actions = net.forward(obs)
        obs, reward, _ = env.step(actions[:, 0])
        totals += reward
        lengths += alive
    return totals, lengths


def population_fitness(arch, env_params, genomes, episode_seeds):
    """Mean score per candidate, in chunks of PRODUCT_ROWS; also returns the
    episode lengths per chunk (one array per chunk and seed)."""
    genomes = np.atleast_2d(genomes)
    size = network.PRODUCT_ROWS
    fitness, lengths = [], []
    for i in range(0, genomes.shape[0], size):
        chunk = genomes[i : i + size]
        n = chunk.shape[0]
        net = FullBatchPolicy(arch, chunk)
        env = FreezingSwingUp(env_params, n)
        totals = np.zeros(n)
        for seed in episode_seeds:
            ep_total, ep_len = episode_totals(net, env, [seed] * n)
            totals += ep_total
            lengths.append(ep_len)
        fitness.append(totals / len(episode_seeds))
    return np.concatenate(fitness), lengths


def evaluation_scores(genome, arch, env_params, n_episodes, base_seed):
    """Per-episode scores of one genome over seeds base_seed .. base_seed+n-1,
    in batches of PRODUCT_ROWS; also returns the episode lengths per batch."""
    seeds = [base_seed + k for k in range(n_episodes)]
    size = network.PRODUCT_ROWS
    scores, lengths = [], []
    for i in range(0, n_episodes, size):
        batch_seeds = seeds[i : i + size]
        n = len(batch_seeds)
        net = FullBatchPolicy(arch, np.tile(genome, (n, 1)))
        totals, ep_len = episode_totals(net, FreezingSwingUp(env_params, n), batch_seeds)
        scores.extend(float(s) for s in totals)
        lengths.append(ep_len)
    return scores, lengths
