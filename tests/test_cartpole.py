import numpy as np
import pytest

from evounits.architecture import Architecture, count_parameters
from evounits.cartpole import (
    BatchedSwingUp,
    SwingUpParams,
    accelerations,
    initial_state,
    step_reward,
)
from evounits.errors import DomainError
from evounits.harness import evaluate
from evounits.neural_unit import NeuronMode
from rollout_oracle import FreezingSwingUp


def rk4_rollout(params, state, force, dt, n_steps):
    """Fine-step RK4 reference integration, used as the dynamics oracle."""

    def deriv(s):
        x_acc, theta_acc = accelerations(params, s, force)
        return np.array([s[1], x_acc, s[3], theta_acc])

    s = np.array(state, dtype=float)
    for _ in range(n_steps):
        k1 = deriv(s)
        k2 = deriv(s + 0.5 * dt * k1)
        k3 = deriv(s + 0.5 * dt * k2)
        k4 = deriv(s + dt * k3)
        s = s + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


def mechanical_energy(params, state):
    x, x_dot, theta, theta_dot = state
    mc, mp, length, g = params.m_cart, params.m_pole, params.length, params.gravity
    half = length / 2.0
    kinetic = (
        0.5 * (mc + mp) * x_dot**2
        + mp * half * x_dot * theta_dot * np.cos(theta)
        + 0.5 * (mp * length**2 / 3.0) * theta_dot**2
    )
    potential = mp * g * half * np.cos(theta)
    return kinetic + potential


class TestReset:
    def test_seeded_reset_reproducible(self):
        env = BatchedSwingUp(SwingUpParams())
        o1 = env.reset([123])
        o2 = env.reset([123])
        assert np.array_equal(o1, o2)

    def test_observation_layout(self):
        env = BatchedSwingUp(SwingUpParams())
        obs = env.reset([0])
        assert obs.shape == (1, 5)
        # Pole hangs down at reset.
        assert obs[0, 2] == pytest.approx(-1.0, abs=1e-3)
        x, x_dot, _, _, theta_dot = obs[0]
        assert abs(x) <= 0.01 and abs(x_dot) <= 0.01 and abs(theta_dot) <= 0.01

    def test_reset_noise_bounds(self):
        params = SwingUpParams()
        for seed in range(50):
            s = initial_state(params, seed)
            assert np.all(np.abs(s - [0, 0, np.pi, 0]) <= params.reset_noise)


class TestStep:
    def test_reward_upright_centered(self):
        assert step_reward(SwingUpParams(), 0.0, np.cos(0.0)) == pytest.approx(1.0)

    def test_reward_hanging_is_zero(self):
        p = SwingUpParams()
        assert step_reward(p, 0.0, np.cos(np.pi)) == pytest.approx(0.0, abs=1e-15)
        assert step_reward(p, 1.7, np.cos(np.pi)) == pytest.approx(0.0, abs=1e-15)

    def test_reward_bounds_everywhere(self):
        p = SwingUpParams()
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, 1000)
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, 1000)
        r = step_reward(p, x, np.cos(theta))
        assert np.all(r >= 0.0) and np.all(r <= 1.0)

    def test_zero_action_pole_stays_down(self):
        env = BatchedSwingUp(SwingUpParams())
        env.reset([3])
        start = env.state[:, 0].copy()
        for _ in range(10):
            env.step(np.zeros(1))
        # Hanging is a stable equilibrium: nothing moves much in 0.1 s.
        assert abs(env.state[2, 0] - np.pi) < 0.05
        assert abs(env.state[0, 0] - start[0]) < 0.01

    def test_semi_implicit_matches_fine_reference(self):
        # Coarse semi-implicit Euler vs RK4 at dt/10, 10 coarse steps, no force.
        p = SwingUpParams(friction=0.0)
        env = BatchedSwingUp(p)
        env.reset([3])
        start = env.state[:, 0].copy()
        for _ in range(10):
            env.step(np.zeros(1))
        ref = rk4_rollout(p, start, 0.0, p.dt / 10.0, 100)
        np.testing.assert_allclose(env.state[:, 0], ref, atol=5e-4, rtol=0)

    def test_step_after_done_raises(self):
        env = BatchedSwingUp(SwingUpParams(max_steps=2))
        env.reset([0, 1])
        env.step(np.zeros(2))
        env.step(np.zeros(2))
        with pytest.raises(DomainError):
            env.step(np.zeros(2))
        # A row that ended and was not dropped with keep() is caught too.
        env = BatchedSwingUp(SwingUpParams())
        env.reset([0, 1])
        while not env.step(np.array([1.0, 0.0]))[2].any():
            pass
        with pytest.raises(DomainError):
            env.step(np.array([1.0, 0.0]))
        # keep() takes indices; a boolean mask would be read as rows 1 and 0.
        with pytest.raises(DomainError):
            env.keep(~env.done)
        env.keep(np.flatnonzero(~env.done))
        env.step(np.zeros(1))

    def test_nonfinite_action_rejected(self):
        env = BatchedSwingUp(SwingUpParams())
        env.reset([0])
        with pytest.raises(DomainError):
            env.step(np.array([np.nan]))

    def test_determinism_bitwise(self):
        actions = np.sin(np.arange(200) * 0.07)
        trajectories = []
        for _ in range(2):
            env = BatchedSwingUp(SwingUpParams())
            env.reset([11])
            states = []
            for a in actions:
                _, _, done = env.step(np.array([a]))
                states.append(env.state.copy())
                if done.any():
                    break
            trajectories.append(np.stack(states))
        assert np.array_equal(trajectories[0], trajectories[1])

    def test_mirror_symmetry_exact(self):
        p = SwingUpParams()
        env_a = BatchedSwingUp(p)
        env_b = BatchedSwingUp(p)
        env_a.reset([0])
        start = env_a.state.copy()
        env_b.reset([0])
        env_b.state = -start  # mirrored start: x, x_dot, theta, theta_dot all negated
        actions = np.cos(np.arange(100) * 0.13) * 0.8
        for a in actions:
            env_a.step(np.array([a]))
            env_b.step(np.array([-a]))
        assert np.array_equal(env_b.state, -env_a.state)


class TestEnergy:
    def test_reference_integrator_conserves_energy(self):
        # No force, no friction: RK4 at dt/10 drifts < 1% over 1000 coarse steps.
        p = SwingUpParams(friction=0.0)
        start = initial_state(p, 7)
        start[2] = np.pi / 2  # swinging, so energy exchange actually happens
        e0 = mechanical_energy(p, start)
        end = rk4_rollout(p, start, 0.0, p.dt / 10.0, 10000)
        e1 = mechanical_energy(p, end)
        scale = abs(e0) + p.m_pole * p.gravity * p.length  # energy scale of the system
        assert abs(e1 - e0) / scale < 0.01


class TestBatchedEnv:
    def test_matches_single_instance(self):
        p = SwingUpParams()
        seeds = [4, 9, 17]
        batched = BatchedSwingUp(p)
        obs_b = batched.reset(seeds)
        singles = [BatchedSwingUp(p) for _ in seeds]
        obs_s = np.concatenate([env.reset([s]) for env, s in zip(singles, seeds)])
        np.testing.assert_allclose(obs_b, obs_s, atol=0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            actions = rng.uniform(-1, 1, 3)
            obs_b, rew_b, _ = batched.step(actions)
            for i, env in enumerate(singles):
                obs_i, rew_i, _ = env.step(actions[i : i + 1])
                np.testing.assert_allclose(obs_b[i], obs_i[0], atol=1e-12)
                assert rew_b[i] == pytest.approx(rew_i[0], abs=1e-12)

    def test_reset_with_repeated_seeds(self):
        p = SwingUpParams(reset_noise=1.0)
        seeds = [5, 3, 5, 5, 3]
        env = BatchedSwingUp(p)
        env.reset(seeds)
        want = np.stack([initial_state(p, s) for s in seeds], axis=1)
        assert np.array_equal(env.state, want)

    def test_keep_drops_ended_rows(self):
        p = SwingUpParams(max_steps=1000)
        env = BatchedSwingUp(p)
        ref = FreezingSwingUp(p, 3)
        env.reset([0, 1, 2])
        ref.reset([0, 1, 2])
        # Drive instance 0 off the rail, leave the others nearly alone.
        actions = np.array([1.0, 0.0, -0.2])
        for _ in range(1000):
            _, r, done = env.step(actions)
            _, r_ref, _ = ref.step(actions)
            assert np.array_equal(r, r_ref)
            if done.any():
                break
        assert done.tolist() == [True, False, False]
        assert r[0] >= 0.0  # the final step still earns its reward
        frozen = ref.state[:, 0].copy()
        # Instance 2 takes the ended instance's place, as the rollout does it.
        order = [2, 1]
        env.keep(order)
        assert env.state.shape == (4, 2)
        assert not env.done.any() and env.done.shape == (2,)
        assert np.array_equal(env.state, ref.state[:, order])
        for _ in range(20):
            obs, r, _ = env.step(actions[order])
            obs_ref, r_ref, _ = ref.step(actions)
            assert np.array_equal(env.state, ref.state[:, order])
            assert np.array_equal(obs, obs_ref[order])
            assert np.array_equal(r, r_ref[order])
        assert np.array_equal(ref.state[:, 0], frozen)  # the oracle froze it

    def test_max_steps_ends_every_row(self):
        env = BatchedSwingUp(SwingUpParams(max_steps=3))
        env.reset([0, 1])
        for _ in range(2):
            assert not env.step(np.zeros(2))[2].any()
        assert env.step(np.zeros(2))[2].all()
        env.keep(np.flatnonzero(~env.done))
        assert env.state.shape == (4, 0)

    def test_sized_by_seeds(self):
        # One instance per seed of the latest reset, whatever it held before.
        env = BatchedSwingUp(SwingUpParams())
        assert env.reset([1, 2, 3]).shape == (3, 5)
        assert env.reset([1, 2]).shape == (2, 5)
        assert env.state.shape == (4, 2) and env.done.shape == (2,)
        _, reward, done = env.step(np.zeros(2))
        assert reward.shape == done.shape == (2,)


def constant_policy_genome(value, sizes=(5, 4, 1)):
    """A recurrent genome whose action is tanh(arctanh(value)) at every step:
    only the output unit's bias is set."""
    arch = Architecture(sizes, NeuronMode.RECURRENT)
    genome = np.zeros(count_parameters(arch))
    genome[-4] = np.arctanh(value)  # output row: [x, h, bias]
    return genome, arch


class TestRunEpisode:
    def test_reward_ceiling(self):
        genome, arch = constant_policy_genome(0.0)
        traj = []
        report = evaluate(genome, arch, SwingUpParams(), 1, 5, trajectory=traj)
        assert 0.0 <= report.scores[0] <= 1000.0
        assert len(traj) <= 1000

    def test_zero_policy_scores_nothing(self):
        genome, arch = constant_policy_genome(0.0)
        report = evaluate(genome, arch, SwingUpParams(), 1, 5)
        assert report.scores[0] < 1.0  # pole never leaves the bottom

    def test_bitwise_repeatable(self):
        genome, arch = constant_policy_genome(0.3)
        t1, t2 = [], []
        r1 = evaluate(genome, arch, SwingUpParams(), 1, 8, trajectory=t1)
        r2 = evaluate(genome, arch, SwingUpParams(), 1, 8, trajectory=t2)
        assert r1.scores == r2.scores
        assert t1 == t2 and len(t1) < 1000  # the constant push runs off the rail

    def test_trajectory_recording(self):
        genome, arch = constant_policy_genome(0.5)
        traj = []
        evaluate(genome, arch, SwingUpParams(max_steps=20), 1, 2, trajectory=traj)
        assert [row[0] for row in traj] == list(range(1, 21))
        assert len(traj[0]) == 7  # t, state(4), action, reward
        assert all(row[5] == 0.5 for row in traj)
