"""Parameter arenas: layout checks, integrity across loads, and the two
learner kernels (the mask-free sigmoid and the input-gradient-only critic
pass) against the formulas they replaced, bit for bit.

Every network keeps its parameters in one flat ``data``/``grad`` pair and
every :class:`Parameter` views it.  A load that rebinds ``p.data`` instead
of writing into it would silently stop that parameter training, so each
load path below is checked for both: the views survive, and training
after the load matches training without it, bit for bit.
"""

import numpy as np
import pytest

from repro.experiments.fig7_main import tuned_agent_setup
from repro.nn import (
    MLP,
    SGD,
    Adam,
    Parameter,
    Sigmoid,
    clip_grad_norm,
    load_modules,
    save_modules,
)
from repro.rl.critics import StateActionCritic
from repro.rl.sac import SacAgent, SacConfig
from repro.workload.apps import get_app


def _agent():
    agent, _ = tuned_agent_setup(1, get_app("xapian"))
    rng = np.random.default_rng(7)
    for _ in range(300):
        reward = float(5.0 * rng.standard_normal())
        agent.observe(rng.random(8), rng.random(2), reward, rng.random(8))
    return agent


NETS = ("actor", "actor_target", "critic", "critic_target")


def _assert_views(module):
    arena = module.arena
    for p in module.parameters():
        assert np.shares_memory(p.data, arena.data), p.name
        assert np.shares_memory(p.grad, arena.grad), p.name
    assert module.get_flat().tolist() == np.concatenate(
        [p.data.ravel() for p in module.parameters()]
    ).tolist()


def _assert_agent_views(agent):
    for name in NETS:
        _assert_views(getattr(agent, name))
    assert np.shares_memory(agent.actor_opt.arena.data, agent.actor.arena.data)
    assert np.shares_memory(agent.critic_opt.arena.grad, agent.critic.arena.grad)


def _bits(agent):
    return {name: getattr(agent, name).get_flat().tobytes() for name in NETS}


def _train(agent, n=25):
    return [agent.update() for _ in range(n)]


# ------------------------------------------------------------------ layout


class TestLayout:
    def test_soft_update_rejects_fewer_target_parameters(self, rng):
        # The target's two parameters match the first two of the source, so
        # pairing them up silently updated half the source's layers.
        target = MLP([4, 8], rng)
        source = MLP([4, 8, 3], rng)
        before = target.get_flat()
        with pytest.raises(ValueError, match="layout"):
            target.soft_update_from(source, 0.5)
        with pytest.raises(ValueError, match="layout"):
            source.soft_update_from(target, 0.5)
        np.testing.assert_array_equal(target.get_flat(), before)

    def test_copy_from_rejects_a_different_layout(self, rng):
        with pytest.raises(ValueError, match="layout"):
            MLP([4, 8, 3], rng).copy_from(MLP([4, 3, 8], rng))

    def test_soft_update_is_polyak_per_element(self, rng):
        target, source = MLP([3, 5, 2], rng), MLP([3, 5, 2], rng)
        expect = [pt.data * 0.75 + 0.25 * ps.data
                  for pt, ps in zip(target.parameters(), source.parameters())]
        target.soft_update_from(source, 0.25)
        for p, want in zip(target.parameters(), expect):
            assert p.data.tobytes() == want.tobytes()

    def test_sub_network_views_its_slice_of_the_parent(self, rng):
        critic = SacAgent(SacConfig(), rng).critic
        n1 = critic.q1.num_parameters()
        assert critic.num_parameters() == n1 + critic.q2.num_parameters()
        assert np.shares_memory(critic.q1.arena.grad, critic.arena.grad[:n1])
        assert np.shares_memory(critic.q2.arena.grad, critic.arena.grad[n1:])

    def test_sub_network_zero_grad_zeroes_exactly_its_gradients(self, rng):
        critic = SacAgent(SacConfig(), rng).critic
        critic.arena.grad[...] = 1.0
        critic.q1.zero_grad()
        assert all(not p.grad.any() for p in critic.q1.parameters())
        assert all((p.grad == 1.0).all() for p in critic.q2.parameters())

    def test_optimizer_rejects_parameters_from_two_arenas(self, rng):
        a, b = MLP([3, 4, 2], rng), MLP([3, 4, 2], rng)
        with pytest.raises(ValueError, match="contiguous"):
            Adam(a.parameters() + b.parameters())
        with pytest.raises(ValueError, match="contiguous"):
            clip_grad_norm(a.parameters()[::2], 1.0)

    def test_standalone_parameters_get_their_own_arena(self):
        ps = [Parameter(np.ones((2, 3))), Parameter(np.ones(3))]
        opt = SGD(ps, lr=0.5)
        for p in ps:
            assert np.shares_memory(p.data, opt.arena.data)
            p.grad[...] = 2.0
        opt.step()
        assert all((p.data == 0.0).all() for p in ps)


# ------------------------------------------------------------- integrity


class TestLoadsKeepTheArena:
    def test_agent_load_state_dict(self):
        a = _agent()
        _train(a)
        b = _agent()
        b.load_state_dict(a.state_dict())
        _assert_agent_views(b)
        _train(a)
        _train(b)
        assert _bits(a) == _bits(b)

    @pytest.mark.parametrize("name", ["actor_opt", "critic_opt"])
    def test_adam_load_state_dict(self, name):
        a = _agent()
        _train(a)
        b = _agent()
        b.load_state_dict(a.state_dict())
        getattr(b, name).load_state_dict(getattr(a, name).state_dict())
        _assert_agent_views(b)
        _train(a)
        _train(b)
        assert _bits(a) == _bits(b)

    def test_sgd_load_state_dict(self, rng):
        def run(net, opt, seed, n=5):
            r = np.random.default_rng(seed)
            for _ in range(n):
                net.arena.grad[...] = r.standard_normal(net.num_parameters())
                opt.step()

        net_a = MLP([3, 6, 2], rng)
        net_b = MLP([3, 6, 2], rng)
        opt_a = SGD(net_a.arena, lr=0.05, momentum=0.9)
        opt_b = SGD(net_b.arena, lr=0.05, momentum=0.9)
        run(net_a, opt_a, 1)
        net_b.load_state_dict(net_a.state_dict())
        opt_b.load_state_dict(opt_a.state_dict())
        _assert_views(net_b)
        assert np.shares_memory(opt_b.arena.data, net_b.arena.data)
        run(net_a, opt_a, 2)
        run(net_b, opt_b, 2)
        assert net_a.get_flat().tobytes() == net_b.get_flat().tobytes()

    def test_load_modules(self, tmp_path):
        a = _agent()
        _train(a)
        path = str(tmp_path / "nets.npz")
        save_modules({name: getattr(a, name) for name in NETS}, path)
        b = _agent()
        b.load_state_dict(a.state_dict())
        for name in NETS:
            getattr(b, name).set_flat(np.zeros(getattr(b, name).num_parameters()))
        load_modules({name: getattr(b, name) for name in NETS}, path)
        _assert_agent_views(b)
        _train(a)
        _train(b)
        assert _bits(a) == _bits(b)

    def test_set_flat_and_copy_from(self):
        a = _agent()
        _train(a)
        b = _agent()
        b.load_state_dict(a.state_dict())
        b.actor.set_flat(np.zeros(b.actor.num_parameters()))
        b.actor.set_flat(a.actor.get_flat())
        b.critic_target.set_flat(np.zeros(b.critic_target.num_parameters()))
        b.critic_target.copy_from(a.critic_target)
        _assert_agent_views(b)
        _train(a)
        _train(b)
        assert _bits(a) == _bits(b)

    def test_set_flat_checks_the_size(self, rng):
        net = MLP([3, 4, 2], rng)
        with pytest.raises(ValueError, match="too short"):
            net.set_flat(np.zeros(net.num_parameters() - 1))
        with pytest.raises(ValueError, match="extra"):
            net.set_flat(np.zeros(net.num_parameters() + 2))


# ---------------------------------------------------------------- kernels


def _sigmoid_masked(x):
    """The former piecewise sigmoid, with its boolean-mask scatter."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _clip_per_parameter(params, max_norm):
    """The former per-parameter clip loop."""
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0.0:
        for p in params:
            p.grad *= max_norm / (norm + 1e-12)
    return norm


class TestKernels:
    def test_sigmoid_matches_the_masked_formula_bit_for_bit(self, rng):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            700.5, -700.5, 745.2, -745.2, 1e308, -1e308, 5e-324])
        xs = [
            special,
            special.reshape(-1, 1),
            rng.standard_normal((64, 1)) * 8.0,
            rng.standard_normal((257, 3)) * 300.0,
            np.concatenate([rng.standard_normal(999) * 1e3, special])[::2],
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for x in xs:
                want = _sigmoid_masked(x)
                got = Sigmoid().forward(x.copy())
                assert got.shape == want.shape
                assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    def test_action_gradient_matches_backward_and_leaves_grads(self, rng):
        for _ in range(20):
            critic = StateActionCritic(8, 2, rng)
            s, a = rng.random((64, 8)), rng.random((64, 2))
            critic.forward_sa(s, a)
            _, want = critic.backward(np.ones((64, 1)))
            critic.zero_grad()
            grads = rng.standard_normal(critic.num_parameters())
            critic.arena.grad[...] = grads
            q, got = critic.action_gradient(s, a)
            assert got.tobytes() == want.tobytes()
            assert q.tobytes() == critic.forward_sa(s, a).tobytes()
            assert critic.arena.grad.tobytes() == grads.tobytes()

    def test_skipped_input_gradient_leaves_parameter_gradients_alike(self, rng):
        critic = StateActionCritic(8, 2, rng)
        s, a, g = rng.random((64, 8)), rng.random((64, 2)), rng.standard_normal((64, 1))
        critic.forward_sa(s, a)
        critic.zero_grad()
        gs, _ = critic.backward(g)
        full = critic.arena.grad.copy()
        critic.zero_grad()
        none, _ = critic.backward(g, input_grad=False)
        assert gs.shape == (64, 8) and none is None
        assert critic.arena.grad.tobytes() == full.tobytes()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 50.0])
    def test_clip_norm_matches_the_per_parameter_sum(self, rng, scale):
        a = StateActionCritic(8, 2, rng)
        b = StateActionCritic(8, 2, rng)
        for _ in range(200):
            b.arena.grad[...] = a.arena.grad[...] = rng.standard_normal(a.num_parameters()) * scale
            want = _clip_per_parameter(b.parameters(), 10.0)
            got = clip_grad_norm(a.arena, 10.0)
            assert got == want
            assert a.arena.grad.tobytes() == b.arena.grad.tobytes()
