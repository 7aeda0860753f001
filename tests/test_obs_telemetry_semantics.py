"""Regression tests: telemetry window accounting and reward-state resume.

Two semantics this PR pins down:

* The telemetry window reset must not double-count — two consecutive
  ``snapshot()`` calls report each arrival, completion and timeout
  exactly once across the pair.
* ``RewardCalculator``'s queue-growth memory (``_prev_queue_len``) must
  survive a ``state_dict``/``load_state_dict`` round trip bitwise, so a
  resumed run computes the exact same next reward as an uninterrupted one.
"""

import copy

import numpy as np

from repro.core.reward import RewardCalculator, RewardConfig
from repro.cpu import Cpu
from repro.server import Server
from repro.server.telemetry import TelemetrySnapshot
from repro.workload import Request


def _req(i=0, arrival=0.0, work=1.0, sla=10.0):
    return Request(req_id=i, arrival_time=arrival, work=work, features=np.zeros(3), sla=sla)


def _snap(time=1.0, window=0.5, num_req=10, queue_len=0, timeouts=0, completed=10):
    return TelemetrySnapshot(
        time=time,
        window=window,
        num_req=num_req,
        queue_len=queue_len,
        queue_frac=(0, 0, 0),
        core_frac=(0, 0, 0),
        timeouts=timeouts,
        completed=completed,
        utilization=0.5,
    )


class TestTelemetryWindowCounters:
    def _server(self, engine, tiny_app):
        cpu = Cpu(engine, 2)
        cpu.set_all_frequencies(1.0)
        return Server(engine, cpu, tiny_app)

    def test_consecutive_snapshots_do_not_double_count(self, engine, tiny_app):
        srv = self._server(engine, tiny_app)
        for i in range(3):
            srv.submit(_req(i, arrival=engine.now, work=0.1))
        engine.run_until(1.0)

        s1 = srv.telemetry.snapshot()
        assert s1.num_req == 3 and s1.completed == 3

        # A second snapshot with no traffic reports an empty window (the
        # reset already ran).
        s2 = srv.telemetry.snapshot()
        assert s2.num_req == 0 and s2.completed == 0 and s2.timeouts == 0

    def test_counters_accumulate_across_windows(self, engine, tiny_app):
        srv = self._server(engine, tiny_app)
        total = 0
        snaps = []
        for batch in (2, 4):
            for i in range(batch):
                srv.submit(_req(100 + total + i, arrival=engine.now, work=0.1))
            engine.run_until(engine.now + 1.0)
            snaps.append(srv.telemetry.snapshot())
            total += batch
        # Each window reports its own batch; together they count each once.
        assert [s.num_req for s in snaps] == [2, 4]
        assert [s.completed for s in snaps] == [2, 4]

    def test_unbound_channel_has_no_registry_side_effects(self, engine, tiny_app):
        srv = self._server(engine, tiny_app)
        srv.submit(_req(0, work=0.1))
        engine.run_until(1.0)
        snap = srv.telemetry.snapshot()
        assert snap.completed == 1  # plain path still works, no obs attached


class TestRewardStateResume:
    def _calc(self):
        return RewardCalculator(
            RewardConfig(eta=4.0), max_power_watts=30.0, min_power_watts=5.0
        )

    def test_prev_queue_len_round_trips_bitwise(self):
        calc = self._calc()
        calc.compute(_snap(queue_len=7), window_energy_joules=6.0)
        state = calc.state_dict()
        assert state["prev_queue_len"] == 7

        fresh = self._calc()
        fresh.load_state_dict(state)
        assert fresh._prev_queue_len == calc._prev_queue_len
        assert fresh.eta == calc.eta

        # The next compute after resume is bitwise-identical to the
        # uninterrupted calculator's (queue growth 7 -> 12 is punished the
        # same either way).
        nxt = _snap(time=1.5, queue_len=12, timeouts=2)
        a = calc.compute(nxt, window_energy_joules=8.0)
        b = fresh.compute(nxt, window_energy_joules=8.0)
        assert a == b
        assert a.queue_term > 0.0  # growth above eta is actually punished

    def test_resume_differs_from_cold_start(self):
        # Without restoring _prev_queue_len a cold calculator treats the
        # first window as zero-growth; this is the bug resume protects against.
        warm = self._calc()
        warm.compute(_snap(queue_len=2), window_energy_joules=6.0)
        cold = self._calc()
        nxt = _snap(time=1.5, queue_len=12)
        assert warm.compute(nxt, 6.0).queue_term > cold.compute(copy.deepcopy(nxt), 6.0).queue_term == 0.0

    def test_none_prev_queue_len_round_trips(self):
        calc = self._calc()
        state = calc.state_dict()
        assert state["prev_queue_len"] is None
        fresh = self._calc()
        fresh.compute(_snap(queue_len=3), 6.0)  # give it stale state
        fresh.load_state_dict(state)
        assert fresh._prev_queue_len is None

    def test_runtime_checkpoint_carries_reward_state(self, tiny_app):
        from repro.core import DeepPowerAgent, default_ddpg_config
        from repro.core.runtime import DeepPowerConfig, DeepPowerRuntime
        from repro.experiments.runner import build_context
        from repro.sim import RngRegistry
        from repro.workload import constant_trace

        ctx = build_context(tiny_app, constant_trace(30.0, 2.0), 2, seed=9)
        agent = DeepPowerAgent(
            RngRegistry(9).get("agent"), default_ddpg_config(warmup=4, batch_size=8)
        )
        rt = DeepPowerRuntime(
            ctx.engine, ctx.server, ctx.monitor, agent, DeepPowerConfig()
        )
        rt.start()
        ctx.source.start()
        ctx.engine.run_until(1.5)
        assert rt.step_count > 0
        state = rt.state_dict()
        prev = rt.reward_calc._prev_queue_len
        assert prev is not None

        ctx2 = build_context(tiny_app, constant_trace(30.0, 2.0), 2, seed=9)
        agent2 = DeepPowerAgent(
            RngRegistry(9).get("agent"), default_ddpg_config(warmup=4, batch_size=8)
        )
        rt2 = DeepPowerRuntime(
            ctx2.engine, ctx2.server, ctx2.monitor, agent2, DeepPowerConfig()
        )
        rt2.load_state_dict(state)
        assert rt2.reward_calc._prev_queue_len == prev
