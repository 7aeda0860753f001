"""Tests for the fault-injection subsystem and the runtime watchdog."""

import numpy as np
import pytest

from repro.control import ControlPlaneConfig
from repro.core import DeepPowerAgent, DeepPowerConfig, DeepPowerRuntime, default_ddpg_config
from repro.cpu import Cpu
from repro.cpu.rapl import PowerMonitor
from repro.experiments.runner import build_context
from repro.faults import (
    ActuatorFaults,
    AgentFaults,
    FaultEvent,
    FaultHarness,
    FaultPlan,
    SAFE_ACTION,
    SensorFaults,
    Watchdog,
    standard_fault_plan,
)
from repro.faults.watchdog import (
    COOLDOWN_STEPS,
    MAX_COOLDOWN_STEPS,
    RELAPSE_WINDOW,
    TRIP_THRESHOLD,
)
from repro.server.telemetry import TelemetrySnapshot
from repro.sim import RngRegistry
from repro.workload import constant_trace


def _agent(seed=1, **over):
    rngs = RngRegistry(seed)
    return DeepPowerAgent(rngs.get("a"), default_ddpg_config(**over))


def _snap(time, window=1.0, queue_len=0):
    return TelemetrySnapshot(
        time=time, window=window, num_req=10, queue_len=queue_len,
        queue_frac=(0.5, 0.3, 0.2), core_frac=(0.5, 0.3, 0.2),
        timeouts=0, completed=10, utilization=0.5,
    )


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "sensor.teleport")

    def test_negative_time_and_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "sensor.freeze")
        with pytest.raises(ValueError):
            FaultEvent(1.0, "sensor.freeze", duration=-2.0)

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(dvfs_fail_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(sensor_noise_std=-1.0)

    def test_events_sorted_by_time(self):
        plan = FaultPlan(events=(
            FaultEvent(5.0, "sensor.freeze", duration=1.0),
            FaultEvent(1.0, "telemetry.drop", duration=1.0),
        ))
        assert [e.time for e in plan.events] == [1.0, 5.0]

    def test_empty_plan_detection(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(dvfs_fail_prob=0.01).is_empty
        assert standard_fault_plan(0.0, 100.0).is_empty
        assert not standard_fault_plan(0.01, 100.0).is_empty

    def test_events_of_prefix(self):
        plan = standard_fault_plan(0.05, 100.0, agent_faults=True)
        assert len(plan.events_of("telemetry.drop")) == 3
        assert len(plan.events_of("sensor")) == 2
        assert len(plan.events_of("agent")) == 2


class TestSensorFaults:
    def _stack(self, engine):
        cpu = Cpu(engine, 2)
        monitor = PowerMonitor(engine, cpu)
        return cpu, monitor

    def test_freeze_yields_zero_window_delta(self, engine):
        _, monitor = self._stack(engine)
        plan = FaultPlan(events=(FaultEvent(1.0, "sensor.freeze", duration=2.0),))
        SensorFaults(engine, plan, np.random.default_rng(0), monitor=monitor).arm()
        engine.run_until(1.5)
        monitor.window_energy()  # first read inside the freeze window
        engine.run_until(2.5)
        assert monitor.window_energy() == 0.0  # counter stuck since 1.0
        engine.run_until(4.0)  # after the freeze
        assert monitor.window_energy() > 0.0

    def test_glitch_jump_is_clamped_and_counted(self, engine):
        _, monitor = self._stack(engine)
        plan = FaultPlan(events=(
            FaultEvent(1.0, "sensor.glitch", magnitude=3.2 * monitor.wrap_joules),
        ))
        SensorFaults(engine, plan, np.random.default_rng(0), monitor=monitor).arm()
        engine.run_until(0.5)
        monitor.window_energy()
        before = monitor.glitch_count
        engine.run_until(2.0)
        e = monitor.window_energy()
        assert e <= monitor.max_plausible_watts * 1.5 + 1e-9
        assert monitor.glitch_count == before + 1

    def test_telemetry_drop_replays_last_snapshot(self, tiny_app, engine):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), 4.0)
        ctx = build_context(tiny_app, trace, 2, seed=4)
        plan = FaultPlan(events=(FaultEvent(2.0, "telemetry.drop", duration=1.5),))
        SensorFaults(
            ctx.engine, plan, np.random.default_rng(0), telemetry=ctx.server.telemetry
        ).arm()
        ctx.source.start()
        ctx.engine.run_until(1.0)
        first = ctx.server.telemetry.snapshot()
        ctx.engine.run_until(2.5)
        dropped = ctx.server.telemetry.snapshot()
        assert dropped.time == first.time  # stale replay of the last delivery
        ctx.engine.run_until(4.0)
        fresh = ctx.server.telemetry.snapshot()
        assert fresh.time > first.time


class TestActuatorFaults:
    def test_certain_write_failure_freezes_frequencies(self, engine):
        cpu = Cpu(engine, 2)
        plan = FaultPlan(dvfs_fail_prob=1.0)
        inj = ActuatorFaults(engine, plan, np.random.default_rng(0), cpu)
        inj.arm()
        before = cpu.cores[0].frequency
        applied = cpu.cores[0].set_frequency(cpu.table.fmin)
        assert applied == before
        assert cpu.cores[0].frequency == before
        assert inj.counts["actuator.write_fail"] == 1

    def test_offline_core_parks_at_fmin_and_ignores_writes(self, engine):
        cpu = Cpu(engine, 2)
        plan = FaultPlan(events=(
            FaultEvent(1.0, "actuator.offline", duration=2.0, target=1),
        ))
        ActuatorFaults(engine, plan, np.random.default_rng(0), cpu).arm()
        engine.run_until(1.5)
        assert cpu.cores[1].frequency == cpu.table.fmin
        cpu.cores[1].set_frequency(cpu.table.fmax)
        assert cpu.cores[1].frequency == cpu.table.fmin  # write ignored
        engine.run_until(3.5)
        cpu.cores[1].set_frequency(cpu.table.fmax)
        assert cpu.cores[1].frequency == cpu.table.fmax  # back online

    def test_delayed_write_lands_later(self, engine):
        cpu = Cpu(engine, 1)
        plan = FaultPlan(dvfs_delay_prob=1.0, dvfs_delay=0.5)
        ActuatorFaults(engine, plan, np.random.default_rng(0), cpu).arm()
        engine.run_until(1.0)
        before = cpu.cores[0].frequency
        cpu.cores[0].set_frequency(cpu.table.fmin)
        assert cpu.cores[0].frequency == before  # not yet
        engine.run_until(2.0)
        assert cpu.cores[0].frequency == cpu.table.fmin  # landed


class TestAgentFaults:
    def _filled_agent(self):
        agent = _agent(warmup=2, batch_size=4)
        rng = np.random.default_rng(0)
        for _ in range(16):
            agent.observe(rng.random(8), rng.random(2), -1.0, rng.random(8))
        return agent

    def test_corruption_then_update_skips_and_stays_finite(self, engine):
        agent = self._filled_agent()
        plan = FaultPlan(events=(
            FaultEvent(1.0, "agent.corrupt_replay", magnitude=1.0),
        ))
        AgentFaults(engine, plan, np.random.default_rng(0), agent).arm()
        engine.run_until(1.5)
        assert np.isnan(agent.replay._states[: len(agent.replay), 0]).any()
        before = agent.skipped_updates
        assert agent.update() is None
        assert agent.skipped_updates == before + 1
        assert np.isfinite(agent.actor.get_flat()).all()
        assert np.isfinite(agent.critic.get_flat()).all()

    def test_inf_reward_poison_triggers_guard(self, engine):
        agent = self._filled_agent()
        plan = FaultPlan(events=(FaultEvent(1.0, "agent.nan_loss"),))
        AgentFaults(engine, plan, np.random.default_rng(0), agent).arm()
        engine.run_until(1.5)
        assert np.isinf(agent.replay._rewards[: len(agent.replay)]).any()
        # Sample repeatedly: every draw either trains cleanly or is skipped,
        # and the networks never absorb the poison.
        skipped_before = agent.skipped_updates
        for _ in range(20):
            agent.update()
        assert agent.skipped_updates > skipped_before
        assert np.isfinite(agent.actor.get_flat()).all()


class TestPowerMonitorScreen:
    def test_negative_and_nonfinite_deltas_clamp_to_zero(self, engine, cpu):
        mon = PowerMonitor(engine, cpu)
        assert mon._screen_delta(-5.0, 1.0) == 0.0
        assert mon._screen_delta(float("nan"), 1.0) == 0.0
        assert mon._screen_delta(float("inf"), 1.0) == 0.0
        assert mon.glitch_count == 3

    def test_implausible_delta_clamps_to_envelope(self, engine, cpu):
        mon = PowerMonitor(engine, cpu)
        ceiling = mon.max_plausible_watts * 2.0
        assert mon._screen_delta(1e9, 2.0) == pytest.approx(ceiling)
        assert mon.glitch_count == 1

    def test_plausible_delta_passes_bitwise(self, engine, cpu):
        mon = PowerMonitor(engine, cpu)
        assert mon._screen_delta(3.14159, 1.0) == 3.14159
        assert mon.glitch_count == 0

    def test_screen_disabled_with_none_margin(self, engine, cpu):
        mon = PowerMonitor(engine, cpu, plausible_margin=None)
        assert mon._screen_delta(1e9, 1.0) == 1e9
        assert mon.glitch_count == 0


class TestWatchdog:
    def _wd(self):
        return Watchdog(
            max_power_watts=100.0, min_power_watts=10.0,
            long_time=1.0, short_time=0.01,
        )

    def _step(self, wd, *, stale=False, now=1.0):
        wd.begin_step()
        snap = _snap(now - (1.0 if stale else 0.0))
        wd.screen_window(snap, 50.0, now=now, ticks=100)
        return wd.finish_step()

    def _advancer(self, wd):
        now = [0.0]

        def advance(stale):
            now[0] += 1.0
            return self._step(wd, stale=stale, now=now[0])

        return advance

    def test_trips_after_threshold_anomalous_steps(self):
        wd = self._wd()
        advance = self._advancer(wd)
        for _ in range(TRIP_THRESHOLD - 1):
            assert advance(True) is None
        assert advance(True) == "trip"
        assert wd.tripped and wd.trips == 1

    def test_healthy_steps_never_trip(self):
        wd = self._wd()
        for i in range(50):
            assert self._step(wd, now=float(i + 1)) is None
        assert wd.total_anomalies == 0 and wd.trips == 0

    def test_rearms_after_cooldown_and_counts_recovery(self):
        wd = self._wd()
        advance = self._advancer(wd)
        for _ in range(TRIP_THRESHOLD):
            advance(True)
        assert wd.tripped
        for _ in range(COOLDOWN_STEPS - 1):
            assert advance(False) is None
        assert advance(False) == "rearm"
        assert not wd.tripped and wd.recoveries == 1

    def test_relapse_doubles_cooldown_capped(self):
        wd = self._wd()
        advance = self._advancer(wd)
        for _ in range(TRIP_THRESHOLD):
            advance(True)
        while wd.tripped:
            advance(False)
        assert wd.current_cooldown == COOLDOWN_STEPS
        for _ in range(TRIP_THRESHOLD):  # relapse immediately
            advance(True)
        assert wd.tripped
        assert wd.current_cooldown == 2 * COOLDOWN_STEPS  # backed off
        while wd.tripped:
            advance(False)
        # A calm stretch far beyond the relapse window resets the backoff.
        for _ in range(RELAPSE_WINDOW + 12):
            advance(False)
        for _ in range(TRIP_THRESHOLD):
            advance(True)
        assert wd.current_cooldown == COOLDOWN_STEPS

    def test_repeated_back_to_back_faults_saturate_backoff(self):
        """A persistently flapping fleet: trip -> recover -> immediate
        relapse, over and over.  The cooldown must double per relapse up
        to MAX_COOLDOWN_STEPS and the watchdog must keep trip/recovery
        accounting consistent throughout."""
        wd = self._wd()
        advance = self._advancer(wd)

        expected_cooldowns = [COOLDOWN_STEPS]
        while expected_cooldowns[-1] < MAX_COOLDOWN_STEPS:
            expected_cooldowns.append(
                min(2 * expected_cooldowns[-1], MAX_COOLDOWN_STEPS)
            )
        expected_cooldowns += [MAX_COOLDOWN_STEPS] * 2  # pinned at the cap
        assert expected_cooldowns == [3, 6, 12, 24, 48, 48, 48]
        for round_no, expected in enumerate(expected_cooldowns):
            for _ in range(TRIP_THRESHOLD):  # back-to-back anomalous steps re-trip
                advance(True)
            assert wd.tripped, f"round {round_no} failed to trip"
            # The backoff is applied at (re-)trip time.
            assert wd.current_cooldown == expected
            healthy = 0
            while wd.tripped:
                advance(False)
                healthy += 1
            # Re-arm took exactly the backed-off cooldown of this round.
            assert healthy == expected
        assert wd.trips == len(expected_cooldowns)
        assert wd.recoveries == len(expected_cooldowns)

    def test_trip_during_cooldown_resets_healthy_streak(self):
        """An anomalous step mid-cooldown re-trips instead of re-arming."""
        wd = self._wd()
        advance = self._advancer(wd)
        for _ in range(TRIP_THRESHOLD):
            advance(True)
        assert wd.tripped and wd.trips == 1
        advance(False)  # one healthy step of the COOLDOWN_STEPS needed
        for _ in range(TRIP_THRESHOLD):
            advance(True)  # fault storm resumes before re-arm
        assert wd.tripped
        assert wd.recoveries == 0  # never recovered in between
        for _ in range(COOLDOWN_STEPS - 1):
            assert advance(False) is None
        assert advance(False) == "rearm"
        assert wd.recoveries == 1

    def test_screen_substitutions(self):
        wd = self._wd()
        wd.begin_step()
        # Frozen sensor: zero energy over a healthy window.
        snap, energy = wd.screen_window(_snap(1.0), 0.0, now=1.0, ticks=100)
        assert energy > 0.0
        # Non-finite state falls back to zeros (no prior healthy state).
        s = wd.screen_state(np.array([np.nan] * 8))
        assert np.all(s == 0.0)
        # Non-finite action snaps to the safe action; out-of-box is clipped.
        a = wd.screen_action(np.array([np.inf, 0.5]))
        assert tuple(a) == SAFE_ACTION
        a = wd.screen_action(np.array([1.7, -0.2]))
        assert tuple(a) == (1.0, 0.0)
        assert wd.step_anomalies == 4


class TestRuntimeRestart:
    def _build(self, tiny_app, duration=4.0):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), duration)
        ctx = build_context(tiny_app, trace, 2, seed=4)
        agent = _agent(warmup=2, batch_size=4)
        cfg = DeepPowerConfig(long_time=0.5)
        rt = DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg)
        return rt, ctx

    def test_double_start_raises(self, tiny_app):
        rt, _ = self._build(tiny_app)
        rt.start()
        with pytest.raises(RuntimeError):
            rt.start()

    def test_stop_then_start_resumes_cleanly(self, tiny_app):
        rt, ctx = self._build(tiny_app, duration=6.0)
        rt.start()
        ctx.source.start()
        ctx.engine.run_until(2.0)
        rt.stop()
        assert rt._prev is None
        steps_before = rt.step_count
        ctx.engine.run_until(3.0)  # a gap with no control loop
        rt.start()  # must re-zero the energy window, not bill the gap
        ctx.engine.run_until(5.0)
        rt.stop()
        assert rt.step_count > steps_before
        post = [r for r in rt.records if r.time > 3.0]
        assert post
        # Without the energy-window re-zero in start(), the first
        # post-restart step would absorb the whole gap's joules into a
        # 0.5 s window and report physically impossible power.
        max_w = ctx.cpu.power_model.socket_power(
            np.full(ctx.cpu.num_cores, ctx.cpu.table.turbo),
            np.ones(ctx.cpu.num_cores, dtype=bool),
        )
        assert all(r.power_watts <= max_w * 1.01 for r in post)


class TestFaultToleranceAcceptance:
    """The issue's acceptance scenario, at test scale: a seeded plan with
    >= 1 % DVFS failures plus periodic telemetry dropouts; the watchdog-
    enabled runtime must finish with finite records and both trip into and
    recover from the fallback governor."""

    def _run(self, tiny_app, plan, *, watchdog=True, seed=4, duration=12.0, agent=None):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), duration)
        ctx = build_context(tiny_app, trace, 2, seed=seed)
        agent = agent or _agent(warmup=2, batch_size=4)
        cfg = DeepPowerConfig(
            long_time=0.5, control=ControlPlaneConfig(watchdog=watchdog)
        )
        rt = DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg)
        harness = FaultHarness(
            plan, ctx.engine, cpu=ctx.cpu, monitor=ctx.monitor,
            telemetry=ctx.server.telemetry, agent=agent,
        ).arm()
        rt.start()
        ctx.source.start()
        ctx.engine.run_until(duration)
        rt.stop()
        return rt, harness

    def test_survives_and_recovers_under_seeded_plan(self, tiny_app):
        plan = standard_fault_plan(
            0.05, 12.0, long_time=0.5, seed=3, agent_faults=True
        )
        assert plan.dvfs_fail_prob >= 0.01
        assert plan.events_of("telemetry.drop")
        rt, harness = self._run(tiny_app, plan)

        stats = rt.watchdog_stats()
        assert stats["trips"] >= 1
        assert stats["recoveries"] >= 1
        assert harness.total_injected > 0
        assert any(r.fallback for r in rt.records)
        assert any(not r.fallback for r in rt.records)

        # Zero NaNs anywhere in the step records.
        for r in rt.records:
            assert np.isfinite(r.state).all()
            assert np.isfinite(r.action).all()
            assert np.isfinite(r.reward.total)
            assert np.isfinite(r.power_watts)
            assert np.isfinite(r.avg_frequency)
        assert np.isfinite(rt.agent.actor.get_flat()).all()

    def test_empty_plan_is_bitwise_noop(self, tiny_app):
        """Fault subsystem armed with an empty plan + watchdog enabled on a
        healthy run must be bitwise identical to the plain runtime."""
        rt_plain, _ = self._run(
            tiny_app, FaultPlan(), watchdog=False, duration=6.0, agent=_agent(warmup=2, batch_size=4)
        )
        rt_armed, harness = self._run(
            tiny_app, FaultPlan(), watchdog=True, duration=6.0, agent=_agent(warmup=2, batch_size=4)
        )
        assert harness.total_injected == 0
        assert rt_armed.watchdog_stats()["trips"] == 0
        assert rt_armed.watchdog_stats()["total_anomalies"] == 0
        assert len(rt_plain.records) == len(rt_armed.records) > 0
        for a, b in zip(rt_plain.records, rt_armed.records):
            assert a.time == b.time
            assert np.array_equal(a.state, b.state)
            assert np.array_equal(a.action, b.action)
            assert a.reward.total == b.reward.total
            assert a.power_watts == b.power_watts
            assert a.avg_frequency == b.avg_frequency

    def test_watchdog_off_historical_behaviour_unchanged(self, tiny_app):
        rt, _ = self._run(tiny_app, FaultPlan(), watchdog=False, duration=4.0)
        assert rt.watchdog is None
        assert rt.watchdog_stats() is None
        assert all(not r.fallback and r.anomalies == 0 for r in rt.records)
