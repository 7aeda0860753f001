"""Control-plane tests: bus transport, fault plans, degraded mode.

The runtime always reaches its node over the bus.  A fault-free bus is
quiet (no randomness, no degraded windows) and a seeded lossy one is
bitwise replayable.  Plus unit coverage for the :class:`BusFaultPlan`
layer, the channel semantics (bounded queues, shedding, duplicates,
partitions, replayable fault streams) and the degraded-mode machinery on
both ends of the bus (stale-telemetry hold, safe-mode escalation/recovery,
ack-timeout retries, node-side deadline fallback).
"""

import numpy as np
import pytest

from repro.control import (
    ActuatorCommand,
    BusFaultInjector,
    CONTROL_SCHEMA,
    CommandAck,
    ControlPlaneConfig,
    InProcessBus,
    PolicyEndpoint,
    SensorReading,
)
from repro.control.config import (
    ACK_TIMEOUT,
    DEADLINE_MISSES,
    MAX_RETRIES,
    RECOVERY_WINDOWS,
)
from repro.core import (
    DeepPowerAgent,
    DeepPowerConfig,
    DeepPowerRuntime,
    default_ddpg_config,
)
from repro.experiments.runner import build_context
from repro.faults import (
    SAFE_ACTION,
    BusEvent,
    BusFaultPlan,
    FaultHarness,
    LinkFaults,
    standard_bus_plan,
    standard_fault_plan,
)
from repro.obs import Observability, TraceWriter, read_trace
from repro.sim import Engine, RngRegistry
from repro.workload import constant_trace

from .test_checkpoint_manager import assert_tree_equal


# --------------------------------------------------------------------------
# fault plan
# --------------------------------------------------------------------------


class TestBusFaultPlan:
    def test_empty_plan_is_empty(self):
        assert BusFaultPlan().is_empty
        assert standard_bus_plan(0.0, duration=10.0).is_empty

    def test_standard_plan_scales_with_intensity(self):
        lo = standard_bus_plan(0.2, duration=100.0, seed=3)
        hi = standard_bus_plan(1.0, duration=100.0, seed=3)
        assert not lo.is_empty and not hi.is_empty
        assert hi.sensor.drop_prob > lo.sensor.drop_prob
        assert hi.seed == lo.seed == 3
        # partitions grow with intensity but stay inside the run
        for plan in (lo, hi):
            for start, end in plan.partitions("sensor"):
                assert 0.0 <= start < end <= 100.0

    def test_link_and_partition_lookup(self):
        plan = BusFaultPlan(
            sensor=LinkFaults(drop_prob=0.5),
            events=(
                BusEvent(time=2.0, duration=1.0, direction="sensor"),
                BusEvent(time=5.0, duration=1.0, direction="all"),
            ),
        )
        assert plan.link("sensor").drop_prob == 0.5
        assert plan.link("command").is_empty
        assert plan.partitions("sensor") == ((2.0, 3.0), (5.0, 6.0))
        assert plan.partitions("command") == ((5.0, 6.0),)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFaults(drop_prob=1.5)
        with pytest.raises(ValueError):
            LinkFaults(delay=-1.0)
        with pytest.raises(ValueError):
            BusEvent(time=0.0, duration=1.0, direction="sideways")
        with pytest.raises(ValueError):
            BusEvent(time=0.0, duration=-1.0)

    def test_payload_is_plain_data(self):
        import json

        plan = standard_bus_plan(0.7, duration=60.0, seed=9)
        payload = plan.payload()
        json.dumps(payload)  # cache-key material must be JSON-serialisable
        assert payload == standard_bus_plan(0.7, duration=60.0, seed=9).payload()


class TestBusFaultInjector:
    def test_verdict_stream_is_replayable(self):
        plan = BusFaultPlan(
            sensor=LinkFaults(drop_prob=0.3, delay_prob=0.2, delay=0.1,
                              duplicate_prob=0.2, reorder_prob=0.1),
            seed=42,
        )
        a, b = BusFaultInjector(plan), BusFaultInjector(plan)
        va = [a.verdict("sensor", t * 0.1) for t in range(200)]
        vb = [b.verdict("sensor", t * 0.1) for t in range(200)]
        assert va == vb
        kinds = {v[1] for v in va}
        assert "fault" in kinds  # drops actually happened at these rates

    def test_directions_draw_independent_streams(self):
        plan = BusFaultPlan(
            sensor=LinkFaults(drop_prob=0.5),
            command=LinkFaults(drop_prob=0.5),
            seed=1,
        )
        inj = BusFaultInjector(plan)
        sensor = [inj.verdict("sensor", 0.0) for _ in range(100)]
        command = [inj.verdict("command", 0.0) for _ in range(100)]
        assert sensor != command

    def test_state_dict_resumes_mid_stream(self):
        plan = BusFaultPlan(sensor=LinkFaults(drop_prob=0.4, delay_prob=0.3), seed=7)
        a = BusFaultInjector(plan)
        [a.verdict("sensor", 0.0) for _ in range(37)]
        snap = a.state_dict()
        b = BusFaultInjector(plan)
        b.load_state_dict(snap)
        assert [a.verdict("sensor", 0.0) for _ in range(50)] == [
            b.verdict("sensor", 0.0) for _ in range(50)
        ]

    def test_partition_consumes_no_randomness(self):
        plan = BusFaultPlan(
            sensor=LinkFaults(drop_prob=0.5),
            events=(BusEvent(time=1.0, duration=1.0, direction="sensor"),),
            seed=5,
        )
        a, b = BusFaultInjector(plan), BusFaultInjector(plan)
        # a publishes during the partition window, b does not; afterwards
        # both must be at the same point in the stochastic stream.
        assert a.verdict("sensor", 1.5) == ((), "partition")
        assert [a.verdict("sensor", 3.0) for _ in range(20)] == [
            b.verdict("sensor", 3.0) for _ in range(20)
        ]


# --------------------------------------------------------------------------
# channels
# --------------------------------------------------------------------------


def _reading(seq, t=0.0):
    return SensorReading(seq=seq, t_sent=t, snapshot=None, energy=0.0)


class TestChannel:
    def test_publish_poll_in_order(self, engine):
        bus = InProcessBus(engine, capacity=8)
        for i in range(3):
            bus.sensor.publish(_reading(i + 1))
        got = bus.sensor.poll(engine.now)
        assert [m.seq for m in got] == [1, 2, 3]
        assert bus.sensor.poll(engine.now) == []
        assert bus.sensor.stats["delivered"] == 3

    def test_bounded_queue_sheds_oldest(self, engine):
        bus = InProcessBus(engine, capacity=2)
        for i in range(5):
            bus.sensor.publish(_reading(i + 1))
        got = bus.sensor.poll(engine.now)
        # freshest-data-wins: the two newest survive
        assert [m.seq for m in got] == [4, 5]
        assert bus.sensor.stats["shed"] == 3

    def test_subscribed_zero_delay_delivers_inline(self, engine):
        bus = InProcessBus(engine, capacity=8)
        seen = []
        bus.command.subscribe(lambda m: seen.append(m.seq))
        bus.command.publish(ActuatorCommand(seq=1, t_sent=0.0, base_freq=1.0, scaling_coef=1.0))
        assert seen == [1]  # fast path: lands where a direct call would

    def test_subscribed_delayed_copy_via_engine(self, engine):
        plan = BusFaultPlan(command=LinkFaults(delay_prob=1.0, delay=0.5), seed=0)
        bus = InProcessBus(engine, capacity=8, fault_plan=plan)
        seen = []
        bus.command.subscribe(lambda m: seen.append(m.seq))
        bus.command.publish(ActuatorCommand(seq=1, t_sent=0.0, base_freq=1.0, scaling_coef=1.0))
        assert seen == []  # delayed copy waits for the event loop
        engine.run_until(0.5)
        assert seen == [1]

    def test_delayed_copy_not_visible_until_due(self, engine):
        plan = BusFaultPlan(sensor=LinkFaults(delay_prob=1.0, delay=0.5), seed=0)
        bus = InProcessBus(engine, capacity=8, fault_plan=plan)
        bus.sensor.publish(_reading(1))
        assert bus.sensor.poll(0.0) == []
        assert [m.seq for m in bus.sensor.poll(0.5)] == [1]
        assert bus.sensor.stats["delayed"] == 1

    def test_duplicate_fanout_counted(self, engine):
        plan = BusFaultPlan(sensor=LinkFaults(duplicate_prob=1.0, delay=0.2), seed=0)
        bus = InProcessBus(engine, capacity=8, fault_plan=plan)
        bus.sensor.publish(_reading(1))
        assert bus.sensor.stats["duplicated"] == 1
        assert len(bus.sensor.poll(1.0)) == 2

    def test_partition_drops_with_trace_event(self, engine, tmp_path):
        path = str(tmp_path / "bus.trace.jsonl")
        tw = TraceWriter(path)
        plan = BusFaultPlan(
            events=(BusEvent(time=0.0, duration=1.0, direction="all"),), seed=0
        )
        bus = InProcessBus(engine, capacity=8, fault_plan=plan, trace=tw)
        bus.sensor.publish(_reading(1))
        tw.close()
        assert bus.sensor.stats["dropped_partition"] == 1
        events = [e for e in read_trace(path) if e["kind"] == "bus-drop"]
        assert len(events) == 1 and events[0]["reason"] == "partition"

    def test_unknown_channel_rejected(self, engine):
        with pytest.raises(KeyError):
            InProcessBus(engine, capacity=8).channel("sideband")

    def test_empty_plan_builds_no_injector(self, engine):
        assert InProcessBus(engine, fault_plan=BusFaultPlan()).injector is None
        assert InProcessBus(engine, fault_plan=None).injector is None


# --------------------------------------------------------------------------
# fault-free and seeded runs
# --------------------------------------------------------------------------


def _bus_run(tiny_app, duration, control, *, trace_path=None, seed=4,
             long_time=0.5, train=True, node_faults=None, keep_requests=False):
    wl = constant_trace(tiny_app.rps_for_load(0.4, 2), duration)
    obs = Observability(trace=TraceWriter(trace_path)) if trace_path else None
    ctx = build_context(
        tiny_app, wl, 2, seed=seed, obs=obs, keep_requests=keep_requests
    )
    agent = DeepPowerAgent(
        RngRegistry(1).get("a"), default_ddpg_config(warmup=2, batch_size=4)
    )
    cfg = DeepPowerConfig(long_time=long_time, control=control, train=train)
    rt = DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg, obs=obs)
    if node_faults is not None:
        FaultHarness(
            node_faults, ctx.engine, cpu=ctx.cpu, monitor=ctx.monitor,
            telemetry=ctx.server.telemetry, agent=agent,
        ).arm()
    rt.start()
    ctx.source.start()
    ctx.engine.run_until(duration)
    rt.stop()
    if obs is not None:
        obs.close()
    return rt, ctx


def _qos(ctx):
    return (
        ctx.monitor.total_energy(),
        ctx.cpu.total_switches(),
        tuple(ctx.cpu.frequencies()),
    )


class TestBitwiseIdentity:
    def test_fault_free_bus_consumes_no_rng(self, tiny_app):
        rt, _ = _bus_run(tiny_app, 2.0, ControlPlaneConfig())
        assert rt.endpoint.bus.injector is None
        stats = rt.control_stats()
        assert stats["loop"]["stale_windows"] == 0
        assert stats["loop"]["retries"] == 0
        assert stats["node"]["safe_engagements"] == 0
        assert stats["bus"]["sensor"]["published"] == stats["bus"]["sensor"]["delivered"]

    def test_seeded_faulty_run_is_bitwise_replayable(self, tiny_app, tmp_path):
        plan = standard_bus_plan(0.8, duration=4.0, seed=13, long_time=0.5)
        paths = [str(tmp_path / f"soak{i}.trace.jsonl") for i in (0, 1)]
        runs = [
            _bus_run(tiny_app, 4.0, ControlPlaneConfig(fault_plan=plan),
                     trace_path=p)
            for p in paths
        ]
        (rt0, ctx0), (rt1, ctx1) = runs
        assert rt0.control_stats() == rt1.control_stats()
        assert _qos(ctx0) == _qos(ctx1)
        with open(paths[0], "rb") as f0, open(paths[1], "rb") as f1:
            assert f0.read() == f1.read()


# --------------------------------------------------------------------------
# degraded mode
# --------------------------------------------------------------------------


def _watchdog_run(tiny_app, duration, fault_plan=None, **kw):
    """The watchdog-protected runtime under node faults that trip it."""
    node_faults = standard_fault_plan(
        0.05, 12.0, long_time=0.5, seed=3, agent_faults=True
    )
    control = ControlPlaneConfig(fault_plan=fault_plan, watchdog=True)
    return _bus_run(tiny_app, duration, control, node_faults=node_faults, **kw)


def _partition_plan(direction, start, duration):
    return BusFaultPlan(
        events=(BusEvent(time=start, duration=duration, direction=direction),)
    )


class TestDegradedMode:
    def test_sensor_outage_holds_then_escalates(self, tiny_app, tmp_path):
        # sensor dark from t=1 to t=3 (4 windows at long_time=0.5):
        # 2 held windows, then safe-mode escalation
        path = str(tmp_path / "stale.trace.jsonl")
        cfg = ControlPlaneConfig(fault_plan=_partition_plan("sensor", 1.0, 2.0))
        rt, _ = _bus_run(tiny_app, 5.0, cfg, trace_path=path)
        loop = rt.control_stats()["loop"]
        assert loop["stale_windows"] >= 4
        assert loop["safe_escalations"] >= 1
        degraded = [r for r in rt.records if r.degraded]
        # data-less (stale-hold) windows report NaN metrics; recovery-dwell
        # windows have real telemetry again but stay flagged
        blind = [r for r in degraded if r.state is None]
        assert blind and all(np.isnan(r.power_watts) for r in blind)
        held = degraded[0]
        # first stale window holds the previous action verbatim
        prev = rt.records[[r.degraded for r in rt.records].index(True) - 1]
        np.testing.assert_array_equal(held.action, prev.action)
        kinds = [e["kind"] for e in read_trace(path)]
        assert "stale-window" in kinds and "deadline-miss" in kinds

    def test_recovers_after_outage(self, tiny_app):
        cfg = ControlPlaneConfig(fault_plan=_partition_plan("sensor", 1.0, 2.0))
        rt, _ = _bus_run(tiny_app, 6.0, cfg)
        # degraded flags clear once telemetry returns and recovery dwell passes
        assert not rt.records[-1].degraded
        assert rt.endpoint.safe_mode is False

    def test_command_outage_engages_node_fallback(self, tiny_app, tmp_path):
        path = str(tmp_path / "cmd.trace.jsonl")
        cfg = ControlPlaneConfig(fault_plan=_partition_plan("command", 1.0, 3.0))
        rt, _ = _bus_run(tiny_app, 6.0, cfg, trace_path=path)
        node = rt.control_stats()["node"]
        assert node["deadline_misses"] >= 1
        assert node["safe_engagements"] >= 1
        # commands resumed after the partition: the governor handed back
        assert rt.endpoint.node.safe_engaged is False
        misses = [e for e in read_trace(path) if e["kind"] == "deadline-miss"]
        assert any(e["side"] == "node" for e in misses)

    def test_lost_acks_trigger_idempotent_retries(self, tiny_app, tmp_path):
        # every ack dies; a sensor blackout stops fresh commands from
        # superseding the pending one, so its retry budget actually runs out
        path = str(tmp_path / "ack.trace.jsonl")
        cfg = ControlPlaneConfig(
            fault_plan=BusFaultPlan(
                ack=LinkFaults(drop_prob=1.0),
                events=(BusEvent(time=1.0, duration=2.0, direction="sensor"),),
                seed=2,
            ),
        )
        rt, _ = _bus_run(tiny_app, 5.0, cfg, trace_path=path)
        stats = rt.control_stats()
        assert stats["loop"]["retries"] >= 1
        assert stats["loop"]["commands_lost"] >= 1  # retry budget exhausted
        # ...but the retries were duplicates the node suppressed idempotently
        assert stats["node"]["suppressed_commands"] >= 1
        assert stats["node"]["applied"] == rt.endpoint.cmd_seq  # every command landed once
        kinds = [e["kind"] for e in read_trace(path)]
        assert "cmd-retry" in kinds

    def test_stale_windows_report_watchdog_fallback(self, tiny_app, tmp_path):
        # the sensor goes dark for two windows while the watchdog holds
        # the cores; the data-less records must say so
        path = str(tmp_path / "trip.trace.jsonl")
        plan = _partition_plan("sensor", 5.0, 1.0)
        rt, _ = _watchdog_run(tiny_app, 12.0, plan, trace_path=path)
        blind = [i for i, r in enumerate(rt.records) if r.state is None]
        assert [rt.records[i].time for i in blind] == [5.0, 5.5]
        assert all(rt.records[i].fallback for i in blind)
        # tripped before the outage and still tripped after it
        assert rt.records[blind[0] - 1].fallback
        assert rt.records[blind[-1] + 1].fallback
        steps = [
            e for e in read_trace(path)
            if e["kind"] == "drl-step" and e["state"] is None
        ]
        assert [e["fallback"] for e in steps] == [True, True]

    def test_ablation_never_defends_itself(self, tiny_app):
        plan = _partition_plan("all", 1.0, 2.0)
        cfg = ControlPlaneConfig(fault_plan=plan, degraded_mode=False)
        rt, _ = _bus_run(tiny_app, 5.0, cfg)
        stats = rt.control_stats()
        assert stats["loop"]["retries"] == 0
        assert stats["loop"]["safe_escalations"] == 0
        assert stats["node"]["safe_engagements"] == 0
        assert stats["loop"]["blind_windows"] >= 1
        assert not any(r.degraded for r in rt.records)

    def test_duplicate_readings_suppressed(self, tiny_app):
        cfg = ControlPlaneConfig(
            fault_plan=BusFaultPlan(
                sensor=LinkFaults(duplicate_prob=1.0, delay=0.05), seed=3
            )
        )
        rt, _ = _bus_run(tiny_app, 3.0, cfg)
        loop = rt.control_stats()["loop"]
        assert loop["suppressed_readings"] >= 1
        assert not any(r.degraded for r in rt.records)  # dups are harmless

    def test_watchdog_trip_keeps_node_deadline_quiet(self, tiny_app):
        # While the watchdog holds the cores, the loop still heartbeats the
        # safe action over the bus, so the node never sees a command gap.
        rt, _ = _watchdog_run(tiny_app, 12.0)
        assert rt.watchdog_stats()["trips"] >= 1
        stats = rt.control_stats()
        assert stats["node"]["safe_engagements"] == 0
        assert stats["node"]["deadline_misses"] == 0
        assert stats["loop"]["stale_windows"] == 0


# --------------------------------------------------------------------------
# the controller end alone, on a bare bus driven by hand
# --------------------------------------------------------------------------

_AGENT = (0.25, 0.5)
_FRESH = ["rP"]
_STALE = [""]


def _drive(windows, degraded_mode=True):
    """Run a :class:`PolicyEndpoint` through one window per script string.

    Before each poll (one per ``ACK_TIMEOUT``-exceeding second) the node
    side publishes: ``r`` a fresh reading, ``o`` a new but old reading,
    ``d`` the previous reading again, ``2`` two new readings out of
    order, ``x`` a reading and ``X`` an ack with an unknown schema, ``a``
    an ack of the pending command.  After the poll the runtime side
    publishes ``P`` the agent's action or ``S`` the safe action.
    """
    engine = Engine()
    ep = PolicyEndpoint(engine, ControlPlaneConfig(degraded_mode=degraded_mode))
    seq, last, verdicts = 0, None, []

    def reading(n, t_sent, **kw):
        return SensorReading(seq=n, t_sent=t_sent, snapshot=None, energy=0.0, **kw)

    for i, script in enumerate(windows):
        engine.run_until(float(i + 1))
        now = engine.now
        for op in script.replace("P", "").replace("S", ""):
            if op in "ro":
                seq += 1
                last = reading(seq, now if op == "r" else now - 1.0)
                ep.bus.sensor.publish(last)
            elif op == "d":
                ep.bus.sensor.publish(last)
            elif op == "2":
                ep.bus.sensor.publish(reading(seq + 2, now))
                ep.bus.sensor.publish(reading(seq + 1, now))
                seq += 2
            elif op == "x":
                seq += 1
                ep.bus.sensor.publish(reading(seq, now, schema=CONTROL_SCHEMA + 1))
            elif op in "aX":
                schema = CONTROL_SCHEMA if op == "a" else CONTROL_SCHEMA + 1
                ep.bus.ack.publish(
                    CommandAck(seq=i, t_sent=now, cmd_seq=ep.pending.seq,
                               applied=True, schema=schema)
                )
        verdict, got = ep.poll(step=i)
        assert (got is None) == (verdict in ("stale", "blind"))
        verdicts.append(verdict)
        if "P" in script:
            ep.publish(_AGENT)
        elif "S" in script:
            ep.publish(SAFE_ACTION)
    return ep, verdicts


_RECOVER = ["rS"] * (RECOVERY_WINDOWS - 1)

LADDER = [
    # (id, degraded_mode, windows, verdicts, expected end state)
    ("hold", True, _FRESH + _STALE * (DEADLINE_MISSES - 1),
     ["fresh"] + ["stale"] * (DEADLINE_MISSES - 1),
     dict(safe_mode=False, last=_AGENT, stale_windows=DEADLINE_MISSES - 1,
          safe_escalations=0, deadline_misses=0)),
    ("fresh-resets-streak", True, (_FRESH + _STALE * (DEADLINE_MISSES - 1)) * 2,
     (["fresh"] + ["stale"] * (DEADLINE_MISSES - 1)) * 2,
     dict(safe_mode=False, last=_AGENT, stale_windows=2 * (DEADLINE_MISSES - 1),
          safe_escalations=0)),
    ("escalate", True, _FRESH + _STALE * DEADLINE_MISSES,
     ["fresh"] + ["stale"] * DEADLINE_MISSES,
     dict(safe_mode=True, last=SAFE_ACTION, safe_escalations=1, deadline_misses=1)),
    ("escalate-once", True, _FRESH + _STALE * (DEADLINE_MISSES + 1),
     ["fresh"] + ["stale"] * (DEADLINE_MISSES + 1),
     dict(safe_mode=True, last=SAFE_ACTION, safe_escalations=1, deadline_misses=2)),
    ("old-reading-is-stale", True, _FRESH + ["o"] * DEADLINE_MISSES,
     ["fresh"] + ["stale"] * DEADLINE_MISSES,
     dict(safe_mode=True, last=SAFE_ACTION, stale_windows=DEADLINE_MISSES)),
    ("recovery-dwell", True, _FRESH + _STALE * DEADLINE_MISSES + _RECOVER,
     ["fresh"] + ["stale"] * DEADLINE_MISSES + ["recovering"] * (RECOVERY_WINDOWS - 1),
     dict(safe_mode=True, last=SAFE_ACTION)),
    ("recovered", True, _FRESH + _STALE * DEADLINE_MISSES + _RECOVER + _FRESH,
     ["fresh"] + ["stale"] * DEADLINE_MISSES + ["recovering"] * (RECOVERY_WINDOWS - 1)
     + ["fresh"],
     dict(safe_mode=False, last=_AGENT)),
    ("dwell-restarts-on-stale", True,
     _FRESH + _STALE * DEADLINE_MISSES + _RECOVER + _STALE + _RECOVER + _FRESH,
     ["fresh"] + ["stale"] * DEADLINE_MISSES + ["recovering"] * (RECOVERY_WINDOWS - 1)
     + ["stale"] + ["recovering"] * (RECOVERY_WINDOWS - 1) + ["fresh"],
     dict(safe_mode=False, last=_AGENT, safe_escalations=1, deadline_misses=1,
          stale_windows=DEADLINE_MISSES + 1)),
    ("acked", True, _FRESH + ["ar"] * (MAX_RETRIES + 1),
     ["fresh"] * (MAX_RETRIES + 2),
     dict(lost=False, retries=0, commands_lost=0)),
    ("lost", True, _FRESH + ["r"] * (MAX_RETRIES + 1),
     ["fresh"] * (MAX_RETRIES + 2),
     dict(lost=True, retries=MAX_RETRIES, commands_lost=1)),
    ("superseded", True, _FRESH * (MAX_RETRIES + 2),
     ["fresh"] * (MAX_RETRIES + 2),
     dict(lost=False, retries=MAX_RETRIES + 1, commands_lost=0)),
    ("dedup", True, _FRESH + ["d", "2P", "xX"],
     ["fresh", "stale", "fresh", "stale"],
     dict(suppressed_readings=2, bad_schema=2, stale_windows=2)),
    ("ablation", False, _FRESH + ["", "oP", ""] + _STALE * DEADLINE_MISSES,
     ["fresh", "blind", "fresh", "blind"] + ["blind"] * DEADLINE_MISSES,
     dict(safe_mode=False, last=_AGENT, lost=False, retries=0, stale_windows=0,
          blind_windows=DEADLINE_MISSES + 2, safe_escalations=0)),
]


class TestPolicyEndpointLadder:
    @pytest.mark.parametrize(
        "degraded_mode, windows, verdicts, end",
        [case[1:] for case in LADDER],
        ids=[case[0] for case in LADDER],
    )
    def test_ladder(self, degraded_mode, windows, verdicts, end):
        ep, got = _drive(windows, degraded_mode)
        assert got == verdicts
        end = dict(end)
        if "safe_mode" in end:
            assert ep.safe_mode is end.pop("safe_mode")
        if "lost" in end:
            assert ep.lost is end.pop("lost")
        if "last" in end:
            assert tuple(ep.last_action) == tuple(end.pop("last"))
        assert {k: ep.stats[k] for k in end} == end

    def test_retry_resends_the_same_command(self):
        assert ACK_TIMEOUT < 1.0  # one window is past the ack timeout
        ep, _ = _drive(_FRESH + ["r"] * (MAX_RETRIES + 1))
        wire = ep.bus.command.poll(ep.engine.now)
        assert [c.attempt for c in wire] == list(range(MAX_RETRIES + 1))
        assert {c.seq for c in wire} == {1}
        assert [c.t_sent for c in wire] == [1.0 + i for i in range(MAX_RETRIES + 1)]
        assert all(
            (c.base_freq, c.scaling_coef, c.schema) == (*_AGENT, CONTROL_SCHEMA)
            for c in wire
        )


# --------------------------------------------------------------------------
# checkpoint/resume in degraded mode (see also test_checkpoint_resume)
# --------------------------------------------------------------------------


def _fresh_runtime(tiny_app, control):
    """A constructed-but-never-started runtime to restore snapshots into."""
    wl = constant_trace(tiny_app.rps_for_load(0.4, 2), 1.0)
    ctx = build_context(tiny_app, wl, 2, seed=4)
    agent = DeepPowerAgent(
        RngRegistry(1).get("a"), default_ddpg_config(warmup=2, batch_size=4)
    )
    cfg = DeepPowerConfig(long_time=0.5, control=control)
    return DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg)


class TestControlStatePersistence:
    def test_state_dict_roundtrip_mid_outage(self, tiny_app):
        # snapshot while the controller is in safe mode and the node's
        # fallback governor is engaged — the hairiest persistence case
        plan = _partition_plan("all", 0.5, 10.0)
        cfg = ControlPlaneConfig(fault_plan=plan)
        rt1, _ = _bus_run(tiny_app, 4.0, cfg)
        assert rt1.endpoint.safe_mode is True
        assert rt1.endpoint.node.safe_engaged is True
        snap = rt1.state_dict()
        assert snap["control"]["safe_mode"] is True

        rt2 = _fresh_runtime(tiny_app, cfg)
        rt2.load_state_dict(snap)
        assert_tree_equal(rt2.state_dict(), snap)

    def test_snapshot_layout(self, tiny_app):
        # Snapshots on disk outlive the code that wrote them: these keys
        # are what a resumed runtime reads.
        plan = BusFaultPlan(ack=LinkFaults(drop_prob=1.0), seed=2)
        rt, _ = _bus_run(tiny_app, 2.0, ControlPlaneConfig(fault_plan=plan))
        snap = rt.state_dict()
        assert list(snap) == [
            "kind", "step_count", "agent", "controller", "observer",
            "reward_calc", "prev", "last_tick_count", "watchdog", "control",
        ]
        control = snap["control"]
        assert list(control) == [
            "reading_seq", "cmd_seq", "pending", "last_action", "stale_count",
            "safe_mode", "recovery", "stats", "bus", "endpoint",
        ]
        pending = control["pending"]
        assert list(pending) == [
            "seq", "base_freq", "scaling_coef", "attempts", "acked", "lost",
            "sent_age",
        ]
        assert pending["seq"] == control["cmd_seq"]
        assert pending["acked"] is False and pending["lost"] is False
        # Published at the last DRL tick, which is the end of the run.
        assert pending["sent_age"] == 0.0
        assert list(control["stats"]) == list(rt.control_stats()["loop"])

    def test_direct_runtime_snapshot_rejected(self, tiny_app):
        rt1, _ = _bus_run(tiny_app, 1.0, ControlPlaneConfig())
        snap = dict(rt1.state_dict(), control=None)
        rt2 = _fresh_runtime(tiny_app, ControlPlaneConfig())
        with pytest.raises(ValueError, match="removed direct-call runtime"):
            rt2.load_state_dict(snap)

    def test_control_cannot_be_none(self):
        with pytest.raises(TypeError, match="ControlPlaneConfig"):
            DeepPowerConfig(control=None)

    def test_resume_during_trip_keeps_safe_mode(self, tiny_app):
        rt1, _ = _watchdog_run(tiny_app, 4.0)
        assert rt1.watchdog.tripped
        rt2 = _fresh_runtime(tiny_app, ControlPlaneConfig(watchdog=True))
        rt2.load_state_dict(rt1.state_dict())
        rt2.start()
        ticks = rt2.controller.tick_count
        rt2.engine.run_until(0.2)
        # The governor holds the cores and the controller stays benched
        # until the watchdog re-arms; the loop broadcasts the safe action.
        assert rt2.controller.tick_count == ticks
        cpu = rt2.server.cpu
        assert all(f == cpu.table.turbo for f in cpu.frequencies())
        assert tuple(rt2.endpoint.last_action) == SAFE_ACTION
        assert rt2.watchdog.tripped


# --------------------------------------------------------------------------
# soak experiment pieces
# --------------------------------------------------------------------------


class TestSoakPieces:
    def test_reactive_policy_cold_start_opens_full(self):
        from repro.experiments.soak import ReactivePolicy

        pol = ReactivePolicy()
        # First observation predates traffic: all-zero state must not pin
        # the machine at the floor through the opening rush.
        a = pol.act(np.zeros(8))
        assert a[0] == 1.0

    def test_reactive_policy_tracks_load_and_clips(self):
        from repro.experiments.soak import ReactivePolicy

        pol = ReactivePolicy(gain=1.0, queue_gain=0.0, floor=0.2)
        state = np.zeros(8)
        state[0] = 0.5
        assert pol.act(state)[0] == pytest.approx(0.5)
        state[0] = 5.0
        assert pol.act(state)[0] == 1.0  # clipped to the action box
        state[0] = 0.01
        assert pol.act(state)[0] == 0.2  # floor
        with pytest.raises(ValueError, match="floor"):
            ReactivePolicy(floor=1.5)

    def test_reactive_policy_satisfies_agent_interface(self):
        from repro.experiments.soak import ReactivePolicy

        pol = ReactivePolicy()
        pol.observe(None, None, 0.0, None, False)
        assert pol.update() is None
        pol.load_state_dict(pol.state_dict())

    def test_soak_trace_shape(self):
        from repro.experiments.soak import SOAK_LOAD_SHAPE, soak_trace

        trace = soak_trace(60.0)
        assert trace.duration == pytest.approx(60.0)
        assert len(trace.rates) == len(SOAK_LOAD_SHAPE)
        assert np.all(np.diff(trace.edges) > 0)
        assert np.all(trace.rates > 0) and np.max(trace.rates) == 1.0
        # The deep trough must run right up to where the standard bus
        # plan's main partition opens (0.60 of the run), so the last fresh
        # reading an undefended controller sees before going dark is
        # trough-level — that adjacency is what the soak's
        # degraded-vs-ablation contrast is built on.
        start = 0.60 * trace.duration
        seg = np.searchsorted(trace.edges, start, side="left") - 1
        assert trace.rates[seg] == np.min(trace.rates)
