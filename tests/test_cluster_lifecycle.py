"""Tests for node failure/recovery: crash semantics, failover dispatch,
membership-aware power capping, and the chaos determinism contract."""

import json
import os

import numpy as np
import pytest

from repro.cluster import (
    DOWN,
    HEALTHY,
    RECOVERING,
    ClusterConfig,
    ClusterSim,
    Dispatcher,
    NodeLifecycle,
    PowerCapCoordinator,
    RoundRobinRouter,
    fleet_power_budget,
)
from repro.cluster.node import ClusterNode
from repro.cpu import DEFAULT_POWER_MODEL, DEFAULT_TABLE, Core
from repro.faults import FleetEvent, FleetFaultPlan
from repro.obs import Observability
from repro.server import Worker
from repro.sim.engine import Engine
from repro.workload.apps import get_app
from repro.workload.request import Request
from repro.workload.trace import constant_trace


APP = "xapian"


def _req(i=0, arrival=0.0, work=1.0, sla=10.0):
    return Request(
        req_id=i, arrival_time=arrival, work=work,
        features=np.zeros(3), sla=sla,
    )


def _trace(duration=8.0, load=0.5, nodes=2, cores=2):
    rps = get_app(APP).rps_for_load(load, nodes * cores)
    return constant_trace(rps, duration)


def _config(**overrides):
    base = dict(
        app=APP, num_nodes=2, cores_per_node=2, policy="retail",
        routing="jsq", seed=11,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _run_json(config, trace):
    metrics = ClusterSim(config, trace).run()
    return json.dumps(metrics.as_dict(), sort_keys=True)


def _crash_plan(node=1, time=2.0, down=2.0, **over):
    base = dict(recovery_time=0.5)
    base.update(over)
    return FleetFaultPlan(
        events=(FleetEvent(time, "node.crash", node=node, duration=down),),
        **base,
    )


class TestWorkerAbort:
    def _setup(self, engine):
        core = Core(engine, 0, DEFAULT_TABLE, DEFAULT_POWER_MODEL)
        done = []
        worker = Worker(engine, core, lambda w, r: done.append(r))
        return core, worker, done

    def test_abort_returns_request_with_reset_stamps(self, engine):
        core, worker, done = self._setup(engine)
        core.set_frequency(2.0)
        req = _req(work=4.0)
        worker.start(req, effective_work=4.0)
        engine.run_until(1.0)
        assert worker.abort() is req
        assert not worker.busy and not core.busy
        assert req.start_time is None
        assert req.core_id is None
        assert req.effective_work is None
        # The cancelled completion never fires.
        engine.run_until(10.0)
        assert done == []

    def test_abort_idle_worker_is_noop(self, engine):
        _, worker, _ = self._setup(engine)
        assert worker.abort() is None


class TestServerEvacuatePauseResume:
    def _fleet_node(self, cores=2, seed=5):
        engine = Engine()
        node = ClusterNode(engine, 0, get_app(APP), cores, seed=seed)
        return engine, node.server

    def test_evacuate_returns_in_flight_then_queued_and_pauses(self):
        engine, server = self._fleet_node(cores=2)
        for i in range(5):
            server.submit(_req(i))
        engine.run_until(1e-4)  # let workers pick up the first two
        assert sum(1 for w in server.workers if w.busy) == 2
        evacuated = server.evacuate()
        assert [r.req_id for r in evacuated] == [0, 1, 2, 3, 4]
        assert server.paused
        assert len(server.queue) == 0
        assert all(not w.busy for w in server.workers)
        assert np.isnan(server._begin_times).all()

    def test_paused_server_queues_without_dispatching(self):
        engine, server = self._fleet_node()
        server.pause()
        server.submit(_req(0))
        engine.run_until(0.5)
        assert len(server.queue) == 1
        assert all(not w.busy for w in server.workers)
        server.resume()
        assert not server.paused
        assert len(server.queue) == 0  # drained into the freed workers
        engine.run_until(5.0)
        assert server.metrics.completed == 1

    def test_resume_on_running_server_is_noop(self):
        engine, server = self._fleet_node()
        server.submit(_req(0))
        server.resume()
        engine.run_until(5.0)
        assert server.metrics.completed == 1


class TestNodeLifecycle:
    def _fleet(self, n=2, cores=2, seed=5):
        engine = Engine()
        app = get_app(APP)
        nodes = [ClusterNode(engine, i, app, cores, seed=seed) for i in range(n)]
        return engine, nodes

    def test_crash_restart_recover_cycle(self):
        engine, nodes = self._fleet()
        plan = _crash_plan(node=1, time=2.0, down=2.0, recovery_time=1.0)
        disp = Dispatcher(nodes, RoundRobinRouter())
        life = NodeLifecycle(engine, nodes, plan, disp)
        life.start()
        engine.run_until(2.5)
        assert nodes[1].state == DOWN and nodes[1].server.paused
        assert not nodes[1].accepting
        engine.run_until(4.5)
        assert nodes[1].state == RECOVERING and not nodes[1].server.paused
        assert nodes[1].accepting
        engine.run_until(5.5)
        assert nodes[1].state == HEALTHY
        assert life.crashes == 1
        assert life.downtime[1] == pytest.approx(2.0)
        assert life.availability(10.0)[1] == pytest.approx(0.8)
        assert life.availability(10.0)[0] == 1.0

    def test_rack_failure_takes_out_contiguous_range(self):
        engine, nodes = self._fleet(n=4)
        plan = FleetFaultPlan(
            events=(FleetEvent(1.0, "rack.fail", node=1, span=2, duration=1.0),),
        )
        life = NodeLifecycle(engine, nodes, plan, Dispatcher(nodes, RoundRobinRouter()))
        life.start()
        engine.run_until(1.5)
        assert [n.state for n in nodes] == [HEALTHY, DOWN, DOWN, HEALTHY]
        assert life.crashes == 2

    def test_evacuated_requests_redispatch_with_backoff(self):
        engine, nodes = self._fleet()
        plan = _crash_plan(node=0, time=1.0, down=5.0,
                           retry_budget=2, retry_backoff=0.25)
        disp = Dispatcher(nodes, RoundRobinRouter())
        life = NodeLifecycle(engine, nodes, plan, disp)
        life.start()
        # Pin work onto node 0 so the crash catches it in flight.
        long_req = _req(0, work=100.0)
        nodes[0].submit(long_req)
        engine.run_until(2.0)
        assert life.redispatches == 1
        assert long_req.retries == 1
        # Re-dispatch skipped the down node: node 1 took the request.
        assert nodes[1].backlog() + nodes[1].server.metrics.completed >= 1

    def test_retry_budget_exhaustion_drops(self):
        engine, nodes = self._fleet()
        plan = _crash_plan(node=0, time=1.0, down=5.0, retry_budget=0)
        disp = Dispatcher(nodes, RoundRobinRouter())
        life = NodeLifecycle(engine, nodes, plan, disp)
        life.start()
        req = _req(0, work=100.0)
        nodes[0].submit(req)
        engine.run_until(2.0)
        assert life.dropped == 1 and life.redispatches == 0
        assert req.dropped

    def test_drop_in_flight_ignores_budget(self):
        engine, nodes = self._fleet()
        plan = _crash_plan(node=0, time=1.0, down=5.0,
                           retry_budget=5, drop_in_flight=True)
        life = NodeLifecycle(engine, nodes, plan, Dispatcher(nodes, RoundRobinRouter()))
        life.start()
        nodes[0].submit(_req(0, work=100.0))
        engine.run_until(2.0)
        assert life.dropped == 1 and life.redispatches == 0

    def test_finalize_closes_open_downtime(self):
        engine, nodes = self._fleet()
        plan = _crash_plan(node=1, time=1.0, down=100.0)
        life = NodeLifecycle(engine, nodes, plan, Dispatcher(nodes, RoundRobinRouter()))
        life.start()
        engine.run_until(3.0)
        life.finalize(3.0)
        assert life.downtime[1] == pytest.approx(2.0)
        assert life.availability(3.0)[1] == pytest.approx(1.0 / 3.0)

    def test_partition_window_tracked(self):
        engine, nodes = self._fleet()
        plan = FleetFaultPlan(
            events=(FleetEvent(1.0, "telemetry.partition", node=0, duration=2.0),),
        )
        life = NodeLifecycle(engine, nodes, plan, Dispatcher(nodes, RoundRobinRouter()))
        life.start()
        engine.run_until(2.0)
        assert life.is_partitioned(0) and not life.is_partitioned(1)
        engine.run_until(3.5)
        assert not life.is_partitioned(0)
        assert life.partitions == 1


class TestMembershipAwarePowerCap:
    def test_down_node_parks_at_floor_and_budget_redistributes(self):
        engine = Engine()
        app = get_app(APP)
        nodes = [ClusterNode(engine, i, app, 2, seed=5) for i in range(2)]
        budget = fleet_power_budget(2, 2, fraction=0.7)
        coord = PowerCapCoordinator(engine, nodes, budget, window=1.0)
        plan = _crash_plan(node=1, time=2.5, down=3.0, recovery_time=2.0)
        disp = Dispatcher(nodes, RoundRobinRouter())
        life = NodeLifecycle(engine, nodes, plan, disp, coordinator=coord)
        coord.lifecycle = life
        coord.start()
        life.start()
        engine.run_until(2.9)
        # The crash triggered an immediate membership re-apportion.
        win = coord.history[-1]
        assert win.reason == "membership"
        assert win.targets[1] == pytest.approx(coord._idle_floor[1])
        assert win.ceilings[1] == nodes[1].cpu.table.fmin
        # The live node got the remaining budget, more than a half share.
        assert win.targets[0] > budget / 2 * 0.99
        # Restart: the recovering node re-enters at the floor frequency cap.
        engine.run_until(5.9)
        assert nodes[1].state == RECOVERING
        win = coord.history[-1]
        assert win.reason == "membership"
        assert win.ceilings[1] == nodes[1].cpu.table.fmin
        # Full recovery lifts the pin.
        engine.run_until(8.5)
        assert nodes[1].state == HEALTHY
        assert coord.history[-1].ceilings[1] > nodes[1].cpu.table.fmin
        coord.stop()

    def test_partition_freezes_coordinator_energy_reading(self):
        engine = Engine()
        app = get_app(APP)
        nodes = [ClusterNode(engine, i, app, 2, seed=5) for i in range(2)]
        coord = PowerCapCoordinator(
            engine, nodes, fleet_power_budget(2, 2), window=1.0
        )
        plan = FleetFaultPlan(
            events=(FleetEvent(1.5, "telemetry.partition", node=0, duration=2.0),),
        )
        life = NodeLifecycle(engine, nodes, plan, Dispatcher(nodes, RoundRobinRouter()))
        coord.lifecycle = life
        read = []  # (time, powers the coordinator apportions on)
        apportion = coord.apportion

        def spy(powers, live=None):
            read.append((engine.now, np.array(powers)))
            return apportion(powers, live)

        coord.apportion = spy
        coord.start()
        life.start()
        engine.run_until(3.0)
        # Windows read inside the partition see zero power for node 0
        # (frozen counter) while node 1 reads normally ...
        partitioned = [p for t, p in read if 1.5 < t <= 3.5]
        assert partitioned
        assert all(p[0] == 0.0 for p in partitioned)
        assert all(p[1] > 0.0 for p in partitioned)
        # ... but the recorded windows keep the power node 0 really drew.
        assert all(
            w.powers[0] > 0.0 for w in coord.history if 1.5 < w.time <= 3.5
        )
        # After the heal the deferred energy lands in one catch-up reading.
        engine.run_until(5.0)
        healed = [p for t, p in read if t > 3.5]
        drawn = [w.powers[0] for w in coord.history if w.time > 3.5]
        assert healed and healed[0][0] > drawn[0] > 0.0
        coord.stop()


class TestChaosDeterminism:
    def _chaos_config(self, **over):
        plan = _crash_plan(node=1, time=2.0, down=2.0, recovery_time=0.5)
        return _config(fault_plan=plan, **over)

    def test_same_seed_same_metrics(self):
        trace = _trace()
        assert _run_json(self._chaos_config(), trace) == \
            _run_json(self._chaos_config(), trace)

    def test_traces_bitwise_identical(self, tmp_path):
        trace = _trace()
        paths = []
        for name in ("a", "b"):
            path = str(tmp_path / f"{name}.trace.jsonl")
            obs = Observability.from_paths(trace_out=path, meta={"seed": 11})
            try:
                ClusterSim(self._chaos_config(), trace, obs=obs).run()
            finally:
                obs.close()
            paths.append(path)
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            assert fa.read() == fb.read()
        assert os.path.getsize(paths[0]) > 0

    def test_faultless_plan_matches_plain_fleet_run(self):
        """An absent plan and an empty plan are the same simulation, bit
        for bit — the resilience machinery must not perturb clean runs."""
        trace = _trace()
        plain = _run_json(_config(), trace)
        empty = _run_json(_config(fault_plan=FleetFaultPlan()), trace)
        assert plain == empty

    def test_config_validates_resilience_knobs(self):
        with pytest.raises(ValueError, match="straggler_multiple"):
            _config(straggler_multiple=1.0)
        with pytest.raises(ValueError, match="degraded_penalty"):
            _config(degraded_penalty=1.5)


class TestFailoverAcceptance:
    """The issue's acceptance contrast: with failover the fleet keeps
    meeting the SLA on surviving nodes; the no-failover round-robin
    ablation measurably does not (the dead node's mailbox drains as
    huge-latency completions on restart)."""

    def _run(self, health_aware):
        trace = _trace(duration=16.0, load=0.4, nodes=4, cores=2)
        plan = _crash_plan(node=1, time=4.0, down=6.0, recovery_time=0.5)
        cfg = _config(
            num_nodes=4, routing="round-robin", fault_plan=plan,
            health_aware=health_aware,
        )
        return ClusterSim(cfg, trace).run()

    def test_failover_meets_sla_ablation_does_not(self):
        failover = self._run(None)       # auto: on when a plan is active
        ablation = self._run(False)
        assert failover.fleet.sla_met
        assert not ablation.fleet.sla_met
        assert ablation.fleet.tail_latency > 5 * failover.fleet.tail_latency
        # Failover re-routed the crash victims instead of dropping them.
        assert failover.redispatches > 0
        assert failover.crashes == 1
        assert failover.node_availability[1] < 1.0
        assert failover.fleet_availability < 1.0

    def test_fleet_metrics_surface_resilience_counters(self):
        m = self._run(None)
        d = m.as_dict()
        for key in ("crashes", "dropped_requests", "redispatches",
                    "partitions", "unroutable", "node_availability",
                    "fleet_availability"):
            assert key in d
        assert d["crashes"] == 1


class TestUnroutableFleet:
    def test_all_nodes_down_retries_then_drops(self):
        """A request arriving while every node is down burns its retry
        budget through the unroutable path and is dropped with a trace."""
        engine = Engine()
        app = get_app(APP)
        nodes = [ClusterNode(engine, i, app, 2, seed=5) for i in range(2)]
        plan = FleetFaultPlan(
            events=(
                FleetEvent(1.0, "rack.fail", node=0, span=2, duration=10.0),
            ),
            retry_budget=1, retry_backoff=0.1,
        )
        disp = Dispatcher(nodes, RoundRobinRouter())
        life = NodeLifecycle(engine, nodes, plan, disp)
        disp.on_unroutable = life.handle_unroutable
        life.start()
        engine.run_until(2.0)
        req = _req(0)
        disp.submit(req)
        engine.run_until(5.0)
        assert disp.unroutable >= 2  # first try + the backoff retry
        assert life.dropped == 1
        assert req.dropped
