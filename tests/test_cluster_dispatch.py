"""Tests for cluster nodes, routers and the dispatcher."""

import numpy as np
import pytest

from repro.cluster.dispatch import (
    Dispatcher,
    JoinShortestQueueRouter,
    PowerAwareRouter,
    RoundRobinRouter,
    StragglerDetector,
    make_router,
)
from repro.cluster.node import DEGRADED, DOWN, HEALTHY, ClusterNode, build_node_driver
from repro.parallel.pool import derive_seed
from repro.sim.engine import Engine
from repro.workload.apps import get_app
from repro.workload.request import Request


def _fleet(n=3, cores=2, seed=5, app_name="xapian"):
    engine = Engine()
    app = get_app(app_name)
    nodes = [ClusterNode(engine, i, app, cores, seed=seed) for i in range(n)]
    return engine, app, nodes


def _request(req_id, t=0.0, work=1.0, sla=0.08):
    return Request(
        req_id=req_id, arrival_time=t, work=work,
        features=np.zeros(3), sla=sla,
    )


def _batch(nodes):
    """The stacked fleet state a dispatcher over ``nodes`` routes on."""
    return Dispatcher(nodes, RoundRobinRouter()).batch


def _ids(*node_ids):
    return np.array(node_ids)


class TestRouters:
    def test_round_robin_cycles(self):
        _, _, nodes = _fleet(3)
        batch = _batch(nodes)
        router = RoundRobinRouter()
        picks = [router.select_batch(batch, batch.all_indices) for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_jsq_picks_smallest_backlog(self):
        _, _, nodes = _fleet(3)
        batch = _batch(nodes)
        router = JoinShortestQueueRouter()
        nodes[0].submit(_request(1))
        nodes[0].submit(_request(2))
        nodes[1].submit(_request(3))
        # backlogs: node0=2, node1=1, node2=0 — queued plus in service
        assert batch.backlog.tolist() == [n.backlog() for n in nodes] == [2, 1, 0]
        assert router.select_batch(batch, batch.all_indices) == 2

    def test_jsq_ties_break_to_lowest_id(self):
        _, _, nodes = _fleet(3)
        batch = _batch(nodes)
        assert JoinShortestQueueRouter().select_batch(batch, batch.all_indices) == 0

    def test_power_aware_prefers_faster_node(self):
        _, _, nodes = _fleet(2)
        batch = _batch(nodes)
        router = PowerAwareRouter()
        # Equal (zero) backlog: throttle node 0's worker cores to fmin,
        # leave node 1 at a high level -> node 1 wins on capacity.
        table = nodes[0].cpu.table
        for core in nodes[0].cpu.cores:
            core.set_frequency(table.fmin)
        for core in nodes[1].cpu.cores:
            core.set_frequency(table.fmax)
        assert router.select_batch(batch, batch.all_indices) == 1

    def test_power_aware_sheds_from_backlogged_node(self):
        _, _, nodes = _fleet(2)
        batch = _batch(nodes)
        router = PowerAwareRouter()
        for i in range(4):
            nodes[0].submit(_request(i))
        assert router.select_batch(batch, batch.all_indices) == 1

    def test_make_router_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown routing policy"):
            make_router("random")


class TestRoutersUnderChurn:
    """Routing determinism when the candidate set shrinks mid-run."""

    def test_round_robin_cursor_survives_shrinking_candidates(self):
        _, _, nodes = _fleet(3)
        batch = _batch(nodes)
        router = RoundRobinRouter()
        assert router.select_batch(batch, _ids(0, 1, 2)) == 0  # cursor at id 1
        # Node 1 disappears from the candidate list: the cursor lands on
        # the next surviving id (2), then wraps to 0.
        survivors = _ids(0, 2)
        assert survivors[router.select_batch(batch, survivors)] == 2
        assert survivors[router.select_batch(batch, survivors)] == 0
        # Node 1 comes back: the rotation picks it up in id order.
        assert router.select_batch(batch, _ids(0, 1, 2)) == 1

    def test_round_robin_single_candidate(self):
        _, _, nodes = _fleet(3)
        batch = _batch(nodes)
        router = RoundRobinRouter()
        only = _ids(1)
        assert [router.select_batch(batch, only) for _ in range(3)] == [0, 0, 0]

    def test_jsq_ties_break_to_first_candidate_after_shrink(self):
        _, _, nodes = _fleet(3)
        batch = _batch(nodes)
        router = JoinShortestQueueRouter()
        # All empty: the first listed candidate wins regardless of its id.
        assert router.select_batch(batch, _ids(2, 1)) == 0
        assert router.select_batch(batch, _ids(1, 2)) == 0

    def test_jsq_decisions_identical_for_equal_candidate_lists(self):
        _, _, nodes = _fleet(3)
        batch = _batch(nodes)
        nodes[0].submit(_request(1))
        a = JoinShortestQueueRouter().select_batch(batch, _ids(0, 2))
        b = JoinShortestQueueRouter().select_batch(batch, _ids(0, 2))
        assert a == b == 1

    def test_power_aware_ties_break_to_first_candidate(self):
        _, _, nodes = _fleet(3)
        batch = _batch(nodes)
        # Identical backlog and capacity: first candidate wins, and the
        # choice is a pure function of the candidates (no hidden state).
        router = PowerAwareRouter()
        assert router.select_batch(batch, _ids(2, 0)) == 0
        assert router.select_batch(batch, _ids(2, 0)) == 0


class TestHealthAwareDispatch:
    def test_down_nodes_skipped_by_every_router(self):
        for name in ("round-robin", "jsq", "power-aware"):
            _, _, nodes = _fleet(3)
            nodes[1].state = DOWN
            disp = Dispatcher(nodes, make_router(name))
            for i in range(6):
                disp.submit(_request(i))
            assert nodes[1].routed == 0
            assert nodes[0].routed + nodes[2].routed == 6

    def test_health_aware_off_keeps_feeding_down_nodes(self):
        _, _, nodes = _fleet(2)
        nodes[1].state = DOWN
        disp = Dispatcher(nodes, RoundRobinRouter(), health_aware=False)
        for i in range(4):
            disp.submit(_request(i))
        assert nodes[1].routed == 2

    def test_all_degraded_draws_no_rng(self):
        class Exploding:
            def random(self):
                raise AssertionError("rng must not be consulted")

        _, _, nodes = _fleet(2)
        nodes[0].state = nodes[1].state = DEGRADED
        disp = Dispatcher(nodes, RoundRobinRouter(), rng=Exploding())
        disp.submit(_request(0))
        assert disp.dispatched == 1

    def test_all_down_marks_unroutable(self):
        _, _, nodes = _fleet(2)
        for n in nodes:
            n.state = DOWN
        disp = Dispatcher(nodes, RoundRobinRouter())
        req = _request(0)
        disp.submit(req)
        assert disp.unroutable == 1 and disp.dispatched == 0
        assert req.dropped

    def test_unroutable_callback_overrides_drop(self):
        _, _, nodes = _fleet(1)
        nodes[0].state = DOWN
        seen = []
        disp = Dispatcher(nodes, RoundRobinRouter(), on_unroutable=seen.append)
        req = _request(0)
        disp.submit(req)
        assert seen == [req]
        assert not req.dropped


class TestStragglerDetector:
    def _detector(self, nodes, **over):
        return StragglerDetector(nodes, min_samples=3, **over)

    def _feed(self, node, latencies):
        node.server.metrics.latencies.extend(latencies)

    def test_flags_and_clears_straggler(self):
        _, _, nodes = _fleet(3)
        changes = []
        det = self._detector(
            nodes, on_change=lambda n, s: changes.append((n.node_id, s)),
        )
        self._feed(nodes[0], [0.01] * 5)
        self._feed(nodes[1], [0.01] * 5)
        self._feed(nodes[2], [0.5] * 5)  # way above 3x the fleet median
        det.check()
        assert nodes[2].state == DEGRADED
        assert changes == [(2, DEGRADED)]
        # Next window: node 2 back in line -> restored.
        self._feed(nodes[0], [0.01] * 5)
        self._feed(nodes[1], [0.01] * 5)
        self._feed(nodes[2], [0.012] * 5)
        det.check()
        assert nodes[2].state == HEALTHY
        assert det.transitions == [(2, DEGRADED), (2, HEALTHY)]

    def test_needs_min_samples_and_two_finite_windows(self):
        _, _, nodes = _fleet(2)
        det = self._detector(nodes)
        self._feed(nodes[0], [0.01] * 5)
        self._feed(nodes[1], [0.9] * 2)  # below min_samples: no verdict
        det.check()
        assert nodes[1].state == HEALTHY

    def test_cursor_advances_even_without_verdict(self):
        """Stale pre-crash samples cannot condemn a node that came back."""
        _, _, nodes = _fleet(2)
        det = self._detector(nodes)
        self._feed(nodes[1], [5.0] * 5)  # horrible, but only one window
        det.check()  # < 2 finite windows: no verdict, cursor advances
        self._feed(nodes[0], [0.01] * 5)
        self._feed(nodes[1], [0.011] * 5)
        det.check()
        assert nodes[1].state == HEALTHY

    def test_down_nodes_left_to_lifecycle(self):
        _, _, nodes = _fleet(3)
        det = self._detector(nodes)
        nodes[2].state = DOWN
        for n in nodes:
            self._feed(n, [0.01] * 5)
        self._feed(nodes[2], [9.9] * 5)
        det.check()
        assert nodes[2].state == DOWN  # untouched
        assert det.transitions == []


class TestDispatcher:
    def test_counts_and_routing(self):
        _, _, nodes = _fleet(2)
        disp = Dispatcher(nodes, RoundRobinRouter())
        for i in range(5):
            disp.submit(_request(i))
        assert disp.dispatched == 5
        assert disp.routed_counts() == [3, 2]
        assert [n.routed for n in nodes] == [3, 2]

    def test_requires_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            Dispatcher([], RoundRobinRouter())

    def test_bad_router_index_raises(self):
        class Broken(RoundRobinRouter):
            def select_batch(self, batch, cand_idx):
                return cand_idx.size

        _, _, nodes = _fleet(2)
        disp = Dispatcher(nodes, Broken())
        with pytest.raises(IndexError, match="selected node 2"):
            disp.submit(_request(0))


class TestClusterNode:
    def test_seed_namespaced_by_node_id(self):
        _, _, nodes = _fleet(3, seed=9)
        seeds = {n.seed for n in nodes}
        assert len(seeds) == 3
        assert nodes[1].seed == derive_seed(9, "node", 1)
        # Node k's world does not depend on fleet size.
        _, _, bigger = _fleet(5, seed=9)
        assert bigger[1].seed == nodes[1].seed

    def test_backlog_counts_queued_and_in_service(self):
        engine, _, nodes = _fleet(1, cores=1)
        node = nodes[0]
        for i in range(3):
            node.submit(_request(i))
        engine.run_until(1e-4)  # let a worker pick up the head
        assert node.busy_workers() == 1
        assert node.backlog() == node.queue_len() + node.busy_workers() == 3

    def test_worker_capacity_tracks_frequency(self):
        _, _, nodes = _fleet(1, cores=2)
        node = nodes[0]
        table = node.cpu.table
        for core in node.cpu.cores:
            core.set_frequency(table.fmin)
        low = node.worker_capacity_ghz()
        for core in node.cpu.cores:
            core.set_frequency(table.turbo)
        assert node.worker_capacity_ghz() > low

    def test_build_node_driver_baselines(self):
        _, _, nodes = _fleet(2)
        for policy in ("baseline", "retail", "gemini"):
            driver = build_node_driver(nodes[0], policy)
            assert driver is nodes[0].driver
            assert hasattr(driver, "start") and hasattr(driver, "stop")

    def test_build_node_driver_unknown_raises(self):
        _, _, nodes = _fleet(1)
        with pytest.raises(KeyError, match="unknown node policy"):
            build_node_driver(nodes[0], "nonsense")
