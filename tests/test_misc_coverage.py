"""Assorted coverage: metrics views, training result helpers, renderers."""

import math
import numpy as np
import pytest

from repro.core.training import EpisodeStats, TrainingResult
from repro.core import DeepPowerAgent, default_ddpg_config
from repro.experiments.fig1_cdf import render_fig1, run_fig1
from repro.experiments.fig2_rmse import render_fig2, run_fig2
from repro.experiments.fig6_workload import render_fig6, run_fig6
from repro.experiments.overhead import render_overhead, run_overhead
from repro.experiments.table2_inference import render_table2, run_table2
from repro.server.metrics import RunMetrics
from repro.sim import RngRegistry


def _metrics(**kw):
    base = dict(
        completed=100, timeouts=5, mean_latency=0.01, tail_latency=0.05,
        p50_latency=0.008, p95_latency=0.03, mean_service=0.009,
        mean_queue_time=0.001, sla=0.06, duration=10.0,
        energy_joules=100.0, avg_power_watts=10.0, dvfs_switches=3,
    )
    base.update(kw)
    return RunMetrics(**base)


class TestRunMetricsViews:
    def test_timeout_rate(self):
        assert _metrics().timeout_rate == pytest.approx(0.05)
        assert math.isnan(_metrics(completed=0, timeouts=0).timeout_rate)

    def test_mean_tail_ratio(self):
        assert _metrics().mean_tail_ratio == pytest.approx(0.2)
        assert math.isnan(_metrics(tail_latency=0.0).mean_tail_ratio)
        assert math.isnan(_metrics(tail_latency=float("nan")).mean_tail_ratio)

    def test_sla_met(self):
        assert _metrics(tail_latency=0.05, sla=0.06).sla_met
        assert not _metrics(tail_latency=0.07, sla=0.06).sla_met

    def test_throughput(self):
        assert _metrics().throughput == pytest.approx(10.0)

    def test_as_dict_includes_derived(self):
        d = _metrics().as_dict()
        assert d["timeout_rate"] == pytest.approx(0.05)
        assert "sla_met" in d and "mean_tail_ratio" in d


class TestTrainingResultHelpers:
    def _stats(self, rewards):
        return [
            EpisodeStats(
                episode=i, total_reward=r, mean_reward=r, timeout_rate=0.0,
                avg_power_watts=10.0, tail_latency=0.01, completed=10,
            )
            for i, r in enumerate(rewards)
        ]

    def test_reward_curve(self):
        rngs = RngRegistry(0)
        agent = DeepPowerAgent(rngs.get("a"), default_ddpg_config())
        res = TrainingResult(agent=agent, episodes=self._stats([-3.0, -2.0, -1.0]))
        assert np.allclose(res.reward_curve(), [-3.0, -2.0, -1.0])
        assert res.improved()

    def test_improved_false_when_degrading(self):
        rngs = RngRegistry(0)
        agent = DeepPowerAgent(rngs.get("a"), default_ddpg_config())
        res = TrainingResult(agent=agent, episodes=self._stats([-1.0, -2.0, -3.0, -4.0]))
        assert not res.improved()

    def test_improved_needs_two_episodes(self):
        rngs = RngRegistry(0)
        agent = DeepPowerAgent(rngs.get("a"), default_ddpg_config())
        assert not TrainingResult(agent=agent, episodes=self._stats([-1.0])).improved()


class TestRenderers:
    """Every experiment renderer must produce non-trivial text."""

    def test_fig1_renderer(self):
        out = render_fig1(run_fig1(n=500, seed=0))
        assert "moses" in out and "p99/mean" in out

    def test_fig2_renderer(self):
        out = render_fig2(run_fig2(apps=("masstree",), loads=(0.2, 0.8), n=600))
        assert "relative RMSE" in out and "masstree" in out

    def test_table2_renderer(self):
        out = render_table2(run_table2(repetitions=20))
        assert "DDPG" in out and "SAC" in out

    def test_fig6_renderer(self):
        out = render_fig6(run_fig6(seed=0, duration=30.0, segments=10))
        assert "peak/mean" in out

    def test_overhead_renderer(self):
        out = render_overhead(run_overhead(updates=2, inferences=20))
        assert "DDPG update" in out and "paper" in out
