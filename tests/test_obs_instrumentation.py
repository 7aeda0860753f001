"""End-to-end tests: instrumented runtime/runner/grid produce faithful traces."""

import math
import os

import pytest

from repro.baselines import MaxFrequencyPolicy
from repro.core import DeepPowerAgent, default_ddpg_config
from repro.core.runtime import DeepPowerConfig, DeepPowerRuntime
from repro.core.training import train_deeppower
from repro.experiments.runner import build_context, run_policy
from repro.obs import Observability, TraceWriter, read_trace, summarize_trace
from repro.parallel import RunSpec, grid_trace_path, run_grid
from repro.sim import RngRegistry
from repro.workload import constant_trace


def _agent(seed=3):
    return DeepPowerAgent(
        RngRegistry(seed).get("agent"), default_ddpg_config(warmup=4, batch_size=8)
    )


def _traced_training(tiny_app, tmp_path, episodes=2, duration=4.0):
    trace_path = str(tmp_path / "train.trace.jsonl")
    wl = constant_trace(tiny_app.rps_for_load(0.4, 2), duration)
    result = train_deeppower(
        tiny_app,
        wl,
        episodes=episodes,
        num_cores=2,
        seed=5,
        agent=_agent(),
        keep_histories=True,
        trace_out=trace_path,
    )
    return result, trace_path


class TestTraceMatchesInMemoryHistory:
    def test_summarize_rebuilds_step_history_exactly(self, tiny_app, tmp_path):
        result, trace_path = _traced_training(tiny_app, tmp_path)
        summary = summarize_trace(trace_path)
        per_ep = {}
        for row in summary.intervals:
            per_ep.setdefault(row["episode"], []).append(row)
        assert sorted(per_ep) == [0, 1]
        for ep, hist in enumerate(result.histories):
            rows = per_ep[ep]
            # Bitwise equality: JSON floats round-trip exactly.
            assert [r["reward"] for r in rows] == list(hist["rewards"])
            assert [r["avg_freq"] for r in rows] == list(hist["avg_frequency"])
            assert [[r["base_freq"], r["scaling_coef"]] for r in rows] == [
                list(a) for a in hist["actions"]
            ]

    def test_episode_and_run_events_present(self, tiny_app, tmp_path):
        result, trace_path = _traced_training(tiny_app, tmp_path)
        s = summarize_trace(trace_path)
        assert s.counts["episode-start"] == 2 and s.counts["episode-end"] == 2
        assert s.counts["run-start"] == 2 and s.counts["run-summary"] == 2
        assert s.counts["rapl-window"] >= s.counts["drl-step"]
        assert s.counts["controller-window"] == s.counts["drl-step"]
        assert s.meta["mode"] == "train"
        # episode-end events mirror the in-memory EpisodeStats.
        assert [e["total_reward"] for e in s.episodes] == [
            e.total_reward for e in result.episodes
        ]

    def test_controller_window_accounts_every_tick(self, tiny_app, tmp_path):
        _, trace_path = _traced_training(tiny_app, tmp_path, episodes=1)
        windows = [e for e in read_trace(trace_path) if e["kind"] == "controller-window"]
        assert windows
        for w in windows:
            assert w["ticks"] > 0
            assert w["freq_min"] <= w["freq_mean"] <= w["freq_max"]
            assert w["dvfs_switches"] >= 0


class TestObsDefaultOff:
    def test_runtime_without_obs_has_no_sinks(self, tiny_app):
        ctx = build_context(tiny_app, constant_trace(20.0, 1.0), 2, seed=1)
        rt = DeepPowerRuntime(
            ctx.engine, ctx.server, ctx.monitor, _agent(), DeepPowerConfig()
        )
        assert rt.obs is None and rt._trace is None and rt._spans is None
        assert ctx.engine.spans is None
        rt.start()
        ctx.source.start()
        ctx.engine.run_until(1.0)
        rt.stop()
        assert rt.step_count > 0  # the control loop itself is unaffected

    def test_run_policy_without_obs_unchanged(self, tiny_app):
        res = run_policy(
            lambda ctx: MaxFrequencyPolicy(ctx),
            tiny_app,
            constant_trace(20.0, 1.0),
            2,
            seed=1,
        )
        assert res.metrics.completed > 0


class TestControllerWindowStats:
    def test_window_summary_resets(self, tiny_app):
        ctx = build_context(tiny_app, constant_trace(20.0, 1.0), 2, seed=1)
        from repro.core.thread_controller import ThreadController

        tc = ThreadController(ctx.engine, ctx.server)
        tc.enable_window_stats()
        tc.start()
        ctx.engine.run_until(0.1)
        s1 = tc.window_summary()
        assert s1["ticks"] > 0
        assert s1["freq_min"] <= s1["freq_mean"] <= s1["freq_max"]
        s2 = tc.window_summary()  # immediately after reset: empty window
        assert s2["ticks"] == 0
        assert math.isnan(s2["freq_mean"]) and math.isnan(s2["freq_min"])

    def test_bind_spans_times_ticks(self, tiny_app):
        from repro.core.thread_controller import ThreadController
        from repro.obs import SpanRecorder

        ctx = build_context(tiny_app, constant_trace(20.0, 1.0), 2, seed=1)
        tc = ThreadController(ctx.engine, ctx.server)
        spans = SpanRecorder()
        tc.bind_spans(spans)
        tc.start()
        ctx.engine.run_until(0.05)
        assert spans.stats()["controller.tick"]["count"] == tc.tick_count > 0


class TestDegenerateRunWarning:
    def test_zero_completion_run_emits_warning_and_nan_metrics(self, tiny_app, tmp_path):
        trace_path = str(tmp_path / "empty.trace.jsonl")
        obs = Observability(trace=TraceWriter(trace_path))
        res = run_policy(
            lambda ctx: MaxFrequencyPolicy(ctx),
            tiny_app,
            constant_trace(0.0, 1.0),  # no arrivals at all
            2,
            seed=1,
            obs=obs,
        )
        obs.close()
        assert res.metrics.completed == 0
        assert math.isnan(res.metrics.tail_latency)
        assert math.isnan(res.metrics.timeout_rate)
        assert not res.metrics.sla_met
        s = summarize_trace(trace_path)
        assert s.warnings and s.warnings[0]["warning"] == "zero-completions"
        # run-summary round-trips the NaN metrics.
        assert math.isnan(s.run_summaries[0]["tail_latency"])
        assert s.run_summaries[0]["sla_met"] is False


class TestGridTracing:
    def _spec(self, tiny_app_rate, seed=2, **kw):
        return RunSpec(
            app="xapian",
            policy="baseline",
            trace=constant_trace(tiny_app_rate, 1.0),
            num_cores=2,
            seed=seed,
            **kw,
        )

    def test_trace_dir_writes_one_trace_per_cell(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        specs = [self._spec(30.0, seed=s) for s in (1, 2)]
        outcomes = run_grid(specs, trace_dir=trace_dir)
        assert all(o.ok for o in outcomes)
        files = sorted(os.listdir(trace_dir))
        assert len(files) == 2
        for f in files:
            s = summarize_trace(os.path.join(trace_dir, f))
            assert s.counts["run-summary"] == 1
            assert s.meta["policy"] == "baseline"

    def test_traced_cells_bypass_cache_read(self, tmp_path):
        from repro.parallel import RunResultCache

        cache = RunResultCache(str(tmp_path / "cache"))
        spec = self._spec(30.0)
        (first,) = run_grid([spec], cache=cache)
        assert not first.from_cache
        # Untraced rerun: served from cache.
        (hit,) = run_grid([spec], cache=cache)
        assert hit.from_cache
        # Traced rerun: must execute (else no trace file would appear).
        trace_dir = str(tmp_path / "traces")
        (traced,) = run_grid([spec], cache=cache, trace_dir=trace_dir)
        assert not traced.from_cache
        assert os.listdir(trace_dir)
        assert traced.metrics.completed == first.metrics.completed

    def test_trace_out_excluded_from_cache_key(self, tmp_path):
        from repro.parallel.cache import content_key

        spec = self._spec(30.0)
        traced = self._spec(30.0, trace_out=str(tmp_path / "x.jsonl"))
        assert content_key(spec.cache_payload()) == content_key(traced.cache_payload())

    def test_grid_trace_path_is_deterministic(self, tmp_path):
        spec = self._spec(30.0, label="fig7-quick")
        p = grid_trace_path(str(tmp_path), spec, 4)
        assert p.endswith("004-fig7-quick-xapian-seed2.trace.jsonl")


class TestRaplObs:
    def test_rapl_glitch_counted_and_traced(self, tmp_path, engine, cpu):
        from repro.cpu.rapl import PowerMonitor

        trace_path = str(tmp_path / "rapl.trace.jsonl")
        obs = Observability(trace=TraceWriter(trace_path))
        mon = PowerMonitor(engine, cpu)
        mon.bind_obs(obs)
        engine.run_until(1.0)
        assert mon.window_energy() > 0
        mon._note_glitch(-5.0, 0.0)
        obs.close()
        assert mon.glitch_count == 1
        counts = summarize_trace(trace_path).counts
        assert counts["rapl-window"] == 1 and counts["rapl-glitch"] == 1


class TestSpanProfiling:
    def test_profiled_training_reports_hot_spans(self, tiny_app, tmp_path):
        trace_path = str(tmp_path / "train.trace.jsonl")
        wl = constant_trace(tiny_app.rps_for_load(0.4, 2), 2.0)
        train_deeppower(
            tiny_app,
            wl,
            episodes=1,
            num_cores=2,
            seed=5,
            agent=_agent(),
            trace_out=trace_path,
            profile=True,
        )
        events = list(read_trace(trace_path))
        assert events[-1]["kind"] == "span-summary"
        spans = events[-1]["spans"]
        assert spans["controller.tick"]["count"] > 0
        assert spans["engine.run_until"]["count"] > 0
        assert spans["agent.update"]["count"] > 0
        assert sum(e["kind"] == "drl-step" for e in events) > 0

    def test_profile_without_trace_is_refused(self, tiny_app):
        wl = constant_trace(tiny_app.rps_for_load(0.4, 2), 2.0)
        with pytest.raises(ValueError, match="trace_out"):
            train_deeppower(tiny_app, wl, episodes=1, num_cores=2, profile=True)


class TestTraceHoldsRunTotals:
    """Each run total is a count of trace events: one traced, watchdog-on
    run under the standard fault plan trips, re-arms and glitches, and the
    trace's per-kind counts equal the live objects' counters."""

    def test_event_counts_match_live_counters(self, tiny_app, tmp_path):
        from repro.control import ControlPlaneConfig
        from repro.faults import FaultHarness, standard_fault_plan

        duration = 12.0
        trace_path = str(tmp_path / "faulted.trace.jsonl")
        obs = Observability(trace=TraceWriter(trace_path))
        ctx = build_context(
            tiny_app, constant_trace(tiny_app.rps_for_load(0.4, 2), duration), 2, seed=4
        )
        agent = _agent()
        rt = DeepPowerRuntime(
            ctx.engine, ctx.server, ctx.monitor, agent,
            DeepPowerConfig(long_time=0.5, control=ControlPlaneConfig(watchdog=True)),
            obs=obs,
        )
        plan = standard_fault_plan(0.05, duration, long_time=0.5, seed=3)
        FaultHarness(
            plan, ctx.engine, cpu=ctx.cpu, monitor=ctx.monitor,
            telemetry=ctx.server.telemetry, agent=agent,
        ).arm()
        rt.start()
        ctx.source.start()
        ctx.engine.run_until(duration)
        rt.stop()
        obs.close()

        counts = summarize_trace(trace_path).counts
        wd, mon = rt.watchdog, ctx.monitor
        assert wd.trips > 0 and wd.recoveries > 0 and mon.glitch_count > 0
        assert counts["drl-step"] == rt.step_count
        assert counts["watchdog-trip"] == wd.trips
        assert counts["watchdog-rearm"] == wd.recoveries
        assert counts["rapl-glitch"] == mon.glitch_count

    def test_handle_without_sinks_runs_as_none(self, tiny_app):
        """An attached ``Observability()`` with neither trace nor spans is
        the untraced run, bit for bit, and enables no window stats."""
        wl = constant_trace(tiny_app.rps_for_load(0.5, 2), 4.0)
        runs = []
        for obs in (None, Observability()):
            res = run_policy(
                lambda ctx: DeepPowerRuntime(
                    ctx.engine, ctx.server, ctx.monitor, _agent(),
                    DeepPowerConfig(record_steps=False), obs=ctx.obs,
                ),
                tiny_app, wl, 2, seed=6,
                extras_fn=lambda ctx, rt: {"runtime": rt}, obs=obs,
            )
            runtime = res.extras["runtime"]
            assert not runtime.controller._win
            assert runtime.records == []
            runs.append((res.metrics, runtime.step_count))
        assert runs[0] == runs[1]
