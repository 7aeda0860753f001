"""Tests for the cpufreq governor implementations."""

import numpy as np
import pytest

from repro.cpu import OndemandGovernor, PerformanceGovernor


class TestStaticGovernors:
    def test_performance_pins_turbo(self, engine, cpu):
        PerformanceGovernor(engine, cpu).start()
        assert np.allclose(cpu.frequencies(), cpu.table.turbo)

    def test_performance_without_turbo(self, engine, cpu):
        PerformanceGovernor(engine, cpu, use_turbo=False).start()
        assert np.allclose(cpu.frequencies(), cpu.table.fmax)


class TestOndemand:
    def _run_busy(self, engine, cpu, busy: bool, duration: float):
        for c in cpu.cores:
            c.set_busy(busy)
        engine.run_until(engine.now + duration)

    def test_bursts_to_max_when_busy(self, engine, cpu):
        gov = OndemandGovernor(engine, cpu, sampling_rate=0.01)
        gov.start()
        self._run_busy(engine, cpu, True, 0.1)
        assert np.allclose(cpu.frequencies(), cpu.table.turbo)

    def test_drops_toward_min_when_idle(self, engine, cpu):
        gov = OndemandGovernor(engine, cpu, sampling_rate=0.01)
        gov.start()
        self._run_busy(engine, cpu, True, 0.05)
        self._run_busy(engine, cpu, False, 0.2)
        assert np.allclose(cpu.frequencies(), cpu.table.fmin)

    def test_stop_halts_sampling(self, engine, cpu):
        gov = OndemandGovernor(engine, cpu, sampling_rate=0.01)
        gov.start()
        gov.stop()
        self._run_busy(engine, cpu, True, 0.1)
        assert np.allclose(cpu.frequencies(), cpu.table.fmax)  # untouched

    def test_invalid_threshold(self, engine, cpu):
        with pytest.raises(ValueError):
            OndemandGovernor(engine, cpu, up_threshold=1.5)

    def test_invalid_sampling_rate(self, engine, cpu):
        with pytest.raises(ValueError):
            OndemandGovernor(engine, cpu, sampling_rate=0.0)
