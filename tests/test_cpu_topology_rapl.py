"""Tests for the CPU package and the RAPL-style power monitor."""

import numpy as np
import pytest

from repro.cpu import Cpu, PowerMonitor


class TestCpu:
    def test_core_count_and_indexing(self, engine):
        cpu = Cpu(engine, 4)
        assert len(cpu) == 4
        assert cpu[2].core_id == 2
        assert [c.core_id for c in cpu] == [0, 1, 2, 3]

    def test_invalid_core_count(self, engine):
        with pytest.raises(ValueError):
            Cpu(engine, 0)

    def test_set_all_frequencies(self, engine):
        cpu = Cpu(engine, 3)
        cpu.set_all_frequencies(1.2)
        assert np.allclose(cpu.frequencies(), 1.2)

    def test_set_frequencies_per_core(self, engine):
        cpu = Cpu(engine, 3)
        cpu.set_frequencies([0.8, 1.5, 3.0])
        assert np.allclose(cpu.frequencies(), [0.8, 1.5, 3.0])

    def test_set_frequencies_length_mismatch(self, engine):
        cpu = Cpu(engine, 3)
        with pytest.raises(ValueError):
            cpu.set_frequencies([1.0, 1.0])

    def test_utilization_counts_busy_cores(self, engine):
        cpu = Cpu(engine, 4)
        cpu[0].set_busy(True)
        cpu[3].set_busy(True)
        assert cpu.busy_count() == 2
        assert cpu.utilization() == pytest.approx(0.5)
        assert list(cpu.busy_mask()) == [True, False, False, True]

    def test_socket_energy_includes_package(self, engine):
        cpu = Cpu(engine, 2)
        engine.run_until(5.0)
        core_e = sum(c.energy_joules() for c in cpu.cores)
        assert cpu.energy_joules() == pytest.approx(
            core_e + cpu.power_model.package_watts * 5.0
        )

    def test_instantaneous_power_consistent_with_energy_slope(self, engine):
        cpu = Cpu(engine, 2)
        p = cpu.power_watts()
        e0 = cpu.energy_joules()
        engine.run_until(1.0)
        assert cpu.energy_joules() - e0 == pytest.approx(p)

    def test_total_switches(self, engine):
        cpu = Cpu(engine, 2)
        cpu[0].set_frequency(1.0)
        cpu[1].set_frequency(1.5)
        cpu[1].set_frequency(0.8)
        assert cpu.total_switches() == 3


class TestPowerMonitor:
    def test_total_energy_matches_cpu_delta(self, engine):
        cpu = Cpu(engine, 2)
        engine.run_until(1.0)
        mon = PowerMonitor(engine, cpu)
        engine.run_until(4.0)
        assert mon.total_energy() == pytest.approx(cpu.power_watts() * 3.0)

    def test_window_energy_advances_window(self, engine):
        cpu = Cpu(engine, 2)
        mon = PowerMonitor(engine, cpu)
        engine.run_until(1.0)
        e1 = mon.window_energy()
        engine.run_until(3.0)
        e2 = mon.window_energy()
        assert e2 == pytest.approx(2.0 * e1)

    def test_window_power_is_average_watts(self, engine):
        cpu = Cpu(engine, 2)
        mon = PowerMonitor(engine, cpu)
        engine.run_until(2.0)
        assert mon.window_power() == pytest.approx(cpu.power_watts())

    def test_average_power_over_lifetime(self, engine):
        cpu = Cpu(engine, 2)
        mon = PowerMonitor(engine, cpu)
        engine.run_until(7.0)
        assert mon.average_power() == pytest.approx(cpu.power_watts())

    def test_counter_wraparound_is_handled(self, engine):
        cpu = Cpu(engine, 4)
        # Tiny wrap so a few seconds wraps the counter at least once.
        mon = PowerMonitor(engine, cpu, wrap_joules=10.0)
        total = 0.0
        for _ in range(50):
            engine.run_until(engine.now + 0.1)
            total += mon.window_energy()
        assert total == pytest.approx(cpu.power_watts() * 5.0, rel=1e-6)

    def test_unwrap_static(self):
        assert PowerMonitor.unwrap(8.0, 2.0, 10.0) == pytest.approx(4.0)
        assert PowerMonitor.unwrap(2.0, 8.0, 10.0) == pytest.approx(6.0)

    def test_reset_rezeroes(self, engine):
        cpu = Cpu(engine, 1)
        mon = PowerMonitor(engine, cpu)
        engine.run_until(2.0)
        mon.reset()
        assert mon.total_energy() == pytest.approx(0.0)
        engine.run_until(3.0)
        assert mon.total_energy() == pytest.approx(cpu.power_watts() * 1.0)

    def test_samples_recorded(self, engine):
        cpu = Cpu(engine, 1)
        mon = PowerMonitor(engine, cpu)
        for _ in range(3):
            engine.run_until(engine.now + 1.0)
            mon.window_energy()
        assert len(mon.samples) == 3
        assert mon.samples[0].time < mon.samples[-1].time
