#!/usr/bin/env python
"""Bring your own latency-critical application.

DeepPower's selling point over prediction-based managers is that it needs
no per-application feature engineering — to manage a new service you only
describe its service-time process and SLA.  This example defines a
fictional "vector-db" app, checks its tail statistics, calibrates a
workload, and trains a small agent on it.

Run:  python examples/custom_application.py
"""

from dataclasses import replace

from repro.analysis import format_table
from repro.baselines import MaxFrequencyPolicy
from repro.core import DeepPowerRuntime, train_deeppower
from repro.experiments import calibrate_to_sla, run_policy
from repro.experiments.fig7_main import tuned_agent_setup
from repro.sim import RngRegistry
from repro.workload import AppSpec, LognormalCorrelatedService, diurnal_trace

NUM_CORES = 4

# A made-up vector-similarity service: 15 ms mean queries, a 100 ms SLA,
# a moderate tail (p99 ~ 3.5x mean) and fairly predictable sizes.
VECTOR_DB = AppSpec(
    name="vector-db",
    sla=0.100,
    service=LognormalCorrelatedService(mean_work=0.015 * 2.1, sigma=0.6, rho=0.7),
    contention=0.35,
    short_time=0.002,
    description="example custom app",
)


def main() -> None:
    app = VECTOR_DB
    print(f"{app.name}: mean service {app.mean_service_fmax * 1e3:.1f} ms, "
          f"SLA {app.sla * 1e3:.0f} ms, "
          f"p99/mean = {app.service.tail_ratio(0.99):.1f}\n")

    rngs = RngRegistry(seed=21)
    base = diurnal_trace(rngs.get("trace"), duration=60.0, num_segments=20)
    cal = calibrate_to_sla(app, base, NUM_CORES, target_fraction=0.7)
    print(f"calibrated to mean load {cal.mean_load:.2f} "
          f"(baseline p99 {cal.baseline_p99_fraction:.2f} x SLA)\n")

    agent, cfg = tuned_agent_setup(seed=21, app=app)
    print("training (15 short episodes)...")
    train_deeppower(
        app, cal.trace, episodes=15, num_cores=NUM_CORES, seed=21,
        agent=agent, config=cfg, verbose=True,
    )

    frozen = replace(cfg, train=False)
    dp = run_policy(
        lambda ctx: DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, frozen),
        app, cal.trace, NUM_CORES, seed=5,
    ).metrics
    bl = run_policy(
        lambda ctx: MaxFrequencyPolicy(ctx), app, cal.trace, NUM_CORES, seed=5
    ).metrics
    print()
    print(format_table(
        ["policy", "power (W)", "p99/SLA", "timeouts"],
        [
            ["baseline", bl.avg_power_watts, f"{bl.tail_latency / app.sla:.2f}x", f"{bl.timeout_rate:.2%}"],
            ["deeppower", dp.avg_power_watts, f"{dp.tail_latency / app.sla:.2f}x", f"{dp.timeout_rate:.2%}"],
        ],
        "{:.2f}",
    ))
    print(f"\nsaving: {1 - dp.avg_power_watts / bl.avg_power_watts:.1%} "
          "— with zero app-specific feature engineering.")


if __name__ == "__main__":
    main()
