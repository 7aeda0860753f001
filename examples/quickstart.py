#!/usr/bin/env python
"""Quickstart: simulate a latency-critical server and manage its power.

Builds the full simulated stack (multicore CPU with DVFS + RAPL, an
open-loop Xapian-like workload, a worker-thread server), then compares the
unmanaged baseline against DeepPower's thread controller with hand-picked
parameters (the ``controller`` policy of grid cells and fleets) — no
learning yet; see ``train_deeppower.py`` for the full hierarchy.

Run:  python examples/quickstart.py
"""

from repro.analysis import format_table
from repro.baselines import MaxFrequencyPolicy
from repro.core import FixedController
from repro.experiments import run_policy
from repro.sim import RngRegistry
from repro.workload import diurnal_trace, get_app

NUM_CORES = 4
DURATION = 40.0


def main() -> None:
    app = get_app("xapian")
    rngs = RngRegistry(seed=7)

    # A diurnal RPS trace scaled to ~45% mean utilisation of 4 cores.
    trace = diurnal_trace(rngs.get("trace"), duration=DURATION, num_segments=20)
    trace = trace.scaled_to_mean(app.rps_for_load(0.45, NUM_CORES))

    print(f"app: {app.name}  SLA {app.sla * 1e3:.0f} ms  "
          f"mean service {app.mean_service_fmax * 1e3:.1f} ms")
    print(f"workload: {trace.mean_rate():.0f} rps mean, "
          f"{trace.peak_rate():.0f} rps peak, {DURATION:.0f} s\n")

    rows = []
    for label, factory in [
        ("baseline (turbo)", lambda ctx: MaxFrequencyPolicy(ctx)),
        ("controller bf=0.7 sc=1.0", lambda ctx: FixedController(ctx, 0.7, 1.0)),
        ("controller bf=0.4 sc=1.0", lambda ctx: FixedController(ctx, 0.4, 1.0)),
    ]:
        res = run_policy(factory, app, trace, NUM_CORES, seed=11)
        m = res.metrics
        rows.append([
            label,
            m.avg_power_watts,
            m.mean_latency * 1e3,
            m.tail_latency * 1e3,
            f"{m.tail_latency / app.sla:.2f}x",
            f"{m.timeout_rate:.2%}",
        ])
    print(format_table(
        ["policy", "power (W)", "mean (ms)", "p99 (ms)", "p99/SLA", "timeouts"],
        rows, "{:.2f}",
    ))
    print("\nLower BaseFreq saves power but risks the SLA — DeepPower's DRL")
    print("agent learns to move these two knobs with the load (see")
    print("examples/train_deeppower.py).")


if __name__ == "__main__":
    main()
