#!/usr/bin/env python
"""Compare all power-management policies on one application (mini Fig 7).

Runs Baseline / ondemand governor / ReTail / Gemini / oracle on a
calibrated diurnal workload and prints the paper's comparison columns.
DeepPower itself needs training first — pass ``--deeppower path.npz`` with
an agent saved by ``train_deeppower.py`` to include it.

Run:  python examples/compare_policies.py --app masstree
"""

import argparse
import os
from dataclasses import replace

from repro.analysis import format_table
from repro.baselines import (
    GeminiPolicy,
    MaxFrequencyPolicy,
    RetailPolicy,
    UtilizationOraclePolicy,
)
from repro.cpu import OndemandGovernor
from repro.core import DeepPowerRuntime
from repro.experiments import calibrate_to_sla, run_policy, workers_for
from repro.experiments.fig7_main import tuned_agent_setup
from repro.sim import RngRegistry
from repro.workload import diurnal_trace, get_app

NUM_CORES = 8


class OndemandDriver:
    """Adapter: plain cpufreq governor as a policy driver."""

    def __init__(self, ctx):
        self.gov = OndemandGovernor(ctx.engine, ctx.cpu, sampling_rate=0.02)

    def start(self):
        self.gov.start()

    def stop(self):
        self.gov.stop()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--app", default="masstree")
    ap.add_argument("--deeppower", default="", help="path to a saved agent (.npz)")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    app = get_app(args.app)
    nw = workers_for(args.app, NUM_CORES)
    rngs = RngRegistry(seed=args.seed)
    base = diurnal_trace(rngs.get("trace"), duration=90.0, num_segments=30)
    cal = calibrate_to_sla(app, base, NUM_CORES, num_workers=nw, target_fraction=0.7)
    trace = cal.trace
    print(f"{app.name}: SLA {app.sla * 1e3:.0f} ms, {nw} workers on {NUM_CORES} cores, "
          f"mean load {cal.mean_load:.2f}\n")

    policies = [
        ("baseline", lambda ctx: MaxFrequencyPolicy(ctx)),
        ("ondemand", OndemandDriver),
        ("retail", lambda ctx: RetailPolicy(ctx)),
        ("gemini", lambda ctx: GeminiPolicy(ctx)),
        ("oracle", lambda ctx: UtilizationOraclePolicy(ctx)),
    ]
    rows = []
    base_power = None
    for label, factory in policies:
        m = run_policy(factory, app, trace, NUM_CORES, seed=777, num_workers=nw).metrics
        if label == "baseline":
            base_power = m.avg_power_watts
        rows.append([
            label, m.avg_power_watts,
            f"{1 - m.avg_power_watts / base_power:.1%}",
            m.tail_latency * 1e3, f"{m.tail_latency / app.sla:.2f}x",
            m.mean_tail_ratio, f"{m.timeout_rate:.2%}",
        ])

    if args.deeppower and os.path.exists(args.deeppower):
        agent, cfg = tuned_agent_setup(seed=args.seed, app=app)
        agent.load(args.deeppower)
        frozen = replace(cfg, train=False)
        m = run_policy(
            lambda ctx: DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, frozen),
            app, trace, NUM_CORES, seed=777,
        ).metrics
        rows.append([
            "deeppower", m.avg_power_watts,
            f"{1 - m.avg_power_watts / base_power:.1%}",
            m.tail_latency * 1e3, f"{m.tail_latency / app.sla:.2f}x",
            m.mean_tail_ratio, f"{m.timeout_rate:.2%}",
        ])

    print(format_table(
        ["policy", "power (W)", "saving", "p99 (ms)", "p99/SLA", "mean/tail", "timeouts"],
        rows, "{:.2f}",
    ))


if __name__ == "__main__":
    main()
