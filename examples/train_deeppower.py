#!/usr/bin/env python
"""Train a DeepPower agent end-to-end and inspect what it learned.

The paper's workflow (§5.2): train the DRL agent online against a long-
running dynamic workload, save the network parameters, then run the frozen
policy on a held-out workload and report power + QoS.

Run:  python examples/train_deeppower.py [--episodes 30] [--app xapian]
"""

import argparse
from dataclasses import replace

import numpy as np

from repro.analysis import format_table, sparkline
from repro.baselines import MaxFrequencyPolicy
from repro.core import DeepPowerRuntime, train_deeppower
from repro.experiments import calibrate_to_sla, run_policy
from repro.experiments.fig7_main import tuned_agent_setup
from repro.sim import RngRegistry
from repro.workload import diurnal_trace, get_app

NUM_CORES = 8


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--app", default="xapian")
    ap.add_argument("--episodes", type=int, default=30)
    ap.add_argument("--save", default="deeppower-agent.npz")
    args = ap.parse_args()

    app = get_app(args.app)
    rngs = RngRegistry(seed=7)
    base = diurnal_trace(rngs.get("trace"), duration=120.0, num_segments=40)

    print("calibrating workload so the unmanaged baseline's p99 sits near the SLA...")
    cal = calibrate_to_sla(app, base, NUM_CORES, target_fraction=0.7)
    print(f"  mean load {cal.mean_load:.2f}, baseline p99 = "
          f"{cal.baseline_p99_fraction:.2f} x SLA\n")

    agent, cfg = tuned_agent_setup(seed=7, app=app)
    print(f"training DDPG agent for {args.episodes} episodes "
          f"({agent.parameter_count()} actor parameters)...")
    result = train_deeppower(
        app, cal.trace, episodes=args.episodes, num_cores=NUM_CORES,
        seed=7, agent=agent, config=cfg, verbose=True,
    )
    agent.save(args.save)
    print(f"\nsaved agent to {args.save}")
    print("reward curve:", sparkline(result.reward_curve(), 60))

    # ---- held-out evaluation -------------------------------------------------
    frozen = replace(cfg, train=False)
    run = run_policy(
        lambda ctx: DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, frozen),
        app, cal.trace, NUM_CORES, seed=99,
        extras_fn=lambda ctx, runtime: {"records": runtime.records},
    )
    base_run = run_policy(
        lambda ctx: MaxFrequencyPolicy(ctx), app, cal.trace, NUM_CORES, seed=99
    )
    m, b = run.metrics, base_run.metrics
    print()
    print(format_table(
        ["policy", "power (W)", "p99/SLA", "timeouts"],
        [
            ["baseline", b.avg_power_watts, f"{b.tail_latency / app.sla:.2f}x", f"{b.timeout_rate:.2%}"],
            ["deeppower", m.avg_power_watts, f"{m.tail_latency / app.sla:.2f}x", f"{m.timeout_rate:.2%}"],
        ],
        "{:.2f}",
    ))
    print(f"\npower saving vs baseline: {1 - m.avg_power_watts / b.avg_power_watts:.1%}\n")

    # ---- Fig 8-style behaviour trace ------------------------------------------
    recs = run.extras["records"]
    rps = np.array([r.rps for r in recs])
    power = np.array([r.power_watts for r in recs])
    acts = np.stack([r.action for r in recs])
    print("per-second behaviour over the evaluation run:")
    print("  rps     ", sparkline(rps, 80))
    print("  power   ", sparkline(power, 80))
    print("  BaseFreq", sparkline(acts[:, 0], 80))
    print("  ScalCoef", sparkline(acts[:, 1], 80))
    print(f"  corr(power, rps) = {np.corrcoef(power, rps)[0, 1]:.2f}")


if __name__ == "__main__":
    main()
