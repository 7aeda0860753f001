"""Command-line interface.

Examples
--------
List and run paper experiments::

    deeppower list
    deeppower experiment fig5
    deeppower experiment fig7 --full
    deeppower experiment fig1 fig2 table2 --jobs 2   # exit 1 if a claim fails

Quick policy comparison on one app::

    deeppower compare --app xapian --policies baseline,retail

Train and save a DeepPower agent (with an observability trace)::

    deeppower train --app xapian --episodes 20 --out agent.npz \
        --trace-out run.trace.jsonl --profile-spans

Run an 8-node fleet under a global power cap and inspect it per node::

    deeppower fleet --nodes 8 --policy retail --routing power-aware \
        --power-cap auto --trace-out fleet.trace.jsonl
    deeppower trace summarize fleet.trace.jsonl --group-by node

The same fleet under seeded node failures, with a learned budget
coordinator, and with both::

    deeppower fleet --nodes 8 --policy retail --chaos 1
    deeppower fleet --nodes 8 --routing power-aware --power-cap auto --hier ddpg
    deeppower fleet --nodes 8 --routing power-aware --power-cap auto \
        --chaos 1 --hier ddpg

Soak DeepPower's control loop over a lossy message bus, degraded mode
against the no-defence ablation, with one trace per cell::

    deeppower experiment control-soak --trace-dir traces/
    deeppower trace summarize traces/003-soak-degraded-i1-xapian-seed424242.trace.jsonl

Rebuild the per-interval (Fig 8-style) table from a trace::

    deeppower trace summarize run.trace.jsonl
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys

from .experiments.registry import get_experiment, list_experiments


def _jobs_arg(value: str) -> int:
    """argparse type for ``--jobs``: a worker count of at least 1."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--jobs expects an integer, got {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _positive_int(value: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _positive_float(value: str) -> float:
    """argparse type for rates/intensities that must be finite and > 0.

    The finiteness check matters: ``float('nan') <= 0`` is False, so
    without it ``nan`` (and ``inf``) would sail through a plain
    positivity test and surface later as a deep simulation traceback.
    """
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {value!r}"
        )
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {x}")
    return x


def _nonneg_float(value: str) -> float:
    """argparse type for durations that must be finite and >= 0."""
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {value!r}"
        )
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {x}")
    return x


def _nonneg_int(value: str) -> int:
    """argparse type for budgets/counts that must be >= 0."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _out_file_arg(value: str) -> str:
    """argparse type for output file paths (``--trace-out``).

    Fails fast — before minutes of simulation — when the write is doomed:
    missing parent directory, unwritable parent, or the path naming an
    existing directory / read-only file.
    """
    parent = os.path.dirname(os.path.abspath(value))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"cannot write {value!r}: parent directory {parent!r} does not "
            "exist (create it first, e.g. mkdir -p)"
        )
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(
            f"cannot write {value!r}: directory {parent!r} is not writable"
        )
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(
            f"cannot write {value!r}: it is a directory, expected a file path"
        )
    if os.path.exists(value) and not os.access(value, os.W_OK):
        raise argparse.ArgumentTypeError(
            f"cannot write {value!r}: file exists and is not writable"
        )
    return value


def _agent_file_arg(value: str) -> str:
    """argparse type for agent ``.npz`` inputs (``--agent``, ``--hier-agent``).

    Accepts exactly what the loader opens: ``value`` itself, or
    ``value + ".npz"`` when the extension is missing.
    """
    from .nn.serialization import npz_path

    if not os.path.exists(npz_path(value)):
        raise argparse.ArgumentTypeError(
            f"agent file {npz_path(value)!r} does not exist"
        )
    return value


def _out_dir_arg(value: str) -> str:
    """argparse type for output directories (``--trace-dir``).

    The directory itself is created on demand, but its parent must already
    exist and be writable — a deeply nonexistent path is almost always a
    typo, better rejected now than after the runs complete.
    """
    path = os.path.abspath(value)
    if os.path.isdir(path):
        if not os.access(path, os.W_OK):
            raise argparse.ArgumentTypeError(
                f"cannot use {value!r}: directory is not writable"
            )
        return value
    if os.path.exists(path):
        raise argparse.ArgumentTypeError(
            f"cannot use {value!r}: exists and is not a directory"
        )
    parent = os.path.dirname(path)
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"cannot create {value!r}: parent directory {parent!r} does not "
            "exist (create it first, e.g. mkdir -p)"
        )
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(
            f"cannot create {value!r}: parent directory {parent!r} is not "
            "writable"
        )
    return value


def _power_cap_arg(value: str):
    """argparse type for watt budgets: positive *finite* watts or ``auto``.

    ``nan`` must be rejected explicitly — ``float('nan') <= 0`` is False,
    so a plain positivity check would accept it and the run would only
    fail much later, deep inside the coordinator.
    """
    if value == "auto":
        return "auto"
    try:
        watts = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected watts or 'auto', got {value!r}"
        )
    if not math.isfinite(watts):
        raise argparse.ArgumentTypeError(
            f"watts must be a finite number, got {value!r}"
        )
    if watts <= 0:
        raise argparse.ArgumentTypeError(f"watts must be positive, got {watts}")
    return watts


def _add_trace_layout_args(sp: argparse.ArgumentParser) -> None:
    """Trace storage-layout flags shared by the fleet-shaped commands."""
    sp.add_argument(
        "--trace-segment-events", type=_positive_int, default=None,
        help="rotate the trace into numbered segment files every N events "
        "(--trace-out becomes a JSON segment index; read back "
        "transparently by trace summarize/tail/query)",
    )
    sp.add_argument(
        "--trace-compress", default=None, choices=["gzip"],
        help="compress the trace with gzip",
    )
    sp.add_argument(
        "--trace-shard-nodes", action="store_true",
        help="route node-tagged events into per-node segment files "
        "(implies the indexed layout; per-node order is preserved, "
        "cross-node interleaving is not)",
    )


def _validate_resume(parser: argparse.ArgumentParser, args) -> None:
    """``--resume`` needs an existing ``--checkpoint-dir`` to resume from."""
    if not getattr(args, "resume", False):
        return
    ckpt = getattr(args, "checkpoint_dir", None)
    if ckpt is None:
        parser.error("--resume requires --checkpoint-dir")
    if not os.path.isdir(ckpt):
        parser.error(
            f"--resume: checkpoint directory {ckpt!r} does not exist"
        )


def _validate_profile_spans(parser: argparse.ArgumentParser, args) -> None:
    """``--profile-spans`` writes into the trace, so it needs ``--trace-out``."""
    if getattr(args, "profile_spans", False) and args.trace_out is None:
        parser.error("--profile-spans requires --trace-out (spans go into the trace)")


def _validate_switches(parser: argparse.ArgumentParser, args) -> None:
    """Reject ``fleet`` group flags given without ``--chaos`` / ``--hier``."""
    if args.command != "fleet":
        return
    for switch, flags in args.switched.items():
        if getattr(args, switch) is None:
            for flag in flags:
                if hasattr(args, flag.dest):
                    parser.error(f"{flag.option_strings[0]} requires --{switch}")
    if args.hier is not None and args.power_cap is None:
        parser.error("--hier requires --power-cap (the budget it apportions)")


def _cmd_list(args) -> int:
    for exp in list_experiments():
        print(f"{exp.id:22s} {exp.description}")
    return 0


def _cmd_experiment(args) -> int:
    exps = [get_experiment(exp_id) for exp_id in args.ids]
    kwargs = dict(
        jobs=args.jobs,
        result_cache=not args.no_cache,
        trace_dir=args.trace_dir,
    )
    # Some experiments (fig5, table2, overhead) have no full profile: alone
    # that is a usage error, among several ids they run at their only one.
    single = []
    if args.full:
        single = [
            exp.id for exp in exps
            if "full" not in inspect.signature(exp.run).parameters
        ]
        if single and len(exps) == 1:
            print(f"experiment {single[0]!r} has no --full profile", file=sys.stderr)
            return 2
        if single:
            print(
                "no --full profile, run at their only one: " + ", ".join(single),
                file=sys.stderr,
            )
    failed = 0
    for exp in exps:
        if len(exps) > 1:
            print(f"== {exp.id}: {exp.description}", file=sys.stderr, flush=True)
        run_kwargs = (
            dict(kwargs, full=True) if args.full and exp.id not in single else kwargs
        )
        result = exp.compute(**run_kwargs)
        print(exp.render(result))
        for claim in exp.failed_claims(result, full=run_kwargs.get("full")):
            print(f"claim failed: {exp.id}: {claim}")
            failed += 1
        sys.stdout.flush()
    return 1 if failed else 0


def _cmd_compare(args) -> int:
    from .analysis.reporting import format_table
    from .experiments.fig7_main import fig7_calibration
    from .experiments.scenarios import active_profile, workers_for
    from .parallel.cells import GRID_POLICIES
    from .parallel.grid import RunSpec, run_grid
    from .workload.apps import get_app

    names = [name.strip() for name in args.policies.split(",")]
    for name in names:
        if name not in GRID_POLICIES:
            print(f"unknown policy {name!r}; choose from {sorted(GRID_POLICIES)}", file=sys.stderr)
            return 2
    profile = active_profile(args.full)
    app = get_app(args.app)
    nw = workers_for(args.app, profile.num_cores)
    # fig7's workload for the app, from the store.
    cal = fig7_calibration(args.app, profile, result_cache=True)
    runs = run_grid([
        RunSpec(args.app, name, cal.trace, profile.num_cores, seed=args.seed, num_workers=nw)
        for name in names
    ], cache=True)
    rows = []
    for name, run in zip(names, runs):
        m = run.unwrap()
        rows.append(
            [name, m.avg_power_watts, m.tail_latency * 1e3,
             f"{m.tail_latency / app.sla:.2f}x", f"{m.timeout_rate:.2%}"]
        )
    print(format_table(["policy", "power(W)", "p99(ms)", "p99/SLA", "timeout"], rows, "{:.2f}"))
    return 0


def _cmd_train(args) -> int:
    from .core import train_deeppower
    from .experiments.fig7_main import fig7_calibration, tuned_agent_setup
    from .experiments.scenarios import active_profile, workers_for
    from .workload.apps import get_app

    # Train under the recipe of the experiments' agents, which ``fleet
    # --agent`` also assumes: the app's tuned reward and worker count on
    # fig7's calibrated trace.
    profile = active_profile(args.full)
    app = get_app(args.app)
    cal = fig7_calibration(args.app, profile, result_cache=True)
    agent, cfg = tuned_agent_setup(args.seed, app=app)
    result = train_deeppower(
        app, cal.trace,
        episodes=args.episodes if args.episodes else profile.train_episodes,
        num_cores=profile.num_cores, seed=args.seed, agent=agent, config=cfg,
        num_workers=workers_for(args.app, profile.num_cores), verbose=True,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        trace_out=args.trace_out,
        profile=args.profile_spans,
    )
    agent.save(args.out)
    print(f"saved trained agent to {args.out}")
    print(f"final mean reward: {result.episodes[-1].mean_reward:.3f}")
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    return 0


def _resume_fleet_agent(manager, args, hier, seed):
    """The fleet agent in the newest ``--checkpoint-dir`` snapshot, or None
    (start fresh) when there is none; ValueError if it cannot be used."""
    from .hier import build_fleet_agent
    from .parallel.cells import derive_seed

    record = manager.load_latest()
    if record is None:
        print(
            f"--resume: no fleet-agent snapshot in "
            f"{args.checkpoint_dir!r}; starting fresh",
            file=sys.stderr,
        )
        return None
    if record.meta.get("kind") != "hier-fleet-agent":
        raise ValueError(
            f"newest snapshot in {args.checkpoint_dir!r} is not a "
            f"fleet-agent checkpoint (kind={record.meta.get('kind')!r})"
        )
    fleet_agent = build_fleet_agent(
        args.nodes, hier, derive_seed(seed, "hier", "fleet-agent")
    )
    try:
        fleet_agent.load_state_dict(record.state["fleet_agent"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"snapshot rejected: {exc}") from exc
    print(f"resumed fleet agent from step {record.step} ({record.path})")
    return fleet_agent


def _given(args, switch):
    """The ``switch`` group's flags given on the command line, by dest."""
    return {
        flag.dest: getattr(args, flag.dest)
        for flag in args.switched[switch] if hasattr(args, flag.dest)
    }


def _cmd_fleet(args) -> int:
    from .analysis.reporting import format_table
    from .cluster import ClusterConfig, fleet_power_budget, fleet_trace, run_cluster
    from .experiments.fleet import FLEET_LOAD, fleet_dimensions
    from .experiments.scenarios import active_profile, evaluation_trace

    profile = active_profile(args.full)
    _, default_cores = fleet_dimensions(profile)
    cores = args.cores if args.cores is not None else default_cores
    seed = args.seed if args.seed is not None else profile.seed
    load = args.load if args.load is not None else FLEET_LOAD
    trace = fleet_trace(
        evaluation_trace(profile), args.app, args.nodes, cores, load=load
    )
    cap = args.power_cap
    if cap == "auto":
        cap = fleet_power_budget(args.nodes, cores)
    meta = {
        "kind": "fleet",
        "app": args.app,
        "policy": args.policy,
        "routing": args.routing,
        "num_nodes": args.nodes,
        "seed": seed,
    }
    banner = (
        f"fleet: {args.nodes} nodes x {cores} cores, app={args.app}, "
        f"policy={args.policy}, routing={args.routing}, seed={seed}"
    )

    plan = None
    chaos_opts = _given(args, "chaos")
    failover = not chaos_opts.pop("no_failover", False)
    if args.chaos is not None:
        from .faults import standard_chaos_plan

        plan = standard_chaos_plan(
            args.chaos, args.nodes, trace.duration, seed=seed, **chaos_opts
        )
        meta.update(intensity=args.chaos, failover=failover)
        banner += f", chaos={args.chaos:g}, failover={'on' if failover else 'off'}"

    hier = manager = fleet_agent = None
    hier_opts = _given(args, "hier")
    save_to = hier_opts.pop("save_hier_agent", None)
    checkpoint_dir = hier_opts.pop("checkpoint_dir", None)
    resume = hier_opts.pop("resume", False)
    if args.hier is not None:
        from .hier import HierConfig

        hier = HierConfig(algo=args.hier, **hier_opts)
        if checkpoint_dir is not None:
            from .checkpoint import CheckpointManager

            manager = CheckpointManager(checkpoint_dir, prefix="hier")
            if resume:
                try:
                    fleet_agent = _resume_fleet_agent(manager, args, hier, seed)
                except ValueError as exc:
                    print(f"--resume: {exc}", file=sys.stderr)
                    return 2
        meta.update(algo=args.hier, train=hier.train)
        banner += f", hier={args.hier}, mode={'train' if hier.train else 'eval'}"

    config = ClusterConfig(
        app=args.app,
        num_nodes=args.nodes,
        cores_per_node=cores,
        policy=args.policy,
        routing=args.routing,
        power_cap_watts=cap,
        seed=seed,
        agent_path=args.agent,
        fault_plan=plan,
        health_aware=None if failover else False,
        hier=hier,
    )
    sim, metrics = run_cluster(
        config,
        trace,
        trace_out=args.trace_out,
        meta=meta,
        trace_segment_events=args.trace_segment_events,
        trace_compress=args.trace_compress,
        trace_shard_by_node=args.trace_shard_nodes,
        fleet_agent=fleet_agent,
    )

    headers = ["node", "routed", "power(W)", "energy(J)", "completed",
               "timeouts", "p95(ms)", "p99(ms)"]
    f = metrics.fleet
    rows = [
        [node, routed, m.avg_power_watts, m.energy_joules, m.completed,
         m.timeouts, m.p95_latency * 1e3, m.tail_latency * 1e3]
        for node, (m, routed) in enumerate(zip(metrics.node_metrics, metrics.routed))
    ]
    rows.append(
        ["fleet", sum(metrics.routed), f.avg_power_watts, f.energy_joules,
         f.completed, f.timeouts, f.p95_latency * 1e3, f.tail_latency * 1e3]
    )
    if plan is not None:
        headers.append("avail")
        for row, avail in zip(
            rows, [*metrics.node_availability, metrics.fleet_availability]
        ):
            row.append(avail)
    print(banner)
    print(format_table(headers, rows, "{:.2f}"))
    if plan is not None:
        print(
            f"chaos: crashes={metrics.crashes}, "
            f"redispatched={metrics.redispatches}, "
            f"dropped={metrics.dropped_requests}, "
            f"unroutable={metrics.unroutable}, "
            f"partitions={metrics.partitions}, "
            f"availability={metrics.fleet_availability:.3f}, "
            f"sla={'met' if f.sla_met else 'MISS'}"
        )
    if cap is not None:
        verdict = "ok" if metrics.cap_ok else "EXCEEDED"
        print(
            f"power cap: budget={cap:.1f} W, "
            f"peak window={metrics.max_window_power:.1f} W, "
            f"throttled windows={metrics.throttled_windows} [{verdict}]"
        )
    if hier is not None:
        print(
            f"fleet agent: decisions={metrics.hier_decisions}, "
            f"updates={metrics.hier_updates}, "
            f"sla={'met' if f.sla_met else 'MISS'}"
        )
    if manager is not None:
        path = manager.save(
            {"fleet_agent": sim.fleet_agent.state_dict()},
            step=(manager.latest_step() or 0) + 1,
            meta={
                "kind": "hier-fleet-agent",
                "num_nodes": args.nodes,
                "algo": args.hier,
            },
        )
        print(f"fleet-agent checkpoint written to {path}")
    if save_to:
        sim.fleet_agent.save(save_to)
        print(f"fleet-agent parameters saved to {save_to}")
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    return 0


def _node_arg(value: str):
    """argparse type for ``--node``: trace node ids are ints when they can be."""
    try:
        return int(value)
    except ValueError:
        return value


def _cmd_trace(args) -> int:
    from .obs import (
        TraceError,
        render_fleet_summary,
        render_summary,
        summarize_fleet_trace,
        summarize_trace,
    )

    try:
        if args.group_by == "node":
            print(render_fleet_summary(summarize_fleet_trace(args.file, strict=not args.lenient)))
            return 0
        summary = summarize_trace(args.file, strict=not args.lenient)
    except (TraceError, OSError) as exc:
        print(f"cannot summarize {args.file}: {exc}", file=sys.stderr)
        return 1
    print(render_summary(summary, limit=args.limit))
    return 0


def _cmd_trace_slice(args) -> int:
    """Shared worker for ``trace tail`` and ``trace query``: JSONL out."""
    import json

    from .obs import TraceError, trace_query, trace_tail

    filters = dict(
        kind=args.kind,
        node=args.node,
        since=args.since,
        until=args.until,
        strict=not args.lenient,
    )
    try:
        if args.action == "tail":
            events = trace_tail(args.file, n=args.last, **filters)
        else:
            events = trace_query(args.file, limit=args.limit, **filters)
        for event in events:
            print(json.dumps(event))
    except (TraceError, OSError, ValueError) as exc:
        print(f"cannot {args.action} {args.file}: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .parallel.cells import POLICY_NAMES
    from .workload.apps import APP_NAMES

    p = argparse.ArgumentParser(prog="deeppower", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list", help="list available paper experiments")
    sp.set_defaults(fn=_cmd_list)

    sp = sub.add_parser(
        "experiment", help="run paper experiments by id and check their claims",
        description="Run each experiment, print its table, then one line per "
        "paper claim its result fails.  Exit status 1 when any claim failed.",
    )
    sp.add_argument(
        "ids", metavar="ID", nargs="+", choices=[e.id for e in list_experiments()],
        help="experiment id, e.g. fig7, table2 (see 'deeppower list')",
    )
    sp.add_argument("--full", action="store_true", help="full-scale profile")
    sp.add_argument(
        "--jobs", type=_jobs_arg, default=1,
        help="fan independent runs over N worker processes (N >= 1); "
        "results are bitwise identical to --jobs 1",
    )
    sp.add_argument(
        "--no-cache", action="store_true",
        help="read and write nothing under REPRO_CACHE: recalibrate every "
        "workload, retrain every agent and rerun every cell instead of "
        "reusing stored ones",
    )
    sp.add_argument(
        "--trace-dir", type=_out_dir_arg, default=None,
        help="write a JSONL observability trace per grid cell into this "
        "directory (traced cells always execute, bypassing the result cache)",
    )
    sp.set_defaults(fn=_cmd_experiment)

    sp = sub.add_parser("compare", help="compare policies on one app")
    sp.add_argument("--app", default="xapian", choices=APP_NAMES)
    sp.add_argument("--policies", default="baseline,retail,gemini")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--full", action="store_true")
    sp.set_defaults(fn=_cmd_compare)

    sp = sub.add_parser("train", help="train a DeepPower agent and save it")
    sp.add_argument("--app", default="xapian", choices=APP_NAMES)
    sp.add_argument("--episodes", type=int, default=0, help="0 = profile default")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--out", default="deeppower-agent.npz")
    sp.add_argument("--full", action="store_true")
    sp.add_argument(
        "--checkpoint-dir", default=None,
        help="autosave full training state here (crash/kill safe)",
    )
    sp.add_argument(
        "--checkpoint-every", type=_positive_int, default=1,
        help="episodes between autosaves (default: every episode)",
    )
    sp.add_argument(
        "--resume", action="store_true",
        help="resume training from the newest valid snapshot",
    )
    sp.add_argument(
        "--trace-out", type=_out_file_arg, default=None,
        help="write a schema-versioned JSONL observability trace of the "
        "whole training run here",
    )
    sp.add_argument(
        "--profile-spans", action="store_true",
        help="time instrumented hot paths (engine loop, controller tick, "
        "agent update) and end the trace with their span-summary event "
        "(needs --trace-out)",
    )
    sp.set_defaults(fn=_cmd_train)

    sp = sub.add_parser(
        "fleet",
        help="run a multi-node cluster under one arrival stream, optionally "
        "under seeded faults (--chaos) and a learned budget coordinator "
        "(--hier)",
    )
    sp.add_argument("--app", default="xapian", choices=APP_NAMES)
    sp.add_argument(
        "--nodes", type=_positive_int, default=8,
        help="number of simulated machines (default: 8)",
    )
    sp.add_argument(
        "--cores", type=_positive_int, default=None,
        help="cores per node (default: profile-sized)",
    )
    sp.add_argument(
        "--policy", default="baseline", choices=POLICY_NAMES,
        help="per-node power policy (default: %(default)s)",
    )
    sp.add_argument(
        "--routing", default="round-robin",
        choices=["round-robin", "jsq", "power-aware"],
        help="dispatcher routing policy",
    )
    sp.add_argument(
        "--power-cap", type=_power_cap_arg, default=None,
        help="global fleet power budget in watts, or 'auto' for a budget at "
        "70%% of the fleet's controllable range (default: uncapped; "
        "required by --hier)",
    )
    sp.add_argument(
        "--load", type=_positive_float, default=None,
        help="mean fleet utilisation the arrival trace is scaled to "
        "(default: the fleet experiment's load)",
    )
    sp.add_argument("--seed", type=int, default=None, help="default: profile seed")
    sp.add_argument(
        "--agent", type=_agent_file_arg, default=None,
        help="trained agent .npz for --policy deeppower (default: untrained)",
    )
    sp.add_argument("--full", action="store_true", help="full-scale profile")
    sp.add_argument(
        "--trace-out", type=_out_file_arg, default=None,
        help="write a node-tagged JSONL fleet trace here, including "
        "node-down/redispatch events with --chaos and coordinator-decision "
        "events with --hier "
        "(inspect with: deeppower trace summarize FILE --group-by node)",
    )
    _add_trace_layout_args(sp)

    # Group flags default to SUPPRESS, so ``args`` holds exactly the ones
    # given: _validate_switches rejects them without their switch, and
    # _cmd_fleet passes them on by dest, so the callee's defaults apply.
    chaos = sp.add_argument_group(
        "chaos", "seeded fault plan (crashes, rack failures, telemetry "
        "partitions) with failover dispatch; the flags below need --chaos",
    )
    chaos.add_argument(
        "--chaos", metavar="INTENSITY", type=_positive_float, default=None,
        help="turn the fault plan on at this intensity (> 0; scales outage "
        "durations and per-node DVFS fault rates)",
    )
    chaos_flags = [chaos.add_argument(
        "--retry-budget", type=_nonneg_int, default=argparse.SUPPRESS,
        help="re-dispatch attempts per evacuated request before it is "
        "dropped (>= 0; default: 2)",
    ), chaos.add_argument(
        "--retry-backoff", type=_positive_float, default=argparse.SUPPRESS,
        help="base re-dispatch delay in seconds, doubled per retry "
        "(> 0; default: 0.05)",
    ), chaos.add_argument(
        "--recovery", dest="recovery_time", metavar="RECOVERY",
        type=_nonneg_float, default=argparse.SUPPRESS,
        help="seconds a restarted node stays frequency-capped in the "
        "'recovering' state (default: 5%% of the trace)",
    ), chaos.add_argument(
        "--drop-in-flight", action="store_true", default=argparse.SUPPRESS,
        help="drop requests caught on a crashing node instead of "
        "re-dispatching them",
    ), chaos.add_argument(
        "--no-failover", action="store_true", default=argparse.SUPPRESS,
        help="ablation: disable health-aware dispatch so routers keep "
        "addressing down nodes",
    )]

    from .hier.config import HIER_ALGOS

    hier = sp.add_argument_group(
        "hier", "a learned fleet-level agent apportions the --power-cap "
        "budget instead of the heuristic coordinator; the flags below "
        "need --hier",
    )
    hier.add_argument(
        "--hier", metavar="ALGO", default=None, choices=list(HIER_ALGOS),
        help=f"turn the learned coordinator on with this upper-level "
        f"learner ({', '.join(HIER_ALGOS)})",
    )
    hier_flags = [hier.add_argument(
        "--eval", dest="train", action="store_false",
        default=argparse.SUPPRESS,
        help="run the actor frozen: no exploration noise, no learner "
        "updates (default: train online during the run)",
    ), hier.add_argument(
        "--hier-agent", dest="agent_path", metavar="HIER_AGENT",
        type=_agent_file_arg, default=argparse.SUPPRESS,
        help="fleet-agent parameters .npz to preload (written by "
        "--save-hier-agent)",
    ), hier.add_argument(
        "--save-hier-agent", type=_out_file_arg, default=argparse.SUPPRESS,
        help="save the fleet agent's network parameters here after the "
        "run (the --hier-agent eval artifact)",
    ), hier.add_argument(
        "--checkpoint-dir", default=argparse.SUPPRESS,
        help="write the fleet agent's complete learner state (networks, "
        "optimisers, replay, noise, RNG) here after the run",
    ), hier.add_argument(
        "--resume", action="store_true", default=argparse.SUPPRESS,
        help="preload the newest fleet-agent snapshot from "
        "--checkpoint-dir and continue training from it",
    )]
    sp.set_defaults(
        fn=_cmd_fleet, switched={"chaos": chaos_flags, "hier": hier_flags}
    )

    sp = sub.add_parser(
        "trace",
        help="inspect a JSONL observability trace (plain, gzip "
        "compressed, or segmented — all read transparently)",
    )
    tsub = sp.add_subparsers(dest="action", required=True)

    def _trace_common(tp: argparse.ArgumentParser) -> None:
        tp.add_argument("file", help="path to a .trace.jsonl file (or index)")
        strictness = tp.add_mutually_exclusive_group()
        strictness.add_argument(
            "--strict", action="store_true",
            help="fail on malformed, truncated or empty traces (the "
            "default; spelled out for scripts that want to be explicit)",
        )
        strictness.add_argument(
            "--lenient", action="store_true",
            help="tolerate truncated/unfinished/empty traces (e.g. a "
            ".part file from a crashed run): use what parsed, warn "
            "about the rest",
        )

    def _trace_filters(tp: argparse.ArgumentParser) -> None:
        tp.add_argument(
            "--kind", default=None,
            help="only events of this kind (e.g. drl-step, node-window)",
        )
        tp.add_argument(
            "--node", type=_node_arg, default=None,
            help="only events tagged with this node id; on a node-sharded "
            "trace other nodes' segment files are skipped via the index",
        )
        tp.add_argument(
            "--since", type=float, default=None,
            help="only events with virtual timestamp t >= SINCE; segments "
            "wholly before it are skipped via the index",
        )
        tp.add_argument(
            "--until", type=float, default=None,
            help="only events with virtual timestamp t <= UNTIL; segments "
            "wholly after it are skipped via the index",
        )

    tp = tsub.add_parser(
        "summarize", help="rebuild per-interval / per-node tables"
    )
    _trace_common(tp)
    tp.add_argument(
        "--limit", type=int, default=None,
        help="show only the last N per-interval rows",
    )
    tp.add_argument(
        "--group-by", default=None, choices=["node"],
        help="aggregate a fleet trace per node instead of per interval",
    )
    tp.set_defaults(fn=_cmd_trace)

    tp = tsub.add_parser(
        "tail", help="print the last N matching events as JSON lines"
    )
    _trace_common(tp)
    tp.add_argument(
        "-n", "--last", type=_positive_int, default=10,
        help="number of trailing events to print (default: 10)",
    )
    _trace_filters(tp)
    tp.set_defaults(fn=_cmd_trace_slice)

    tp = tsub.add_parser(
        "query", help="print matching events in trace order as JSON lines"
    )
    _trace_common(tp)
    _trace_filters(tp)
    tp.add_argument(
        "--limit", type=_positive_int, default=None,
        help="stop after N matching events (default: all)",
    )
    tp.set_defaults(fn=_cmd_trace_slice)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_switches(parser, args)
    _validate_resume(parser, args)
    _validate_profile_spans(parser, args)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
