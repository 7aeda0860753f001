"""DeepPower reproduction: DRL-based hierarchical power management for
latency-critical multi-core systems (Zhang et al., ICPP 2023).

Package map
-----------
``repro.sim``
    Discrete-event simulation kernel (virtual clock, event heap, RNG).
``repro.cpu``
    Multicore CPU substrate: DVFS table, power model, RAPL monitor,
    cpufreq governors (performance, ondemand).
``repro.workload``
    Tailbench-like apps, service-time processes, diurnal RPS traces,
    open-loop arrivals.
``repro.server``
    The latency-critical server: queue, worker threads, metrics, telemetry.
``repro.nn`` / ``repro.rl``
    Numpy neural-network substrate and the DRL algorithms (DDPG, TD3,
    SAC, DQN, Double DQN).
``repro.core``
    DeepPower itself: thread controller (Algorithm 1), state observer,
    reward calculator, DDPG agent, hierarchical runtime (Algorithm 2).
``repro.control``
    The message boundary between the DeepPower runtime and its node:
    endpoints, the control bus and its degraded modes.
``repro.baselines``
    Comparison policies: baseline (max frequency), fixed frequency,
    utilisation oracle, ReTail, Gemini, and their service-time predictors.
``repro.faults``
    Fault injection (sensor/actuator/agent, fleet chaos, control bus) and
    the runtime watchdog.
``repro.checkpoint``
    Crash-safe snapshots (atomic, CRC-checked, rotating) and the
    ``state_dict`` protocol powering deterministic resume.
``repro.cluster``
    Fleet simulation: nodes on one clock, dispatch, power capping and
    node lifecycle.
``repro.hier``
    The learned fleet budget coordinator above the per-node agents.
``repro.obs``
    Observability: JSONL run traces, spans, trace summaries and queries.
``repro.parallel``
    Deterministic process-pool grids and the content-addressed result
    store.
``repro.analysis``
    Statistics, queueing references and plain-text reporting.
``repro.experiments``
    One module per paper table/figure plus ablations; see DESIGN.md.

Every package resolves its public names on first access, so importing a
package compiles none of its submodules (DESIGN.md §3, "Import rule").

Quickstart
----------
>>> from repro.experiments import get_experiment
>>> print(get_experiment("fig5").execute())  # doctest: +SKIP
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
