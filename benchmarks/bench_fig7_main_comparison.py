"""Fig 7: the headline comparison — power, saving, latency, timeout rate.

Smoke profile covers two contrasting apps (Xapian: ms-scale search with a
real tail; Masstree: the fastest-SLA app where Gemini's machinery breaks
down).  ``REPRO_FULL=1`` covers all five paper apps; trained agents are
cached under ``.artifacts/``.
"""

from conftest import run_once

from repro.experiments.fig7_main import render_fig7, run_fig7
from repro.experiments.scenarios import active_profile

SMOKE_APPS = ("xapian", "masstree")
FULL_APPS = ("xapian", "masstree", "moses", "sphinx", "img-dnn")


def test_fig7_policy_comparison(benchmark, emit):
    profile = active_profile()
    apps = FULL_APPS if profile.is_full else SMOKE_APPS
    results = run_once(benchmark, run_fig7, apps=apps)
    emit(f"Fig 7 — policy comparison ({profile.name} profile)", render_fig7(results))

    for name, ar in results.items():
        base = ar.outcomes["baseline"].metrics
        dp = ar.outcomes["deeppower"].metrics
        rt = ar.outcomes["retail"].metrics
        gm = ar.outcomes["gemini"].metrics

        # Fig 7a shape: every managed policy saves vs the baseline.
        for pol in ("retail", "gemini", "deeppower"):
            assert ar.outcomes[pol].metrics.avg_power_watts < base.avg_power_watts, (
                f"{name}/{pol} should save power"
            )

        # Fig 7b shape: DeepPower's tail stays at/near the SLA envelope
        # while the prediction baselines sit above it.  (Smoke-profile
        # agents train for only a few episodes, so allow more slack; even
        # full-profile agents ride the boundary within seed noise.)
        slack = 1.25 if not active_profile().is_full else 1.15
        assert dp.tail_latency <= ar.sla * slack, f"{name}: DeepPower tail"
        assert dp.tail_latency <= min(rt.tail_latency, gm.tail_latency) * 1.10, (
            f"{name}: DeepPower should have the best tail among managers"
        )

        # Fig 7c shape: DeepPower times out least among the managers
        # (within small-sample noise).
        assert dp.timeout_rate <= min(rt.timeout_rate, gm.timeout_rate) + 0.01, (
            f"{name}: DeepPower timeout rate"
        )
