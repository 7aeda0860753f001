"""Fig 4, Fig 11 and a training history against golden digests.

Each digest is the SHA-256 of every array of the result (shape, then raw
float64 bytes), in a fixed order: Fig 4's tick times, the observed core's
frequencies, its request spans and the parameter update; each Fig 11
setting's tick times, frequency matrix, idle floor, ramp slope, turbo
fraction and mean frequency; and every per-episode history array of a
short ``train_deeppower(..., keep_histories=True)`` run, per-tick core
frequencies included.  A change to how these traces are measured that
moves one bit changes a digest.

Print fresh digests with ``PYTHONPATH=src python -c "from
tests.test_trace_goldens import _regen; _regen()"``, only for an intended
behaviour change.
"""

import hashlib

import numpy as np
import pytest

from repro.core import DeepPowerConfig, train_deeppower
from repro.experiments.fig11_fixed_params import run_fig11
from repro.experiments.fig4_controller import run_fig4
from repro.workload.trace import constant_trace

from .conftest import make_tiny_app

GOLDENS = {
    "fig4": "21179cf1cb9964b865e5b684ce76346838e6ce0a5d2d826084b828d69c5ce067",
    "fig11": "7e311824886bbe7e053de6f8e919e4f963582c436f5bb81d74c0c8d9234889a3",
    "training-history": "b1c4a2a7f6adceda66d9cde06367134692cca289e6ae4bee347e55af816476d4",
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _fig4():
    r = run_fig4(full=False)
    assert len(r.times) > 0 and r.request_spans
    return _digest([
        r.times, r.frequency, np.array(r.request_spans), r.param_updates,
        r.params_before, r.params_after,
    ])


def _fig11():
    arrays = []
    for setting, r in run_fig11(full=False).items():
        assert r.freqs.size > 0
        arrays += [
            setting, r.times, r.freqs, r.idle_floor, r.mean_busy_ramp,
            r.turbo_fraction, r.mean_frequency,
        ]
    return _digest(arrays)


def _training_history():
    app = make_tiny_app()
    result = train_deeppower(
        app, constant_trace(app.rps_for_load(0.4, 2), 3.0), episodes=2,
        num_cores=2, seed=5, keep_histories=True,
        config=DeepPowerConfig(long_time=0.5),
    )
    arrays = []
    for history in result.histories:
        assert history["core_frequencies"].shape[1] == 2
        arrays += [history[key] for key in sorted(history)]
    return _digest(arrays)


CASES = {"fig4": _fig4, "fig11": _fig11, "training-history": _training_history}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name):
    assert CASES[name]() == GOLDENS[name]


def _regen() -> None:  # pragma: no cover - maintenance helper
    for name, case in CASES.items():
        print(f'    "{name}": "{case()}",')
