"""What a grid cell and a fleet node share to build their world: a stable
per-item seed and the non-learning policies by name.

Imports nothing from the process pool or the grid runner, so a fleet
loads neither :mod:`multiprocessing` nor :mod:`pickle`.
"""

from __future__ import annotations

import hashlib
import importlib
from typing import Dict, Tuple

__all__ = [
    "derive_seed", "GRID_POLICIES", "POLICY_NAMES", "grid_policy", "policy_modules",
]


def derive_seed(base_seed: int, *parts: object, bits: int = 31) -> int:
    """Stable per-item seed: hash of ``base_seed`` and the item identity.

    Uses SHA-256 over the repr of the parts, so the result is invariant
    across python hash randomisation, process boundaries, and platforms —
    two grid cells with the same ``(base_seed, parts)`` always simulate
    the same world, and distinct cells get well-separated streams.

    >>> derive_seed(7, "xapian", "retail") == derive_seed(7, "xapian", "retail")
    True
    >>> derive_seed(7, "xapian", "retail") != derive_seed(7, "xapian", "gemini")
    True
    """
    payload = repr((int(base_seed),) + parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") % (1 << bits)


#: Policy name -> (module, class) of its power manager; a class is built
#: as ``cls(ctx, **kwargs)``.  Every policy but DeepPower, whose cells and
#: nodes build a trained agent.
GRID_POLICIES: Dict[str, Tuple[str, str]] = {
    "baseline": ("repro.baselines.simple", "MaxFrequencyPolicy"),
    "retail": ("repro.baselines.retail", "RetailPolicy"),
    "gemini": ("repro.baselines.gemini", "GeminiPolicy"),
    "controller": ("repro.core.thread_controller", "FixedController"),
}

#: Modules DeepPower imports to build itself.
_DEEPPOWER_MODULES = ("repro.core.training", "repro.experiments.fig7_main")

#: Every per-node policy name, in ``NODE_POLICIES`` order; the CLI lists
#: these without importing the fleet.
POLICY_NAMES: Tuple[str, ...] = ("baseline", "retail", "gemini", "deeppower", "controller")


def grid_policy(name: str) -> type:
    """The power-manager class of policy ``name`` (any but DeepPower)."""
    module, cls = GRID_POLICIES[name]
    return getattr(importlib.import_module(module), cls)


def policy_modules(name: str) -> Tuple[str, ...]:
    """Modules that building policy ``name`` imports (none if unknown)."""
    if name in GRID_POLICIES:
        return (GRID_POLICIES[name][0],)
    return _DEEPPOWER_MODULES if name == "deeppower" else ()
