"""Saving / loading network parameters as ``.npz`` archives.

The paper "saves the neural network parameters after training" and reloads
them for testing; these helpers provide that workflow for any
:class:`~repro.nn.network.Module`.

Two durability guarantees:

* **Extension normalisation** — ``np.savez("foo")`` silently writes
  ``foo.npz``; both save and load append the extension when missing, so a
  path without it round-trips instead of raising ``FileNotFoundError``.
* **Atomic writes** — archives are written to a same-directory temp file,
  fsynced and ``os.replace``d into place, so a crash mid-save can never
  leave a truncated archive under the final name.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict

import numpy as np

from .network import Module

__all__ = ["save_modules", "load_modules", "npz_path"]


def npz_path(path: str) -> str:
    """The path ``np.savez`` actually writes for ``path``."""
    return path if path.endswith(".npz") else path + ".npz"


def _atomic_savez(path: str, payload: Dict[str, np.ndarray]) -> None:
    """Write an ``.npz`` archive atomically (temp file + fsync + rename)."""
    path = npz_path(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_modules(modules: Dict[str, Module], path: str) -> None:
    """Save several named modules into one archive (e.g. actor + critic)."""
    payload = {}
    for name, mod in modules.items():
        for key, arr in mod.state_dict().items():
            payload[f"{name}/{key}"] = arr
    _atomic_savez(path, payload)


def load_modules(modules: Dict[str, Module], path: str) -> None:
    """Load an archive produced by :func:`save_modules`."""
    path = npz_path(path)
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with np.load(path) as data:
        for name, mod in modules.items():
            prefix = f"{name}/"
            state = {
                k[len(prefix):]: data[k] for k in data.files if k.startswith(prefix)
            }
            if not state:
                raise KeyError(f"archive has no parameters for module {name!r}")
            mod.load_state_dict(state)
