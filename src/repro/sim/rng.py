"""Seeded random-number streams for reproducible simulations.

Every stochastic component (arrival process, service-time sampler, DRL
exploration noise, network initialisation, ...) draws from its *own* named
stream derived from a single experiment seed.  This way adding a new
consumer of randomness never perturbs the draws seen by existing ones — a
standard trick for reproducible parallel/HPC simulation (counter-based
substream splitting via :class:`numpy.random.SeedSequence`).
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RngRegistry", "generator_state", "restore_generator"]


def generator_state(gen: np.random.Generator) -> Dict:
    """JSON-safe snapshot of a generator's bit-generator state.

    PCG64's state words are 128-bit integers; python JSON carries them
    exactly, so a round-trip continues the stream bit-for-bit.
    """
    return dict(gen.bit_generator.state)


def restore_generator(gen: np.random.Generator, state: Dict) -> None:
    """Restore a snapshot taken by :func:`generator_state` (in place)."""
    expected = gen.bit_generator.state.get("bit_generator")
    if state.get("bit_generator") != expected:
        raise ValueError(
            f"bit-generator mismatch: snapshot is {state.get('bit_generator')!r}, "
            f"generator is {expected!r}"
        )
    gen.bit_generator.state = state


class RngRegistry:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    Examples
    --------
    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.get("arrivals")
    >>> b = rngs.get("service-time")
    >>> a is rngs.get("arrivals")   # cached per name
    True
    >>> float(a.random()) != float(b.random())   # independent streams
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = self.get_fresh(name)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str, offset: int) -> np.random.Generator:
        """A fresh, uncached generator for ``name`` shifted by ``offset``.

        Useful for per-episode or per-worker substreams
        (``rngs.spawn("episode", i)``).
        """
        return self.get_fresh(f"{name}#{offset}")

    def get_fresh(self, name: str) -> np.random.Generator:
        """A new generator for ``name`` that is *not* cached (stateless reuse).

        The stream key is a stable CRC32 of the name, so streams are
        invariant across python hash randomisation and process restarts.
        """
        key = zlib.crc32(name.encode("utf-8"))
        seed = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
        return np.random.Generator(np.random.PCG64(seed))

    def reset(self) -> None:
        """Drop all cached streams; subsequent ``get`` calls start fresh."""
        self._streams.clear()

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> Dict:
        """Snapshot: seed + the bit-generator state of every cached stream.

        ``get_fresh``/``spawn`` generators are intentionally absent — they
        are pure functions of ``(seed, name)``, so a restored registry
        reproduces them exactly by construction.
        """
        return {
            "seed": self.seed,
            "streams": {name: generator_state(g) for name, g in self._streams.items()},
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore a snapshot: cached streams continue their sequences."""
        self.seed = int(state["seed"])
        self._streams.clear()
        for name, gen_state in state["streams"].items():
            restore_generator(self.get(name), gen_state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
