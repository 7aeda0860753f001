"""Crash-safe checkpointing and deterministic resume.

Snapshots are versioned, CRC-verified, atomically written files managed by
:class:`CheckpointManager`; the state they carry comes from the
``state_dict()/load_state_dict()`` protocol implemented across the agents,
optimizers, replay pool, RNG registry and runtime.  See README.md
("Checkpointing and resume") for the format and workflow.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .manager import (
        SCHEMA_VERSION,
        CheckpointCorruptError,
        CheckpointError,
        CheckpointManager,
        CheckpointRecord,
    )
    from .serialize import CheckpointEncodeError, decode_tree, encode_tree

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointEncodeError",
    "CheckpointManager",
    "CheckpointRecord",
    "encode_tree",
    "decode_tree",
]

__getattr__, __dir__ = lazy_exports(__name__)
