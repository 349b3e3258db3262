"""Backend registry: shuffle strategies addressable by name.

``BACKENDS`` is the one table of strategies; everything downstream —
``ShuffleConfig.backend``, the experiment scheme table, the CLI's
``--scheme`` choices, the benchmark matrices — enumerates it instead of
branching on strategy.  Adding a shuffle strategy means adding a module
here and one row to ``BACKENDS`` (plus, if it should appear in the
experiment harness, one :class:`~repro.experiments.schemes.Scheme`
member and one row of ``SCHEME_REGISTRY``).

A backend module holds placement policy only; it composes the data-path
primitives of :class:`~repro.shuffle.service.ShuffleBackend` (``_move``,
the shared reduce read, the ``_stage`` hook, ``relocate_map_output``).
"""

from __future__ import annotations

from typing import Dict, Type

from repro.errors import ConfigurationError
from repro.shuffle.service import ShuffleBackend
from repro.shuffle.backends.blob import BlobShuffleBackend
from repro.shuffle.backends.fetch import FetchShuffleBackend
from repro.shuffle.backends.pre_merge import PreMergeBackend
from repro.shuffle.backends.push_aggregate import PushAggregateBackend
from repro.shuffle.backends.remote import RemoteShuffleBackend

# The built-in strategies by name, in the enumeration order the scheme
# table and the CLI use.
BACKENDS: Dict[str, Type[ShuffleBackend]] = {
    "fetch": FetchShuffleBackend,
    "push_aggregate": PushAggregateBackend,
    "pre_merge": PreMergeBackend,
    "remote": RemoteShuffleBackend,
    "blob": BlobShuffleBackend,
}


def create_backend(name: str) -> ShuffleBackend:
    """Instantiate a fresh backend (one per cluster context)."""
    try:
        backend = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown shuffle backend {name!r} "
            f"(registered: {', '.join(sorted(BACKENDS))})"
        ) from None
    return backend()


__all__ = [
    "BACKENDS",
    "BlobShuffleBackend",
    "FetchShuffleBackend",
    "PushAggregateBackend",
    "PreMergeBackend",
    "RemoteShuffleBackend",
    "ShuffleBackend",
    "create_backend",
]
