"""Backend registry: shuffle strategies addressable by name.

A backend registers once at import time; everything downstream —
``ShuffleConfig.backend``, the experiment scheme table, the CLI's
``--scheme`` choices, the benchmark matrices — enumerates this registry
instead of branching on strategy, so adding a shuffle strategy means
adding a module here (plus, if it should appear in the experiment
harness, one :class:`~repro.experiments.schemes.Scheme` member whose
value matches the backend's ``scheme_label``).

A backend module holds placement policy only; it composes the data-path
primitives of :class:`~repro.shuffle.service.ShuffleBackend` (``_move``,
the shared reduce read, the ``_stage`` hook, ``relocate_map_output``).
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.errors import ConfigurationError
from repro.shuffle.service import ShuffleBackend
from repro.shuffle.backends.blob import BlobShuffleBackend
from repro.shuffle.backends.fetch import FetchShuffleBackend
from repro.shuffle.backends.pre_merge import PreMergeBackend
from repro.shuffle.backends.push_aggregate import PushAggregateBackend
from repro.shuffle.backends.remote import RemoteShuffleBackend

_REGISTRY: Dict[str, Type[ShuffleBackend]] = {}


def register_backend(backend_class: Type[ShuffleBackend]) -> Type[ShuffleBackend]:
    """Register a backend class under its ``name`` (usable as a
    decorator for out-of-tree strategies)."""
    name = backend_class.name
    if not name or name == ShuffleBackend.name:
        raise ConfigurationError(
            f"{backend_class.__name__} must define a backend name"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not backend_class:
        raise ConfigurationError(
            f"shuffle backend {name!r} already registered "
            f"({existing.__name__})"
        )
    _REGISTRY[name] = backend_class
    return backend_class


def backend_names() -> List[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


def backend_class(name: str) -> Type[ShuffleBackend]:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown shuffle backend {name!r} (registered: {known})"
        ) from None


def create_backend(name: str) -> ShuffleBackend:
    """Instantiate a fresh backend (one per cluster context)."""
    return backend_class(name)()


# The built-in strategies.  Registration order is the enumeration order
# used by the scheme table and the CLI.
register_backend(FetchShuffleBackend)
register_backend(PushAggregateBackend)
register_backend(PreMergeBackend)
register_backend(RemoteShuffleBackend)
register_backend(BlobShuffleBackend)

__all__ = [
    "BlobShuffleBackend",
    "FetchShuffleBackend",
    "PushAggregateBackend",
    "PreMergeBackend",
    "RemoteShuffleBackend",
    "ShuffleBackend",
    "backend_class",
    "backend_names",
    "create_backend",
    "register_backend",
]
