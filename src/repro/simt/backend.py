"""Simulation-core backend registry.

The SM has two implementations of its per-cycle engine, both in
:mod:`repro.simt.core`: the trusted straight-line
:class:`~repro.simt.core.StreamingMultiprocessor` (``reference``, the
oracle) and the event-driven :class:`~repro.simt.core.FastCore`
(``fast``, the default).  This module gives them a front door in the
same style as ``register_workload`` / ``register_config`` /
``register_store``: a :class:`CoreBackend` descriptor registered by name
in an open :class:`~repro.utils.registry.Registry`, so every consumer
(``GPUConfig.core_backend``, ``Session(core=...)``, ``repro --core``,
the store's ``config_hash``) dispatches through the same names.

The backend contract
--------------------

A backend's :attr:`~CoreBackend.factory` must build an object with the
:class:`~repro.simt.core.StreamingMultiprocessor` interface — the
:class:`~repro.gpu.gpu.GPU` drives it exclusively through:

* ``launch_cta(cta_id, launch, now)`` / ``can_accept_cta(launch)`` —
  CTA placement (occupancy limits, shared memory, warp construction);
* ``cycle(now) -> bool`` — advance one cycle, returning whether any
  warp issued (warp advance, scoreboard release, barrier release, LD/ST
  slot accounting, and CTA retirement all happen in here);
* ``busy()`` / ``next_event_time(now)`` — quiescence introspection for
  the GPU's idle fast-forward clock;
* ``collect_stats()`` / ``stats`` — counter collection.

**Parked-warp invariant** (upheld by every event-driven backend): a
warp outside the backend's ready/candidate set
and its LD/ST-blocked set must not be issuable.  A warp may leave the
candidate set only when it is observed blocked on a *sticky* condition,
and must be re-inserted no later than the cycle that condition can
clear: scoreboard hazards on the release for that warp (ALU completion
or load writeback), barrier waits on the CTA's barrier release, LD/ST
back-pressure when the LD/ST unit has a free slot again, and retirement
never (done warps stay parked).  Re-insertion may be conservative — a
woken warp that is still blocked simply re-parks — which is what keeps
the invariant checkable: over-waking costs cycles' work, never
correctness.

Exactness
---------

Every registered backend must produce **byte-identical** results to the
``reference`` core — same cycle counts, same stats dictionaries, same
serialized records — for every workload and configuration (this is what
the golden-equivalence suite pins).  Registered backends therefore share
one persistent-store ``config_hash`` equivalence class (see
:func:`repro.store.base.config_fingerprint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List

from repro.utils.errors import ConfigurationError, RegistryError
from repro.utils.registry import Registry

#: Open registry of simulation-core backends, keyed by backend name.
CORE_BACKENDS = Registry("core backend")


@dataclass(frozen=True)
class CoreBackend:
    """Descriptor for one registered simulation-core implementation.

    Attributes
    ----------
    name:
        Registry key (``"reference"`` or ``"fast"``).
    factory:
        Callable with the :class:`~repro.simt.core
        .StreamingMultiprocessor` constructor signature
        ``(sm_id, config, memory_system, global_memory, tracker)``
        building one SM running this backend.
    reference_memory:
        Whether the memory system should run its straight-line
        (non-event-skipping) loop under this backend.  Only the
        ``reference`` backend sets this; it keeps the trusted baseline
        free of *all* event-skipping machinery.
    description:
        One-line human description (shown by ``repro cores``).
    """

    name: str
    factory: Callable[..., Any] = field(repr=False)
    reference_memory: bool = False
    description: str = ""


def register_core_backend(backend: CoreBackend) -> CoreBackend:
    """Register ``backend`` under its name; returns it unchanged."""
    CORE_BACKENDS.register(backend, name=backend.name,
                           description=backend.description)
    return backend


def _load_builtin_backends() -> None:
    """Import the modules that register the built-in backends.

    Import-cycle note: this module must not import :mod:`repro.simt.core`
    at module level (``core`` imports ``backend`` to register itself), so
    the built-ins are pulled in lazily the first time a lookup misses.
    """
    import repro.simt.core  # noqa: F401  (registers reference, fast)


def get_core_backend(name: str) -> CoreBackend:
    """The registered :class:`CoreBackend` called ``name``.

    Raises :class:`~repro.utils.errors.ConfigurationError` (naming the
    available backends) for unknown names.
    """
    if name not in CORE_BACKENDS:
        _load_builtin_backends()
    try:
        return CORE_BACKENDS.get(name)
    except RegistryError:
        raise ConfigurationError(
            f"unknown core backend {name!r}; available: "
            f"{available_core_backends()}"
        ) from None


def available_core_backends() -> List[str]:
    """Sorted names of all registered core backends."""
    _load_builtin_backends()
    return CORE_BACKENDS.names()


def core_backend_is_exact(name: str) -> bool:
    """Whether backend ``name`` is in the byte-identical equivalence class.

    That class is exactly the registered backends.  Unknown names are
    conservatively treated as **not** exact, so a result produced by an
    unregistered backend is keyed separately in the persistent store
    rather than served for requests on the registered cores.
    """
    if name not in CORE_BACKENDS:
        _load_builtin_backends()
    return name in CORE_BACKENDS
