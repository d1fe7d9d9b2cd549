"""The process-wide observability handle and its no-op fast path.

Instrumentation hooks are compiled into the hot paths of the library
(append admission, view routing, compiled plan steps).  They must cost nothing when observability is off, so the
contract is deliberately primitive: a single module-level :data:`ACTIVE`
slot holding either ``None`` (disabled — the default) or the installed
:class:`~repro.obs.core.Observability` instance.  Every hook reduces to

.. code-block:: python

    obs = runtime.ACTIVE
    if obs is not None:
        ...  # open spans (obs.tracer)

— one module-attribute load and one identity test on the disabled path,
the cheapest guard Python offers (verified by the E12 before/after runs
recorded in ``docs/observability.md``).

Like :data:`~repro.complexity.counters.GLOBAL_COUNTERS`, the slot is
process-wide: installing observability for one
:class:`~repro.core.database.ChronicleDatabase` observes every database
in the process.  That is the right trade for a library whose counters
are already global; the caveat is documented in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from contextlib import contextmanager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Observability

#: The installed observability instance, or ``None`` when disabled.
ACTIVE: Optional["Observability"] = None


def install(obs: "Observability") -> "Observability":
    """Make *obs* the process-wide active observability instance."""
    global ACTIVE
    ACTIVE = obs
    return obs


def uninstall(obs: Optional["Observability"] = None) -> None:
    """Clear the active instance.

    With an argument, clears only if *obs* is the one installed — so a
    database disabling its own handle cannot tear down another's.
    """
    global ACTIVE
    if obs is None or ACTIVE is obs:
        ACTIVE = None


def get() -> Optional["Observability"]:
    """The active observability instance, or ``None``."""
    return ACTIVE


@contextmanager
def installed(obs: "Observability") -> Iterator["Observability"]:
    """Temporarily install *obs* (tests and scoped measurements)."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = obs
    try:
        yield obs
    finally:
        ACTIVE = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable observability (bulk preloads, setup code).

    Whatever instance was active is restored on exit; used by the
    conformance profiler so sweep preloads don't pay tracing overhead or
    pollute the measurement handle's metrics.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    try:
        yield
    finally:
        ACTIVE = previous
