"""View management (Section 5): registry, calendars, periodic views,
moving windows, batch→incremental conversion."""

from .batch import IncrementalTieredComputation, TierSchedule, batch_tiered_computation
from .derived import ViewQuery, top_k
from .calendar import Calendar, ExplicitCalendar, Interval, PeriodicCalendar, monthly, sliding
from .moving import KeyedMovingWindow, MovingWindowAggregate
from .periodic import PeriodicViewSet
from .registry import ViewRegistry, attach_view, scan_prefilters

__all__ = [
    "ViewRegistry",
    "attach_view",
    "ViewQuery",
    "top_k",
    "scan_prefilters",
    "Calendar",
    "PeriodicCalendar",
    "ExplicitCalendar",
    "Interval",
    "monthly",
    "sliding",
    "PeriodicViewSet",
    "MovingWindowAggregate",
    "KeyedMovingWindow",
    "TierSchedule",
    "IncrementalTieredComputation",
    "batch_tiered_computation",
]
