"""Summarized chronicle algebra (Definition 4.3) and persistent views."""

from .maintenance import attach_view, event_deltas
from .summarize import GroupBySummary, ProjectSummary, Summary
from .view import PersistentView, evaluate_summary

__all__ = [
    "Summary",
    "ProjectSummary",
    "GroupBySummary",
    "PersistentView",
    "evaluate_summary",
    "attach_view",
    "event_deltas",
]
