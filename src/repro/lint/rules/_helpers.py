"""Shared AST helpers for the rule pack."""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from repro.lint.engine import ModuleUnit

#: methods of repro.obs.Metrics that take a metric name first
METRIC_METHODS = frozenset({"inc", "observe", "set_gauge"})
#: methods of repro.obs.EventLog that take an event name first
EVENT_METHODS = frozenset({"emit", "debug", "info", "warning", "error"})


def obs_receiver_kind(recv: ast.AST, unit: ModuleUnit) -> Optional[str]:
    """Classify *recv* as an obs handle: 'events', 'metrics', or None.

    Recognized shapes (how this repo reaches the obs registries):

    * ``obs.events()`` / ``events()`` / ``repro.obs.metrics()`` — a call
      whose dotted name ends in ``events`` / ``metrics``;
    * a bare name conventionally bound to one: ``registry`` (metrics),
      ``events`` / ``log`` is *not* assumed — only call-shaped receivers
      and ``registry`` are matched, to keep false positives out of
      unrelated ``.info()`` / ``.error()`` methods.
    """
    if isinstance(recv, ast.Call):
        dotted = unit.dotted_name(recv.func)
        if dotted:
            leaf = dotted.rsplit(".", 1)[-1]
            if leaf == "events":
                return "events"
            if leaf == "metrics":
                return "metrics"
    if isinstance(recv, ast.Name) and recv.id == "registry":
        return "metrics"
    if isinstance(recv, ast.Attribute) and recv.attr in ("events", "metrics"):
        if isinstance(recv.value, ast.Name) and recv.value.id == "self":
            return recv.attr
    return None


def emitter_call(
    node: ast.AST, unit: ModuleUnit
) -> Optional[Tuple[str, ast.AST]]:
    """Match an obs metric/event emission call.

    Returns ``(kind, name_arg_node)`` where kind is ``'metric'`` or
    ``'event'``, or None when *node* is not an emission with at least
    one argument.
    """
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return None
    method = node.func.attr
    if method in METRIC_METHODS:
        wanted = "metrics"
        kind = "metric"
    elif method in EVENT_METHODS:
        wanted = "events"
        kind = "event"
    else:
        return None
    if obs_receiver_kind(node.func.value, unit) != wanted:
        return None
    if not node.args:
        return None
    return kind, node.args[0]
