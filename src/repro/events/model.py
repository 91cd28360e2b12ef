"""Event bindings: (trigger, guard) → actions, authored per scenario.

This is the table the object editor writes (§4.2: "set the properties and
events of objects in video and produce adequate feedback when users'
trigger them") and the runtime engine reads on every interaction.

A binding names

* where it applies — a scenario id, or ``"*"`` for global bindings;
* what triggers it — a :class:`Trigger` kind plus the object involved
  (and, for USE_ITEM, which inventory item was used on it);
* when it may fire — a compiled condition over the game state;
* what happens — an ordered list of :class:`~repro.events.actions.Action`;
* ``once`` — whether it disarms after its first firing (most knowledge-
  delivery feedback fires once; ambient examine text fires always).

Matching (see :meth:`EventTable.match`) is deterministic: scenario-local
bindings beat global ones, then higher ``priority``, then authoring
order.  The runtime fires *all* matching bindings in that order — the
paper's "different feedback" branches are expressed as multiple bindings
with disjoint guards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from ..obs import metrics as _obs
from .actions import Action, action_from_dict
from .conditions import ConditionContext, compile_condition

__all__ = ["EventBinding", "EventError", "EventTable", "Trigger"]

_M_MATCH_CACHE_HITS = _obs.counter(
    "repro_engine_condition_cache_hits_total",
    "Interaction dispatches served from the structural match cache",
)
_M_MATCH_CACHE_MISSES = _obs.counter(
    "repro_engine_condition_cache_misses_total",
    "Interaction dispatches that had to scan and sort the binding table",
)

GLOBAL_SCOPE = "*"


class EventError(ValueError):
    """Raised on invalid event bindings."""


class Trigger:
    """Trigger kinds the runtime can deliver."""

    CLICK = "click"          #: left-click an object
    EXAMINE = "examine"      #: right-click / examine gesture
    TAKE = "take"            #: drag a portable object into the inventory
    USE_ITEM = "use_item"    #: use an inventory item on an object
    ENTER = "enter"          #: scenario becomes active (object_id is None)
    TIMER = "timer"          #: dwell time in a scenario exceeds a bound
    TALK = "talk"            #: click an NPC (engine also opens dialogue)
    APPROACH = "approach"    #: the avatar walks into an object's hotspot

    ALL = (CLICK, EXAMINE, TAKE, USE_ITEM, ENTER, TIMER, TALK, APPROACH)

    #: triggers that require an object id
    OBJECT_SCOPED = (CLICK, EXAMINE, TAKE, USE_ITEM, TALK, APPROACH)


@dataclass(slots=True)
class EventBinding:
    """One authored event rule.  See module docstring for semantics."""

    scenario_id: str
    trigger: str
    actions: List[Action]
    object_id: Optional[str] = None
    item_id: Optional[str] = None
    condition: str = ""
    once: bool = False
    priority: int = 0
    binding_id: str = ""
    timer_seconds: float = 0.0
    _compiled: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.trigger not in Trigger.ALL:
            raise EventError(f"unknown trigger {self.trigger!r}")
        if self.trigger in Trigger.OBJECT_SCOPED and not self.object_id:
            raise EventError(f"trigger {self.trigger!r} requires an object_id")
        if self.trigger == Trigger.USE_ITEM and not self.item_id:
            raise EventError("use_item trigger requires an item_id")
        if self.trigger == Trigger.TIMER and self.timer_seconds <= 0:
            raise EventError("timer trigger requires timer_seconds > 0")
        if not self.scenario_id:
            raise EventError("binding requires a scenario id (or '*')")
        if not self.actions:
            raise EventError("binding requires at least one action")
        self._compiled = compile_condition(self.condition)

    # ------------------------------------------------------------------
    def matches(
        self,
        scenario_id: str,
        trigger: str,
        object_id: Optional[str],
        item_id: Optional[str],
    ) -> bool:
        """Structural match (ignores the condition)."""
        if self.trigger != trigger:
            return False
        if self.scenario_id not in (GLOBAL_SCOPE, scenario_id):
            return False
        if self.trigger in Trigger.OBJECT_SCOPED and self.object_id != object_id:
            return False
        if self.trigger == Trigger.USE_ITEM and self.item_id != item_id:
            return False
        return True

    def guard_passes(self, ctx: ConditionContext) -> bool:
        """Evaluate the compiled condition against the game state."""
        return bool(self._compiled(ctx))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "binding_id": self.binding_id,
            "scenario_id": self.scenario_id,
            "trigger": self.trigger,
            "object_id": self.object_id,
            "item_id": self.item_id,
            "condition": self.condition,
            "once": self.once,
            "priority": self.priority,
            "timer_seconds": self.timer_seconds,
            "actions": [a.to_dict() for a in self.actions],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "EventBinding":
        return cls(
            binding_id=d.get("binding_id", ""),
            scenario_id=d["scenario_id"],
            trigger=d["trigger"],
            object_id=d.get("object_id"),
            item_id=d.get("item_id"),
            condition=d.get("condition", ""),
            once=d.get("once", False),
            priority=d.get("priority", 0),
            timer_seconds=d.get("timer_seconds", 0.0),
            actions=[action_from_dict(a) for a in d["actions"]],
        )


class EventTable:
    """All bindings of a project, with deterministic matching.

    The table preserves authoring order; ``fired`` ids of ``once``
    bindings are tracked by the *game state*, not here, so one table can
    serve many concurrent sessions.
    """

    def __init__(self, bindings: Optional[Iterable[EventBinding]] = None) -> None:
        self._bindings: List[EventBinding] = []
        self._ids: Set[str] = set()
        self._auto_ids = 0
        #: structural-match memo: (scenario, trigger, object, item) →
        #: pre-sorted candidate bindings.  Guards and once-exclusion are
        #: per-session state and stay outside the cache.
        self._match_cache: Dict[tuple, List[EventBinding]] = {}
        for b in bindings or []:
            self.add(b)

    def invalidate_cache(self) -> None:
        """Drop the structural match memo (after editing bindings in place)."""
        self._match_cache.clear()

    def add(self, binding: EventBinding) -> str:
        """Add a binding; returns its id.

        A binding without an id gets the table's next ``ev-N``, so two
        builds of the same game assign the same ids.
        """
        while not binding.binding_id:
            self._auto_ids += 1
            candidate = f"ev-{self._auto_ids}"
            if candidate not in self._ids:
                binding.binding_id = candidate
        if binding.binding_id in self._ids:
            raise EventError(f"duplicate binding id {binding.binding_id!r}")
        self._bindings.append(binding)
        self._ids.add(binding.binding_id)
        self._match_cache.clear()
        return binding.binding_id

    def remove(self, binding_id: str) -> EventBinding:
        """Remove and return a binding by id."""
        for i, b in enumerate(self._bindings):
            if b.binding_id == binding_id:
                self._ids.discard(binding_id)
                self._match_cache.clear()
                return self._bindings.pop(i)
        raise EventError(f"no binding {binding_id!r}")

    def get(self, binding_id: str) -> EventBinding:
        for b in self._bindings:
            if b.binding_id == binding_id:
                return b
        raise EventError(f"no binding {binding_id!r}")

    def __len__(self) -> int:
        return len(self._bindings)

    def __iter__(self):
        return iter(self._bindings)

    def for_scenario(self, scenario_id: str) -> List[EventBinding]:
        """All bindings that can apply in a scenario (local + global)."""
        return [
            b
            for b in self._bindings
            if b.scenario_id in (GLOBAL_SCOPE, scenario_id)
        ]

    def timers_for(self, scenario_id: str) -> List[EventBinding]:
        """Timer bindings applicable to a scenario, ascending deadline."""
        timers = [
            b
            for b in self.for_scenario(scenario_id)
            if b.trigger == Trigger.TIMER
        ]
        return sorted(timers, key=lambda b: b.timer_seconds)

    def match(
        self,
        scenario_id: str,
        trigger: str,
        object_id: Optional[str] = None,
        item_id: Optional[str] = None,
        ctx: Optional[ConditionContext] = None,
        exclude_ids: Optional[Set[str]] = None,
    ) -> List[EventBinding]:
        """Bindings that fire for an interaction, in firing order.

        Order: scenario-local before global, then descending ``priority``,
        then authoring order.  ``exclude_ids`` carries the game state's
        set of already-fired ``once`` bindings.  When ``ctx`` is given,
        guards are evaluated; otherwise only structural matching is done
        (used by the validator).

        The structural part (scan + sort) depends only on the lookup key,
        not on session state, so it is memoised per table; mutating a
        binding *after* insertion requires :meth:`invalidate_cache`.
        """
        key = (scenario_id, trigger, object_id, item_id)
        ordered = self._match_cache.get(key)
        if ordered is None:
            _M_MATCH_CACHE_MISSES.inc()
            hits: List[tuple] = []
            for order, b in enumerate(self._bindings):
                if not b.matches(scenario_id, trigger, object_id, item_id):
                    continue
                local = 0 if b.scenario_id != GLOBAL_SCOPE else 1
                hits.append((local, -b.priority, order, b))
            hits.sort(key=lambda t: t[:3])
            ordered = [t[3] for t in hits]
            self._match_cache[key] = ordered
        else:
            _M_MATCH_CACHE_HITS.inc()
        out: List[EventBinding] = []
        for b in ordered:
            if exclude_ids and b.once and b.binding_id in exclude_ids:
                continue
            if ctx is not None and not b.guard_passes(ctx):
                continue
            out.append(b)
        return out

    def to_list(self) -> List[Dict[str, Any]]:
        return [b.to_dict() for b in self._bindings]

    @classmethod
    def from_list(cls, items: Sequence[Dict[str, Any]]) -> "EventTable":
        return cls(EventBinding.from_dict(d) for d in items)
