"""Tests for actions, event bindings/table and the bus."""

import pytest

from repro.events import (
    ActionError,
    AwardBonus,
    EndGame,
    EventBinding,
    EventBus,
    EventError,
    EventTable,
    GiveItem,
    OpenWeb,
    SetFlag,
    ShowText,
    SwitchScenario,
    Trigger,
    action_from_dict,
)


class PassCtx:
    def has_item(self, i): return True
    def item_count(self, i): return 1
    def get_flag(self, n): return True
    def has_visited(self, s): return True
    def get_score(self): return 100
    def get_prop(self, o, k): return True


class FailCtx(PassCtx):
    def get_flag(self, n): return False


class TestActions:
    def test_validation(self):
        with pytest.raises(ActionError):
            SwitchScenario(target="")
        with pytest.raises(ActionError):
            ShowText(text="")
        with pytest.raises(ActionError):
            OpenWeb(url="nope")
        with pytest.raises(ActionError):
            AwardBonus(points=-1)
        with pytest.raises(ActionError):
            EndGame(outcome="")

    def test_dict_roundtrip_all_kinds(self):
        actions = [
            SwitchScenario(target="x"),
            ShowText(text="hi"),
            OpenWeb(url="https://a/b"),
            GiveItem(item_id="i"),
            SetFlag(name="f", value=False),
            AwardBonus(points=3, reward_id="r"),
            EndGame(outcome="lost"),
        ]
        for a in actions:
            b = action_from_dict(a.to_dict())
            assert b == a

    def test_from_dict_unknown(self):
        with pytest.raises(ActionError):
            action_from_dict({"kind": "teleport"})

    def test_from_dict_bad_fields(self):
        with pytest.raises(ActionError):
            action_from_dict({"kind": "show_text", "nope": 1})

    def test_frozen(self):
        a = ShowText(text="hi")
        with pytest.raises(Exception):
            a.text = "bye"


class TestEventBinding:
    def _b(self, **kw):
        defaults = dict(
            scenario_id="s1",
            trigger=Trigger.CLICK,
            object_id="obj",
            actions=[ShowText(text="x")],
        )
        defaults.update(kw)
        return EventBinding(**defaults)

    def test_validation(self):
        with pytest.raises(EventError):
            self._b(trigger="hover")
        with pytest.raises(EventError):
            self._b(object_id=None)  # click needs an object
        with pytest.raises(EventError):
            self._b(trigger=Trigger.USE_ITEM)  # needs item_id
        with pytest.raises(EventError):
            self._b(trigger=Trigger.TIMER, object_id=None)  # needs seconds
        with pytest.raises(EventError):
            self._b(actions=[])
        with pytest.raises(EventError):
            self._b(scenario_id="")

    def test_bad_condition_rejected_at_construction(self):
        from repro.events import ConditionError

        with pytest.raises(ConditionError):
            self._b(condition="has(")

    def test_enter_needs_no_object(self):
        b = EventBinding(scenario_id="s1", trigger=Trigger.ENTER,
                         actions=[ShowText(text="x")])
        assert b.matches("s1", Trigger.ENTER, None, None)

    def test_matches_scoping(self):
        b = self._b()
        assert b.matches("s1", Trigger.CLICK, "obj", None)
        assert not b.matches("s2", Trigger.CLICK, "obj", None)
        assert not b.matches("s1", Trigger.EXAMINE, "obj", None)
        assert not b.matches("s1", Trigger.CLICK, "other", None)

    def test_global_scope(self):
        g = self._b(scenario_id="*")
        assert g.matches("anything", Trigger.CLICK, "obj", None)

    def test_use_item_matching(self):
        b = self._b(trigger=Trigger.USE_ITEM, item_id="ram")
        assert b.matches("s1", Trigger.USE_ITEM, "obj", "ram")
        assert not b.matches("s1", Trigger.USE_ITEM, "obj", "fan")

    def test_dict_roundtrip(self):
        b = self._b(condition="flag('x')", once=True, priority=2)
        b2 = EventBinding.from_dict(b.to_dict())
        assert b2.binding_id == b.binding_id
        assert b2.condition == b.condition
        assert b2.once and b2.priority == 2
        assert b2.actions == b.actions


class TestEventTable:
    def _table(self):
        t = EventTable()
        t.add(EventBinding(binding_id="local", scenario_id="s1",
                           trigger=Trigger.CLICK, object_id="o",
                           actions=[ShowText(text="local")]))
        t.add(EventBinding(binding_id="global", scenario_id="*",
                           trigger=Trigger.CLICK, object_id="o",
                           actions=[ShowText(text="global")]))
        t.add(EventBinding(binding_id="hipri", scenario_id="s1",
                           trigger=Trigger.CLICK, object_id="o", priority=5,
                           actions=[ShowText(text="hipri")]))
        return t

    def test_duplicate_id_rejected(self):
        t = self._table()
        with pytest.raises(EventError):
            t.add(EventBinding(binding_id="local", scenario_id="s1",
                               trigger=Trigger.CLICK, object_id="o",
                               actions=[ShowText(text="x")]))

    def test_match_order_local_priority_authoring(self):
        t = self._table()
        ids = [b.binding_id for b in t.match("s1", Trigger.CLICK, "o")]
        assert ids == ["hipri", "local", "global"]

    def test_condition_filtering(self):
        t = EventTable()
        t.add(EventBinding(binding_id="guarded", scenario_id="s1",
                           trigger=Trigger.CLICK, object_id="o",
                           condition="flag('go')",
                           actions=[ShowText(text="x")]))
        assert t.match("s1", Trigger.CLICK, "o", ctx=PassCtx())
        assert not t.match("s1", Trigger.CLICK, "o", ctx=FailCtx())

    def test_once_exclusion(self):
        t = EventTable()
        t.add(EventBinding(binding_id="one", scenario_id="s1",
                           trigger=Trigger.CLICK, object_id="o", once=True,
                           actions=[ShowText(text="x")]))
        assert t.match("s1", Trigger.CLICK, "o", exclude_ids={"one"}) == []
        assert len(t.match("s1", Trigger.CLICK, "o", exclude_ids=set())) == 1

    def test_remove_and_get(self):
        t = self._table()
        b = t.remove("global")
        assert b.binding_id == "global"
        assert len(t) == 2
        with pytest.raises(EventError):
            t.get("global")

    def test_for_scenario(self):
        t = self._table()
        assert {b.binding_id for b in t.for_scenario("s1")} == {"local", "global", "hipri"}
        assert {b.binding_id for b in t.for_scenario("s2")} == {"global"}

    def test_timers_sorted(self):
        t = EventTable()
        for sec, bid in [(9.0, "late"), (2.0, "early")]:
            t.add(EventBinding(binding_id=bid, scenario_id="s1",
                               trigger=Trigger.TIMER, timer_seconds=sec,
                               actions=[ShowText(text="x")]))
        assert [b.binding_id for b in t.timers_for("s1")] == ["early", "late"]

    def test_list_roundtrip(self):
        t = self._table()
        t2 = EventTable.from_list(t.to_list())
        assert [b.binding_id for b in t2] == [b.binding_id for b in t]

    def test_default_ids_are_per_table(self):
        def unnamed():
            return EventBinding(scenario_id="s1", trigger=Trigger.CLICK,
                                object_id="o", actions=[ShowText(text="x")])

        a, b = EventTable([unnamed(), unnamed()]), EventTable([unnamed()])
        assert [x.binding_id for x in a] == ["ev-1", "ev-2"]
        assert [x.binding_id for x in b] == ["ev-1"]
        # an explicit id that collides with the next default is skipped
        c = EventTable()
        c.add(EventBinding(binding_id="ev-1", scenario_id="s1",
                           trigger=Trigger.CLICK, object_id="o",
                           actions=[ShowText(text="x")]))
        assert c.add(unnamed()) == "ev-2"

    def test_rebuilt_game_replays_to_the_same_digest(self):
        """Two builds of one game in one process are the same game:
        same binding ids, so the same ``fired_once`` and state digest."""
        from repro.core import fetch_quest_game
        from repro.persist import state_digest
        from repro.persist.records import apply_scripted_op
        from repro.students import cohort_scripts
        from repro.video.player import SimulatedClock

        games = [fetch_quest_game(n_quests=2).build() for _ in range(2)]
        script = cohort_scripts(games[0], 1, seed=5)[0]
        digests = []
        for game in games:
            engine = game.new_engine(clock=SimulatedClock(0.0),
                                     with_video=False)
            engine.start()
            for op in script.ops:
                apply_scripted_op(engine, op, script.dt)
            assert engine.state.fired_once
            digests.append(state_digest(engine.state))
        assert digests[0] == digests[1]
        ids = [[b.binding_id for b in game.events] for game in games]
        assert ids[0] == ids[1]


class TestEventBus:
    def test_topic_and_wildcard_delivery(self):
        bus = EventBus()
        got, wild = [], []
        bus.subscribe("a", lambda n: got.append(n.topic))
        bus.subscribe("*", lambda n: wild.append(n.topic))
        bus.publish("a")
        bus.publish("b")
        assert got == ["a"]
        assert wild == ["a", "b"]

    def test_unsubscribe(self):
        bus = EventBus()
        got = []
        tok = bus.subscribe("a", lambda n: got.append(1))
        assert bus.unsubscribe(tok)
        bus.publish("a")
        assert got == []
        assert not bus.unsubscribe(tok)

    def test_error_quarantine(self):
        bus = EventBus(max_errors=2)
        calls = []

        def bad(n):
            calls.append(1)
            raise RuntimeError("boom")

        bus.subscribe("a", bad)
        bus.publish("a")
        bus.publish("a")  # second failure -> quarantined
        bus.publish("a")
        assert len(calls) == 2
        assert bus.quarantined

    def test_error_counter_resets_on_success(self):
        bus = EventBus(max_errors=2)
        state = {"fail": True, "calls": 0}

        def flaky(n):
            state["calls"] += 1
            if state["fail"]:
                state["fail"] = False
                raise RuntimeError()

        bus.subscribe("a", flaky)
        for _ in range(5):
            bus.publish("a")
        assert state["calls"] == 5  # never quarantined

    def test_subscriber_count(self):
        bus = EventBus()
        bus.subscribe("a", lambda n: None)
        bus.subscribe("*", lambda n: None)
        assert bus.subscriber_count("a") == 1
        assert bus.subscriber_count() == 2

    def test_payload_copied(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a", lambda n: seen.append(n.payload))
        payload = {"k": 1}
        bus.publish("a", payload)
        payload["k"] = 2
        assert seen[0]["k"] == 1
