"""Stateful (model-based) testing of the TCAM table.

A hypothesis rule-based state machine drives random insert / delete /
modify / lookup sequences against :class:`TcamTable` while maintaining a
simple dict model, checking after every step that the physical invariants
hold: descending-priority order, id-index consistency, occupancy bounds,
and lookup agreement with the model.

The table places and finds rules by bisecting a sorted key index.  The
machine also keeps the physical order as a plain list, placed by linear
scan, and checks every action's ``position`` and ``shifts`` against it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.tcam import Action, Prefix, Rule, TableFullError, TcamTable, pica8_p3290

CAPACITY = 24

prefix_strategy = st.builds(
    lambda bits, length: Prefix(
        ((10 << 24) | (bits << (32 - length)))
        & (((1 << length) - 1) << (32 - length)),
        length,
    ),
    bits=st.integers(min_value=0, max_value=255),
    length=st.integers(min_value=8, max_value=16),
)


class TcamTableMachine(RuleBasedStateMachine):
    """Random operation sequences against a model dict."""

    @initialize()
    def setup(self) -> None:
        self.table = TcamTable(pica8_p3290(), capacity=CAPACITY)
        self.model = {}  # rule_id -> Rule
        self.order = []  # the physical order, kept by linear scan

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @rule(
        prefix=prefix_strategy,
        # Mostly a few shared priorities, so classes hold several rules.
        priority=st.one_of(
            st.sampled_from([5, 6, 7]), st.integers(min_value=1, max_value=60)
        ),
        port=st.integers(min_value=1, max_value=8),
    )
    def insert(self, prefix, priority, port):
        new_rule = Rule.from_prefix(prefix, priority, Action.output(port))
        if self.table.is_full:
            try:
                self.table.insert(new_rule)
                raise AssertionError("full table accepted an insert")
            except TableFullError:
                return
        result = self.table.insert(new_rule)
        # The bottom of the priority class: above the first lower priority.
        position = next(
            (
                index
                for index, resident in enumerate(self.order)
                if resident.priority < priority
            ),
            len(self.order),
        )
        assert result.latency > 0
        assert result.position == position
        assert result.shifts == len(self.order) - position
        self.model[new_rule.rule_id] = new_rule
        self.order.insert(position, new_rule)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        rule_id = data.draw(st.sampled_from(sorted(self.model)))
        result = self.table.delete(rule_id)
        assert (result.position, result.shifts) == (self._scan_position(rule_id), 0)
        del self.order[result.position]
        del self.model[rule_id]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), port=st.integers(min_value=1, max_value=8))
    def modify_action(self, data, port):
        rule_id = data.draw(st.sampled_from(sorted(self.model)))
        result = self.table.modify(rule_id, action=Action.output(port))
        assert (result.position, result.shifts) == (self._scan_position(rule_id), 0)
        old = self.model[rule_id]
        self.model[rule_id] = self.order[result.position] = Rule(
            match=old.match,
            priority=old.priority,
            action=Action.output(port),
            rule_id=old.rule_id,
            origin_id=old.origin_id,
        )

    def _scan_position(self, rule_id):
        return next(
            index for index, resident in enumerate(self.order) if resident.rule_id == rule_id
        )

    @rule(address=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def lookup(self, address):
        hit = self.table.lookup(address)
        candidates = [
            r for r in self.model.values() if r.match.matches(address)
        ]
        if not candidates:
            assert hit is None
            return
        assert hit is not None
        best_priority = max(r.priority for r in candidates)
        # Equal-priority ties are broken by physical order; the hit must at
        # least carry the winning priority.
        assert hit.priority == best_priority
        assert hit.rule_id in self.model

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def physical_order_is_descending_priority(self):
        if not hasattr(self, "table"):
            return
        priorities = [r.priority for r in self.table.rules()]
        assert priorities == sorted(priorities, reverse=True)

    @invariant()
    def physical_order_matches_the_scan_model(self):
        # Equal priorities keep their insertion order.
        if not hasattr(self, "table"):
            return
        assert self.table.rules() == self.order

    @invariant()
    def keys_run_parallel_to_entries(self):
        if not hasattr(self, "table"):
            return
        keys = self.table._keys
        assert len(keys) == len(self.order)
        assert keys == sorted(set(keys))
        for key, resident in zip(keys, self.order):
            assert key[0] == -resident.priority
            assert self.table._key_of[resident.rule_id] == key
        assert len(self.table._key_of) == len(self.order)

    @invariant()
    def occupancy_matches_model(self):
        if not hasattr(self, "table"):
            return
        assert self.table.occupancy == len(self.model)
        assert self.table.occupancy <= self.table.capacity
        for rule_id in self.model:
            assert rule_id in self.table

    @invariant()
    def stats_are_consistent(self):
        if not hasattr(self, "table"):
            return
        stats = self.table.stats
        assert stats.insertions >= len(self.model)
        assert stats.insertions - stats.deletions == len(self.model)


TestTcamTableStateful = TcamTableMachine.TestCase
TestTcamTableStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None, derandomize=True
)
