"""Ruleset verifier: static analysis over TCAM table snapshots.

Hermes's correctness story rests on one invariant: the shadow+main pair,
probed shadow-first, must behave exactly like a single priority-ordered
monolithic table (Section 4 of the paper).  The code that *maintains* that
invariant — Algorithm 1 partitioning, reverse re-partitioning, Figure 6
un-partitioning, Rule Manager migrations — is spread across
:mod:`repro.core`; this module *checks* it from the outside, using nothing
but the physical table contents.  Every checker is a pure function over
rule sequences, so it can run against live tables, serialized snapshots
(:mod:`repro.analysis.snapshot`), or hand-built fixtures, and none of them
consult :class:`~repro.core.partition.PartitionMap` — a corrupted
bookkeeping structure must not be able to vouch for itself.

Checkers report structured :class:`~repro.analysis.violations.Violation`
records; :func:`verify_partition` and :func:`verify_moveplan` are the
aggregate entry points.  :func:`verify_partition` runs the atomic-predicate
engine (:mod:`repro.analysis.ap`); the symbolic checkers here are its
reference oracle, composed by :func:`symbolic_verify_partition` for
cross-checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..tcam.rule import Rule
from ..tcam.ternary import TernaryMatch
from .violations import (
    DUPLICATE_ENTRY,
    EQUIVALENCE_MISMATCH,
    MOVEPLAN_INVERSION,
    MOVEPLAN_OVERFLOW,
    MOVEPLAN_SLOT_CONFLICT,
    PRIORITY_INVERSION,
    SHADOWED_RULE,
    UNREACHABLE_RULE,
    Violation,
)

RuleSource = Sequence[Rule]


def _rules_of(table) -> List[Rule]:
    """Accept a TcamTable, an installer slice, or a plain rule sequence."""
    getter = getattr(table, "rules", None)
    if callable(getter):
        return list(getter())
    return list(table)


def _subtract_all(
    fragments: List[TernaryMatch], cut: TernaryMatch
) -> List[TernaryMatch]:
    """Subtract ``cut`` from every fragment, dropping emptied ones."""
    survivors: List[TernaryMatch] = []
    for fragment in fragments:
        survivors.extend(fragment.subtract(cut))
    return survivors


def _effective_region(
    match: TernaryMatch, predecessors: Sequence[TernaryMatch]
) -> List[TernaryMatch]:
    """The part of ``match`` not covered by any predecessor (may be empty)."""
    regions = [match]
    for predecessor in predecessors:
        regions = _subtract_all(regions, predecessor)
        if not regions:
            break
    return regions


# ---------------------------------------------------------------------------
# Cross-table checks
# ---------------------------------------------------------------------------
def find_priority_inversions(shadow: RuleSource, main: RuleSource) -> List[Violation]:
    """The Algorithm 1 invariant, checked wholesale.

    A main-table rule that overlaps a shadow resident at strictly higher
    priority is masked by the hardware's shadow-first lookup over the
    overlap region — the pair stops behaving like one table (Figure 4(b)).
    Checked pairwise and independently of any partitioner bookkeeping.
    """
    violations: List[Violation] = []
    shadow_rules = _rules_of(shadow)
    for main_rule in _rules_of(main):
        for shadow_rule in shadow_rules:
            if main_rule.priority > shadow_rule.priority and main_rule.overlaps(
                shadow_rule
            ):
                overlap = main_rule.match.intersect(shadow_rule.match)
                violations.append(
                    Violation(
                        kind=PRIORITY_INVERSION,
                        message=(
                            f"main rule #{main_rule.rule_id} "
                            f"(prio {main_rule.priority}) is masked by shadow "
                            f"rule #{shadow_rule.rule_id} "
                            f"(prio {shadow_rule.priority}) over {overlap}"
                        ),
                        rule_ids=(main_rule.rule_id, shadow_rule.rule_id),
                        table="shadow+main",
                        witness=overlap.value if overlap is not None else None,
                    )
                )
    return violations


def find_duplicate_entries(shadow: RuleSource, main: RuleSource) -> List[Violation]:
    """Rule ids physically present more than once across the pair.

    A retried FlowMod without xid dedup, or a migration that wrote a rule
    into the main table without clearing its shadow copy, leaves the same
    id resident twice; logical deletes then strand the survivor.
    """
    violations: List[Violation] = []
    seen: Dict[int, str] = {}
    for table_name, rules in (("shadow", _rules_of(shadow)), ("main", _rules_of(main))):
        for rule in rules:
            if rule.rule_id in seen:
                violations.append(
                    Violation(
                        kind=DUPLICATE_ENTRY,
                        message=(
                            f"rule #{rule.rule_id} is installed in "
                            f"{seen[rule.rule_id]} and again in {table_name}"
                        ),
                        rule_ids=(rule.rule_id,),
                        table=f"{seen[rule.rule_id]}+{table_name}",
                    )
                )
            else:
                seen[rule.rule_id] = table_name
    return violations


# ---------------------------------------------------------------------------
# Single-table occlusion analysis
# ---------------------------------------------------------------------------
def find_unreachable_rules(table: RuleSource, name: str = "table") -> List[Violation]:
    """Rules wholly covered by the entries physically above them.

    An unreachable rule can never win a lookup: it wastes an entry and
    usually marks an upstream bug (a partitioner that failed to subsume, a
    migration that re-wrote a rule below its own blocker).  Forwarding is
    unaffected, so this is a warning, not an error.
    """
    violations: List[Violation] = []
    rules = _rules_of(table)
    for index, rule in enumerate(rules):
        predecessors = [prior.match for prior in rules[:index]]
        if not _effective_region(rule.match, predecessors):
            violations.append(
                Violation(
                    kind=UNREACHABLE_RULE,
                    message=(
                        f"rule #{rule.rule_id} ({rule.match}, prio "
                        f"{rule.priority}) is wholly covered by the "
                        f"{index} entries above it and can never match"
                    ),
                    rule_ids=(rule.rule_id,),
                    table=name,
                )
            )
    return violations


def find_shadowed_rules(table: RuleSource, name: str = "table") -> List[Violation]:
    """Rules partially occluded by an earlier overlapping rule whose action
    differs.

    Partial occlusion is what priorities are *for*, so this is purely
    informational — useful when auditing an operator-supplied ruleset for
    surprising interactions, too noisy to enforce on partitioned tables.
    """
    violations: List[Violation] = []
    rules = _rules_of(table)
    for index, rule in enumerate(rules):
        for prior in rules[:index]:
            if (
                prior.action != rule.action
                and prior.overlaps(rule)
                and not prior.match.contains(rule.match)
            ):
                violations.append(
                    Violation(
                        kind=SHADOWED_RULE,
                        message=(
                            f"rule #{rule.rule_id} loses part of {rule.match} "
                            f"to rule #{prior.rule_id} ({prior.action} vs "
                            f"{rule.action})"
                        ),
                        rule_ids=(rule.rule_id, prior.rule_id),
                        table=name,
                    )
                )
                break  # one report per occluded rule is enough
    return violations


# ---------------------------------------------------------------------------
# Semantic equivalence
# ---------------------------------------------------------------------------
def lookup_order(shadow: RuleSource, main: RuleSource) -> List[Rule]:
    """The pair's first-match order: shadow physical order, then main.

    This mirrors the hardware (and :meth:`HermesInstaller.lookup`): the
    shadow slice has higher lookup priority, and within a slice the TCAM
    returns the topmost entry.
    """
    return _rules_of(shadow) + _rules_of(main)


def semantic_diff(
    system: RuleSource,
    reference: RuleSource,
    system_name: str = "shadow+main",
    reference_name: str = "reference",
) -> List[Violation]:
    """Exact semantic diff of two first-match rule lists.

    Finds every maximal region of key space on which the two tables decide
    differently — a different action, or a hit on one side and a miss on
    the other — and reports one witness key per differing rule pair.  The
    check is complete (no sampling): regions are computed symbolically with
    the ternary subtract/intersect algebra, the same primitives Algorithm 1
    itself uses, so a disagreement on even a single key is found.
    """
    violations: List[Violation] = []
    system_rules = _rules_of(system)
    reference_rules = _rules_of(reference)
    reported: set = set()

    def report(piece: TernaryMatch, winner: Rule, other: Optional[Rule]) -> None:
        pair = (winner.rule_id, None if other is None else other.rule_id)
        if pair in reported:
            return
        reported.add(pair)
        if other is None:
            detail = f"{reference_name} matches nothing there"
        else:
            detail = (
                f"{reference_name} answers with rule #{other.rule_id} "
                f"({other.action})"
            )
        violations.append(
            Violation(
                kind=EQUIVALENCE_MISMATCH,
                message=(
                    f"key {piece.value:#x}: {system_name} answers with rule "
                    f"#{winner.rule_id} ({winner.action}) but {detail}"
                ),
                rule_ids=(winner.rule_id,)
                + (() if other is None else (other.rule_id,)),
                table=f"{system_name} vs {reference_name}",
                witness=piece.value,
            )
        )

    # Forward direction: walk every region the system decides and check the
    # reference decides it identically.
    for index, rule in enumerate(system_rules):
        fragments = _effective_region(
            rule.match, [prior.match for prior in system_rules[:index]]
        )
        for other in reference_rules:
            if not fragments:
                break
            pieces = [
                piece
                for fragment in fragments
                for piece in (fragment.intersect(other.match),)
                if piece is not None
            ]
            if pieces and other.action != rule.action:
                report(pieces[0], rule, other)
            if pieces:
                fragments = _subtract_all(fragments, other.match)
        for fragment in fragments:
            # The system hits here but the reference falls through.
            report(fragment, rule, None)
            break

    # Reverse direction: regions the reference decides but the system never
    # covers (action mismatches on jointly covered keys were caught above).
    system_matches = [rule.match for rule in system_rules]
    for index, other in enumerate(reference_rules):
        fragments = _effective_region(
            other.match, [prior.match for prior in reference_rules[:index]]
        )
        uncovered = fragments
        for match in system_matches:
            if not uncovered:
                break
            uncovered = _subtract_all(uncovered, match)
        for fragment in uncovered:
            pair = (None, other.rule_id)
            if pair in reported:
                break
            reported.add(pair)
            violations.append(
                Violation(
                    kind=EQUIVALENCE_MISMATCH,
                    message=(
                        f"key {fragment.value:#x}: {reference_name} answers "
                        f"with rule #{other.rule_id} ({other.action}) but "
                        f"{system_name} matches nothing there"
                    ),
                    rule_ids=(other.rule_id,),
                    table=f"{system_name} vs {reference_name}",
                    witness=fragment.value,
                )
            )
            break
    return violations


# ---------------------------------------------------------------------------
# Aggregate entry points
# ---------------------------------------------------------------------------
def verify_partition(
    shadow: RuleSource,
    main: RuleSource,
    reference: Optional[RuleSource] = None,
    include_warnings: bool = False,
) -> List[Violation]:
    """Verify a shadow+main pair against the paper's correctness invariant.

    Runs the cross-table priority-inversion check and the duplicate-entry
    check; with a ``reference`` monolithic table, additionally diffs the
    pair's lookup semantics against it.  ``include_warnings`` adds the
    per-table occlusion analyses (unreachable and shadowed rules).  The
    decision procedure is the atomic-predicate engine
    (:mod:`repro.analysis.ap`), which scales to full-FIB tables.

    Returns the violations found, errors first; an empty list means the
    pair provably behaves like one priority-ordered table (relative to the
    checks requested).
    """
    # Imported lazily: ap imports this module's primitives.
    from .ap import ap_verify_partition

    return ap_verify_partition(
        shadow, main, reference=reference, include_warnings=include_warnings
    )


def symbolic_verify_partition(
    shadow: RuleSource,
    main: RuleSource,
    reference: Optional[RuleSource] = None,
    include_warnings: bool = False,
) -> List[Violation]:
    """The reference oracle for :func:`verify_partition`.

    The same checks through the region-decomposition checkers of this
    module.  Exact, and reports the same violations as the AP engine, but
    quadratic in table size; ``--cross-check`` and the differential tests
    compare the two.
    """
    violations = find_priority_inversions(shadow, main)
    violations += find_duplicate_entries(shadow, main)
    if reference is not None:
        violations += semantic_diff(lookup_order(shadow, main), reference)
    if include_warnings:
        violations += find_unreachable_rules(shadow, "shadow")
        violations += find_unreachable_rules(main, "main")
        violations += find_shadowed_rules(main, "main")
    return sorted(violations, key=lambda v: (v.severity != "error", v.kind))


def verify_moveplan(
    plan,
    table: RuleSource,
    capacity: Optional[int] = None,
) -> List[Violation]:
    """Check that a placement plan is safe at *every* intermediate state.

    The paper's shift-safety argument (Section 6) requires more than a
    correct final layout: a batch written one entry at a time exposes every
    prefix of the plan to live lookups, so each intermediate table state
    must already preserve first-match semantics.  This checker replays the
    plan write-by-write over the resident table and reports:

    * ``moveplan-overflow`` — a slot past the table's capacity;
    * ``moveplan-slot-conflict`` — a slot colliding with a resident entry
      or with an earlier write of the same plan;
    * ``moveplan-inversion`` — an intermediate state in which a rule sits
      physically above an overlapping rule of strictly higher priority
      (first-match would answer with the wrong rule).

    Args:
        plan: a :class:`~repro.tcam.moveplan.PlacementPlan` (anything with
            aligned ``order``/``slots`` sequences works).
        table: the resident rules, in physical order (slots ``0..n-1``).
        capacity: table capacity; taken from ``table.capacity`` when the
            argument is a real table, unbounded otherwise.
    """
    order: Tuple[Rule, ...] = tuple(plan.order)
    slots: Tuple[int, ...] = tuple(plan.slots)
    if len(order) != len(slots):
        raise ValueError(
            f"plan order ({len(order)} rules) and slots ({len(slots)}) disagree"
        )
    if capacity is None:
        capacity = getattr(table, "capacity", None)
    resident = _rules_of(table)
    violations: List[Violation] = []
    occupied: Dict[int, Rule] = {index: rule for index, rule in enumerate(resident)}
    for rule, slot in zip(order, slots):
        if capacity is not None and slot >= capacity:
            violations.append(
                Violation(
                    kind=MOVEPLAN_OVERFLOW,
                    message=(
                        f"rule #{rule.rule_id} is planned into slot {slot} "
                        f"but the table holds only {capacity} entries"
                    ),
                    rule_ids=(rule.rule_id,),
                    table="moveplan",
                )
            )
            continue
        if slot in occupied:
            violations.append(
                Violation(
                    kind=MOVEPLAN_SLOT_CONFLICT,
                    message=(
                        f"rule #{rule.rule_id} is planned into slot {slot}, "
                        f"already holding rule #{occupied[slot].rule_id}"
                    ),
                    rule_ids=(rule.rule_id, occupied[slot].rule_id),
                    table="moveplan",
                )
            )
            continue
        # The write lands; check the intermediate state it creates.  Only
        # pairs involving the new rule can introduce fresh inversions.
        for other_slot, other in occupied.items():
            upper, lower = (rule, other) if slot < other_slot else (other, rule)
            if lower.priority > upper.priority and upper.overlaps(lower):
                overlap = upper.match.intersect(lower.match)
                violations.append(
                    Violation(
                        kind=MOVEPLAN_INVERSION,
                        message=(
                            f"after writing rule #{rule.rule_id} into slot "
                            f"{slot}, rule #{upper.rule_id} (prio "
                            f"{upper.priority}) sits above overlapping rule "
                            f"#{lower.rule_id} (prio {lower.priority})"
                        ),
                        rule_ids=(upper.rule_id, lower.rule_id),
                        table="moveplan",
                        witness=overlap.value if overlap is not None else None,
                    )
                )
        occupied[slot] = rule
    return violations


def verify_installer(
    installer, include_warnings: bool = False
) -> List[Violation]:
    """Verify any :class:`~repro.switchsim.installer.RuleInstaller`.

    Uses the installer's ``tables()`` introspection seam: two-slice schemes
    (Hermes) get the full pair verification, monolithic schemes get the
    duplicate check only (a single table cannot invert against itself).
    """
    tables = installer.tables()
    shadow = tables.get("shadow", ())
    main = tables.get("main", tables.get("monolithic", ()))
    return verify_partition(shadow, main, include_warnings=include_warnings)
