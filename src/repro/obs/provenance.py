"""Placement provenance: a typed ledger of every placement decision.

The tracer (:mod:`repro.obs.tracer`) records *timings* around decisions;
this module records the *decisions themselves* — each PushDown+ rank
ordering, each PullUp hoist, each PullRank rank-vs-join-rank comparison
(with the per-input selectivity and differential cost behind both ranks),
each System R unpruneable retention, each Predicate Migration stream pass
and predicate move (round, stream, before/after slot), each Exhaustive
branch-and-bound cut and incumbent improvement, and each LDL virtual-join
application. The ledger attaches to
:class:`~repro.optimizer.optimizer.OptimizedPlan` and is serialised into
``BENCH_<workload>.json`` artifacts, so "which decision changed?" is
answerable offline next to "which plan changed?".

Like the tracer and profiler, provenance must cost nothing when off: the
default :data:`NULL_LEDGER` is a :class:`NullLedger` whose ``record()``
is a no-op, and hot paths guard with ``if ledger.enabled:`` so even
argument packing is skipped. Recording must also never change the chosen
plan — the ledger only observes; plan fingerprints gate this in CI.

Event data is canonicalised to deterministic JSON-safe values at record
time (:func:`repro.obs.tracer.canonical_value`), so ledgers are
byte-stable across runs and under ``PYTHONHASHSEED`` variation.

On top of the ledger sit the ``repro why`` building blocks:
:func:`skeleton_signature` (the filter-independent join-tree identity
events are attributed by), :func:`why_report` (per-expensive-predicate
decision chains), and :func:`counterfactual_report` (re-cost the plan
with a predicate moved one join up/down and report the checked delta).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.model import CostModel
from repro.errors import PlanError
from repro.expr.predicates import Predicate
from repro.obs.tracer import canonical_value
from repro.plan.nodes import Join, Plan, PlanNode, Scan
from repro.plan.streams import spine_of

#: Every ledger event kind, mapped to the paper concept it records.
#: ``record()`` rejects anything else, so consumers can rely on the
#: vocabulary (EXPERIMENTS.md maps these to the paper's terminology).
EVENT_KINDS = {
    "scan.rank_order": (
        "selections rank-ordered on a base scan (Section 4.1 rank sort)"
    ),
    "scan.disjunction_order": (
        "a disjunctive conjunct's boolean tree cost-ordered for "
        "short-circuit evaluation (the rank sort generalised to AND/OR "
        "trees per Kim/Ileri/Madden)"
    ),
    "pullup.hoist": (
        "expensive selection hoisted above a join by PullUp (Section 4.2)"
    ),
    "pullrank.compare": (
        "predicate rank vs. per-input join rank test at one join "
        "(Section 4.3), with the selectivity/cost behind both ranks"
    ),
    "systemr.unpruneable": (
        "subplan retained despite higher cost because it still holds an "
        "unpulled expensive predicate (Section 4.4 System R modification)"
    ),
    "migration.pass": (
        "one series-parallel fixpoint pass over a candidate's stream "
        "(Section 4.4 / [MS79])"
    ),
    "migration.move": (
        "one predicate moved between stream slots by a migration pass"
    ),
    "migration.skipped": (
        "a retained candidate not migrated: its planning floor is not "
        "below the best migrated cost so far"
    ),
    "migration.select_best": (
        "the migrated candidate chosen as the final plan"
    ),
    "exhaustive.order_pruned": (
        "join-order prefix cut by the branch-and-bound lower bound"
    ),
    "exhaustive.combos": (
        "placement interleavings evaluated/pruned for one join order"
    ),
    "exhaustive.new_best": (
        "a new incumbent plan, with its movable-predicate slot assignment"
    ),
    "ldl.virtual_join": (
        "expensive predicate applied as a virtual-relation join step "
        "(Section 3.1 LDL rewrite)"
    ),
    "stats.clamp": (
        "a non-finite or out-of-range predicate statistic was clamped by "
        "the cost-model guardrails before any rank was computed"
    ),
    "stats.drift": (
        "an observed or declared statistic disagrees with the catalog "
        "declaration beyond the drift q-error threshold"
    ),
    "planner.degraded": (
        "a placement strategy failed or timed out and the ladder fell "
        "back to a cheaper strategy"
    ),
    "plan.replan": (
        "a mid-query drift trigger: the adaptive controller applied, "
        "refused (budget / oscillation / no improvement), or converged "
        "on a re-planned predicate placement for the unexecuted suffix"
    ),
}


@dataclass(frozen=True)
class LedgerEvent:
    """One recorded placement decision, in ledger order."""

    seq: int
    kind: str
    data: dict

    def as_dict(self) -> dict:
        return {"seq": self.seq, "kind": self.kind, **self.data}


class NullLedger:
    """The default ledger: every operation is a no-op.

    ``enabled`` is a class attribute so hot paths can skip event argument
    construction entirely (``if ledger.enabled: ledger.record(...)``).
    """

    __slots__ = ()

    enabled = False
    events: tuple = ()

    def record(self, kind: str, **data: object) -> None:
        """Record nothing."""

    def events_of(self, kind: str) -> list:
        return []

    def event_counts(self) -> dict[str, int]:
        return {}

    def summary(self) -> dict:
        return {"event_counts": {}, "events": []}


#: Shared default ledger instance.
NULL_LEDGER = NullLedger()


class ProvenanceLedger(NullLedger):
    """An ordered, typed record of placement decisions."""

    __slots__ = ("events",)

    enabled = True

    def __init__(self) -> None:
        self.events: list[LedgerEvent] = []

    def record(self, kind: str, **data: object) -> None:
        """Append one event; ``kind`` must be a known :data:`EVENT_KINDS`
        entry and ``data`` is canonicalised to JSON-safe values here, at
        record time, so export can never fail later."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown ledger event kind {kind!r}; "
                f"choose one of {sorted(EVENT_KINDS)}"
            )
        self.events.append(
            LedgerEvent(
                seq=len(self.events),
                kind=kind,
                data={
                    key: canonical_value(value)
                    for key, value in data.items()
                },
            )
        )

    def events_of(self, kind: str) -> list[LedgerEvent]:
        return [event for event in self.events if event.kind == kind]

    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def summary(self) -> dict:
        """The artifact form: stable counts plus the full ordered list."""
        return {
            "event_counts": self.event_counts(),
            "events": [event.as_dict() for event in self.events],
        }


# -- attribution: matching events to the final plan --------------------------


def skeleton_signature(node: PlanNode) -> str:
    """The filter-independent identity of a (sub)plan: join-tree shape,
    join methods, primary join predicates, and scan access paths.

    Policies and migration move only filter lists, never the skeleton, so
    a signature recorded when a join was constructed still identifies the
    same join in the final plan — that is how ``repro why`` attributes
    enumeration-time decisions to final-plan nodes.
    """
    if isinstance(node, Scan):
        if node.index_attr is not None:
            return f"{node.table}[ix:{node.index_attr}]"
        return node.table
    assert isinstance(node, Join)
    return (
        f"({skeleton_signature(node.outer)} "
        f"{node.method.value}[{node.primary}] "
        f"{skeleton_signature(node.inner)})"
    )


def plan_join_signatures(root: PlanNode) -> dict[str, Join]:
    """Signature -> join node for every join in the final plan."""
    return {
        skeleton_signature(node): node
        for node in root.walk()
        if isinstance(node, Join)
    }


def expensive_targets(root: PlanNode) -> list[tuple[Predicate, str]]:
    """The ``repro why`` subjects: every expensive predicate in the plan,
    paired with ``"filter"`` (movable) or ``"primary"`` (join predicate
    driving a join — its position is fixed by the join order)."""
    targets: list[tuple[Predicate, str]] = []
    seen: set[int] = set()
    for node in root.walk():
        for predicate in node.filters:
            if predicate.is_expensive and id(predicate) not in seen:
                seen.add(id(predicate))
                targets.append((predicate, "filter"))
        if isinstance(node, Join) and node.primary.is_expensive:
            if id(node.primary) not in seen:
                seen.add(id(node.primary))
                targets.append((node.primary, "primary"))
    return targets


# -- counterfactuals ---------------------------------------------------------


@dataclass(frozen=True)
class Counterfactual:
    """One re-costed alternative placement of a single predicate."""

    direction: str  # "down" (one join earlier) or "up" (one join later)
    from_slot: int
    to_slot: int
    base_cost: float
    alt_cost: float

    @property
    def delta(self) -> float:
        """``alt - base``: positive means the current placement wins."""
        return self.alt_cost - self.base_cost


@dataclass
class CounterfactualReport:
    """Everything ``repro why`` prints about one predicate's alternatives."""

    base_cost: float
    current_slot: int | None = None
    entry_slot: int | None = None
    top_slot: int | None = None
    moves: list[Counterfactual] | None = None
    note: str = ""


def counterfactual_report(
    plan: Plan | PlanNode, predicate: Predicate, model: CostModel
) -> CounterfactualReport:
    """Re-cost ``plan`` with ``predicate`` moved one join down and one join
    up from its current slot, leaving the input plan untouched.

    Every cost — including the baseline — comes from
    ``model.estimate_plan`` on a fresh clone, so the reported deltas are
    independently checkable numbers, not differences of cached estimates.
    Non-left-deep plans and join primaries get a ``note`` instead.
    """
    root = plan.root if isinstance(plan, Plan) else plan
    base_clone = root.clone()
    base_cost = model.estimate_plan(base_clone).cost
    owner = root.find_filter(predicate)
    if owner is None:
        return CounterfactualReport(
            base_cost=base_cost,
            note=(
                "predicate is a join primary (or not in this plan): its "
                "position is fixed by the join order, so there is no "
                "one-slot counterfactual"
            ),
        )
    try:
        spine = spine_of(root)
    except PlanError:
        return CounterfactualReport(
            base_cost=base_cost,
            note=(
                "plan is bushy; one-slot spine counterfactuals are only "
                "defined for left-deep plans"
            ),
        )
    entry = spine.entry_slot(predicate)
    top = len(spine.joins)
    current = entry
    for spine_join in spine.joins:
        if owner is spine_join.join:
            current = spine_join.slot
            break
    moves: list[Counterfactual] = []
    for target in (current - 1, current + 1):
        if target < entry or target > top:
            continue
        clone = root.clone()
        # Clones share Predicate objects with the original, so the spine
        # of the clone accepts the same predicate as a placement key.
        spine_of(clone).apply_placement({predicate: target})
        alt_cost = model.estimate_plan(clone).cost
        moves.append(
            Counterfactual(
                direction="up" if target > current else "down",
                from_slot=current,
                to_slot=target,
                base_cost=base_cost,
                alt_cost=alt_cost,
            )
        )
    return CounterfactualReport(
        base_cost=base_cost,
        current_slot=current,
        entry_slot=entry,
        top_slot=top,
        moves=moves,
    )


# -- the `repro why` report --------------------------------------------------


def _fmt(value) -> str:
    """Compact numeric formatting for report lines."""
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.4g}"
    return str(value)


def _dedupe(events: list[LedgerEvent]) -> list[tuple[LedgerEvent, int]]:
    """Collapse repeated identical decisions (same kind and data) into
    (first event, occurrence count) pairs, preserving first-seen order."""
    grouped: dict[str, tuple[LedgerEvent, int]] = {}
    for event in events:
        key = f"{event.kind}|{sorted(event.data.items())}"
        if key in grouped:
            first, count = grouped[key]
            grouped[key] = (first, count + 1)
        else:
            grouped[key] = (event, 1)
    return list(grouped.values())


def _compare_line(data: dict, times: int) -> str:
    verdict = (
        "pulled above the join"
        if data.get("pulled")
        else "declined (stays below)"
    )
    line = (
        f"rank comparison at {data.get('join')} "
        f"[{data.get('side')} input]: predicate rank "
        f"{_fmt(data.get('predicate_rank'))} vs join rank "
        f"{_fmt(data.get('join_rank'))} -> {verdict}\n"
        f"      (join rank = (selectivity "
        f"{_fmt(data.get('input_selectivity'))} - 1) / cost "
        f"{_fmt(data.get('input_cost'))} per input tuple; stream "
        f"{_fmt(data.get('outer_rows'))} x {_fmt(data.get('inner_rows'))} "
        f"rows)"
    )
    if times > 1:
        line += f"  [seen {times}x during enumeration]"
    return line


def _predicate_chain(
    predicate: Predicate,
    ledger,
    final_signatures: dict[str, Join],
    strategy: str,
) -> list[str]:
    """Human-readable ledger lines that explain one predicate's position."""
    name = str(predicate)
    lines: list[str] = []

    for event in ledger.events_of("scan.rank_order"):
        order = event.data.get("order", [])
        if name in order:
            position = order.index(name)
            lines.append(
                f"rank-ordered on scan({event.data.get('table')}): "
                f"position {position + 1} of {len(order)} "
                f"(ranks {', '.join(_fmt(r) for r in event.data.get('ranks', []))})"
            )
            break  # one template per table; later repeats are identical

    hoists = [
        event
        for event in ledger.events_of("pullup.hoist")
        if event.data.get("predicate") == name
        and event.data.get("join_signature") in final_signatures
    ]
    for event, times in _dedupe(hoists):
        suffix = f"  [seen {times}x]" if times > 1 else ""
        lines.append(
            f"hoisted above {event.data.get('join')} by PullUp "
            f"(every expensive selection rises){suffix}"
        )

    compares = [
        event
        for event in ledger.events_of("pullrank.compare")
        if event.data.get("predicate") == name
        and event.data.get("join_signature") in final_signatures
    ]
    for event, times in _dedupe(compares):
        lines.append(_compare_line(event.data, times))

    select_best = ledger.events_of("migration.select_best")
    winner = select_best[-1].data.get("candidate") if select_best else None
    if winner is not None:
        moves = [
            event
            for event in ledger.events_of("migration.move")
            if event.data.get("predicate") == name
            and event.data.get("candidate") == winner
        ]
        passes = [
            event
            for event in ledger.events_of("migration.pass")
            if event.data.get("candidate") == winner
        ]
        for event in moves:
            lines.append(
                f"migration pass {event.data.get('round')} moved it "
                f"slot {event.data.get('from_slot')} -> "
                f"{event.data.get('to_slot')} on stream "
                f"{event.data.get('stream')}"
            )
        if passes and not moves:
            lines.append(
                f"migration ran {len(passes)} fixpoint pass(es) on the "
                "winning candidate without moving it: the enumeration "
                "placement was already series-parallel optimal"
            )
        if select_best:
            data = select_best[-1].data
            lines.append(
                f"winning candidate: #{data.get('candidate')} "
                f"(estimated cost {_fmt(data.get('cost'))})"
            )

    best_events = ledger.events_of("exhaustive.new_best")
    if best_events:
        data = best_events[-1].data
        slot = (data.get("placements") or {}).get(name)
        if slot is not None:
            lines.append(
                f"exhaustive search settled it at slot {slot} "
                f"(incumbent #{len(best_events)}, cost "
                f"{_fmt(data.get('cost'))}, after "
                f"{_fmt(data.get('interleaving'))} interleavings)"
            )

    virtual = [
        event
        for event in ledger.events_of("ldl.virtual_join")
        if event.data.get("predicate") == name
    ]
    if virtual:
        placements = sorted(
            {tuple(event.data.get("tables", ())) for event in virtual}
        )
        lines.append(
            f"LDL applied it as a virtual-relation join step at "
            f"{len(placements)} distinct point(s) in the DP: "
            + "; ".join("after joining {" + ", ".join(t) + "}"
                        for t in placements)
        )

    if not lines:
        lines.append(
            f"no recorded decision mentions it under strategy "
            f"{strategy!r} (it stayed at its rank-sorted entry position)"
        )
    return lines


def _counterfactual_lines(report: CounterfactualReport) -> list[str]:
    if report.note:
        return [f"counterfactual: {report.note}"]
    lines: list[str] = []
    assert report.moves is not None
    if not report.moves:
        lines.append(
            f"counterfactual: slot {report.current_slot} is the only "
            f"legal slot (entry {report.entry_slot}, top "
            f"{report.top_slot}); nothing to move"
        )
    for move in report.moves:
        if move.delta >= 0:
            verdict = (
                f"current placement wins by {move.delta:.1f} units"
            )
        else:
            verdict = (
                f"the move would IMPROVE the estimate by "
                f"{-move.delta:.1f} units (this strategy is heuristic)"
            )
        lines.append(
            f"counterfactual {move.direction} (slot {move.from_slot} -> "
            f"{move.to_slot}): plan re-costs to {move.alt_cost:,.1f} "
            f"vs {move.base_cost:,.1f} -> {verdict}"
        )
    return lines


def why_report(
    optimized,
    model: CostModel,
    predicate: str | None = None,
) -> str:
    """Render the ``repro why`` view for one :class:`OptimizedPlan`.

    For each expensive predicate in the final plan (optionally filtered
    by the ``predicate`` substring): where it ended up, the chain of
    ledger events that fixed it there, and one-slot counterfactual
    re-costings with checked deltas.
    """
    root = optimized.plan.root
    ledger = getattr(optimized, "provenance", None) or NULL_LEDGER
    targets = expensive_targets(root)
    if predicate:
        targets = [
            (p, role) for p, role in targets if predicate in str(p)
        ]
    lines: list[str] = [
        f"== why: {optimized.query_name or 'query'} under "
        f"{optimized.strategy} (estimated cost "
        f"{optimized.estimated_cost:,.1f})"
    ]
    if not targets:
        subject = (
            f"no expensive predicate matching {predicate!r}"
            if predicate
            else "no expensive predicates"
        )
        lines.append(f"{subject} in this plan; nothing to explain.")
        return "\n".join(lines)
    if not ledger.enabled or not ledger.events:
        lines.append(
            "(no provenance ledger was recorded for this plan; "
            "decision chains below will be empty)"
        )
    final_signatures = plan_join_signatures(root)
    for target, role in targets:
        owner = root.find_filter(target)
        lines.append("")
        lines.append(
            f"-- predicate {target}  (rank {_fmt(target.rank)}, "
            f"selectivity {_fmt(target.selectivity)}, cost "
            f"{_fmt(target.cost_per_tuple)}/tuple)"
        )
        if role == "primary":
            lines.append(
                "  placed as a join primary: it drives a join, so its "
                "position follows the join order, not a placement rule"
            )
        elif owner is not None:
            where = (
                f"scan({owner.table})" if isinstance(owner, Scan)
                else f"{owner.method.value}-join [{owner.primary}]"
            )
            lines.append(f"  final position: on {where}")
        for line in _predicate_chain(
            target, ledger, final_signatures, optimized.strategy
        ):
            lines.append(f"  * {line}")
        if role == "filter":
            report = counterfactual_report(optimized.plan, target, model)
            for line in _counterfactual_lines(report):
                lines.append(f"  > {line}")
    return "\n".join(lines)
