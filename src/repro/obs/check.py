"""Trace-based invariant checking.

:func:`check_trace` replays a record stream and proves the system-level
invariants the simulation is supposed to uphold — the properties that
stay true no matter which seed, fault plan, or topology produced the
trace (DESIGN.md "Trace determinism" section).

:data:`RULES` names every rule with a one-paragraph summary;
:func:`rule_table` renders them for docs/observability.md, and a test
keeps the two in step.

Violations are returned, not raised, so tests can assert emptiness and
the CLI can render every problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.records import (
    AckSent,
    AgentDown,
    AgentUp,
    AuctionOpened,
    AuctionSettled,
    DagReady,
    DagRelease,
    DagTransfer,
    DiscoveryEvaluated,
    EvolveStep,
    MemberAlive,
    MemberDead,
    MemberSuspected,
    MessageSent,
    PortalResult,
    ReservationBooked,
    ReservationReleased,
    TaskCompleted,
    TaskDispatched,
    TaskQueued,
    TraceRecord,
)

__all__ = ["RULES", "Violation", "check_trace", "rule_table"]

#: Slack for float comparisons between schedule times and event times.
_EPS = 1e-9


#: Every rule :func:`check_trace` enforces, name → what it proves.
RULES: Dict[str, str] = {
    "clock-monotone": "Virtual time never goes backwards across the record stream.",
    "dispatch-after-queue": (
        "A task is never dispatched before it entered its scheduler's queue, "
        "and never started before the dispatch decision's own time (no "
        "scheduling into the past)."
    ),
    "send-after-down": (
        "No message is sent from an endpoint between its `agent.down` and the "
        "matching `agent.up` — a crashed agent has no process to send from."
    ),
    "ack-resolution": (
        "Every request that was ACKed by the resilience layer eventually "
        "completes on some resource or gets a portal-recorded result "
        "(including a synthesized failure).  The one legitimate escape is the "
        "ACKing agent crashing *after* the ACK while still holding the "
        "forward — those requests are excused, not flagged."
    ),
    "evolve-monotone": (
        "Within one `GAScheduler.evolve` call the per-generation best cost "
        "never increases: elitism always carries the incumbent forward."
    ),
    "no-suspected-dispatch": (
        "An agent never forwards a request to a peer it currently holds under "
        "suspicion (`member.suspect` without a later `member.alive` / "
        "`member.dead`) — the membership layer's performance-info quarantine "
        "must keep eq.-(10) matchmaking away from possibly-dead neighbours."
    ),
    "bid-settles-or-times-out": (
        "Every `auction.open` is eventually answered by exactly one "
        "`auction.settle` (all bids in, timeout, or the auctioneer's own "
        "crash) — an auction is never silently abandoned, reopened while "
        "unsettled, or settled without having opened (the one exception being "
        "the recordable `\"no-bidders\"` immediate settlement)."
    ),
    "no-overlapping-bookings": (
        "An agent's open reservation windows never overlap in time and a "
        "request id is never double-booked: each `resv.book` must be disjoint "
        "from every window the agent has booked and not yet released."
    ),
    "reservation-released-on-death": (
        "When membership confirms a peer dead (`member.dead`), every window "
        "the survivor holds for that booker is eventually released — a dead "
        "booker's slots must not pin capacity forever."
    ),
    "dispatch-after-inputs": (
        "A workflow task is never dispatched before all of its parent outputs "
        "arrived at its cluster: every dispatched workflow task must have a "
        "prior `dag.ready` on its resource, its start must not precede the "
        "last `dag.transfer` arrival for its node, no input may arrive after "
        "the task was declared ready, and each workflow task is declared "
        "ready exactly once."
    ),
}


def rule_table() -> str:
    """The checker-rule table of docs/observability.md, as markdown."""
    lines = ["| rule | invariant |", "|---|---|"]
    lines += [f"| `{rule}` | {summary} |" for rule, summary in RULES.items()]
    return "\n".join(lines)


@dataclass(frozen=True)
class Violation:
    """One invariant breach found in a trace."""

    rule: str
    t: float
    index: int
    message: str

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unregistered checker rule {self.rule!r}")

    def __str__(self) -> str:
        return f"[{self.rule}] t={self.t:.3f} #{self.index}: {self.message}"


def check_trace(records: Sequence[TraceRecord]) -> List[Violation]:
    """All invariant violations in *records*, in record order."""
    violations: List[Violation] = []

    last_t: Optional[float] = None
    queued_at: Dict[Tuple[str, int], float] = {}
    down_since: Dict[str, int] = {}  # endpoint -> index of its agent.down
    # request_id -> (index of its last ACK, the ACKing agent's name)
    last_ack: Dict[int, Tuple[int, str]] = {}
    # agent name -> indices of its agent.down records
    downs_by_agent: Dict[str, List[int]] = {}
    completed_requests: Dict[Tuple[str, int], bool] = {}
    resulted_requests: set = set()
    suspected_by: Dict[str, set] = {}  # agent name -> peers it suspects
    # (agent, request_id) -> index of its still-unsettled auction.open
    open_auctions: Dict[Tuple[str, int], int] = {}
    # agent -> request_id -> (index, booker, start, end) of open windows
    open_bookings: Dict[str, Dict[int, Tuple[int, str, float, float]]] = {}
    # (agent, request_id) -> index of the member.dead that orphaned it
    death_releases_due: Dict[Tuple[str, int], int] = {}
    # request ids released as workflow nodes (dag.release)
    workflow_requests: set = set()
    # (resource, task_id) -> (t, workflow, node) of its dag.ready
    ready_by_task: Dict[Tuple[str, int], Tuple[float, int, str]] = {}
    # (workflow, node) -> index of its dag.ready
    ready_by_node: Dict[Tuple[int, str], int] = {}
    # (workflow, node) -> t of the latest dag.transfer arrival
    last_transfer: Dict[Tuple[int, str], float] = {}
    # dispatches with no prior dag.ready, joined post-pass via agent.local
    unready_dispatches: List[Tuple[int, TaskDispatched]] = []

    def flag(rule: str, record: TraceRecord, index: int, message: str) -> None:
        violations.append(Violation(rule, record.t, index, message))

    for index, record in enumerate(records):
        if last_t is not None and record.t < last_t - _EPS:
            flag(
                "clock-monotone", record, index,
                f"{record.kind} at t={record.t} after t={last_t}",
            )
        last_t = max(record.t, last_t) if last_t is not None else record.t

        if isinstance(record, TaskQueued):
            queued_at.setdefault((record.resource, record.task_id), record.t)
        elif isinstance(record, TaskDispatched):
            key = (record.resource, record.task_id)
            arrival = queued_at.get(key)
            if arrival is None:
                flag(
                    "dispatch-after-queue", record, index,
                    f"task {record.task_id} dispatched on {record.resource} "
                    "without a prior sched.queue record",
                )
            elif record.start < arrival - _EPS:
                flag(
                    "dispatch-after-queue", record, index,
                    f"task {record.task_id} on {record.resource} starts at "
                    f"{record.start} before its arrival at {arrival}",
                )
            if record.start < record.t - _EPS:
                flag(
                    "dispatch-after-queue", record, index,
                    f"task {record.task_id} on {record.resource} starts at "
                    f"{record.start}, before the dispatch decision at "
                    f"{record.t}",
                )
            ready = ready_by_task.get(key)
            if ready is None:
                unready_dispatches.append((index, record))
            else:
                _, workflow, node = ready
                arrived = last_transfer.get((workflow, node))
                if arrived is not None and record.start < arrived - _EPS:
                    flag(
                        "dispatch-after-inputs", record, index,
                        f"task {record.task_id} ({node} of workflow "
                        f"{workflow}) on {record.resource} starts at "
                        f"{record.start} before its last input arrived at "
                        f"{arrived}",
                    )
        elif isinstance(record, DagRelease):
            workflow_requests.add(record.request_id)
        elif isinstance(record, DagTransfer):
            node_key = (record.workflow, record.node)
            if node_key in ready_by_node:
                flag(
                    "dispatch-after-inputs", record, index,
                    f"input for {record.node} of workflow {record.workflow} "
                    f"arrived at {record.agent} after the task was declared "
                    f"ready at record #{ready_by_node[node_key]}",
                )
            prior = last_transfer.get(node_key)
            last_transfer[node_key] = (
                record.t if prior is None else max(prior, record.t)
            )
        elif isinstance(record, DagReady):
            node_key = (record.workflow, record.node)
            if node_key in ready_by_node:
                flag(
                    "dispatch-after-inputs", record, index,
                    f"{record.node} of workflow {record.workflow} declared "
                    f"ready twice (first at record "
                    f"#{ready_by_node[node_key]})",
                )
            else:
                ready_by_node[node_key] = index
            ready_by_task[(record.resource, record.task_id)] = (
                record.t, record.workflow, record.node,
            )
        elif isinstance(record, TaskCompleted):
            completed_requests[(record.resource, record.task_id)] = True
        elif isinstance(record, AgentDown):
            down_since[record.endpoint] = index
            downs_by_agent.setdefault(record.agent, []).append(index)
        elif isinstance(record, AgentUp):
            down_since.pop(record.endpoint, None)
        elif isinstance(record, MessageSent):
            since = down_since.get(record.sender)
            if since is not None:
                flag(
                    "send-after-down", record, index,
                    f"{record.msg} sent from {record.sender} which went "
                    f"down at record #{since}",
                )
        elif isinstance(record, MemberSuspected):
            suspected_by.setdefault(record.agent, set()).add(record.peer)
        elif isinstance(record, (MemberAlive, MemberDead)):
            suspected_by.get(record.agent, set()).discard(record.peer)
            if isinstance(record, MemberDead):
                for rid, (_, booker, _, _) in open_bookings.get(
                    record.agent, {}
                ).items():
                    if booker == record.peer:
                        death_releases_due[(record.agent, rid)] = index
        elif isinstance(record, AuctionOpened):
            key = (record.agent, record.request_id)
            prior = open_auctions.get(key)
            if prior is not None:
                flag(
                    "bid-settles-or-times-out", record, index,
                    f"{record.agent} reopened the auction for request "
                    f"{record.request_id} while the one opened at record "
                    f"#{prior} is still unsettled",
                )
            open_auctions[key] = index
        elif isinstance(record, AuctionSettled):
            key = (record.agent, record.request_id)
            if key in open_auctions:
                del open_auctions[key]
            elif record.reason != "no-bidders":
                flag(
                    "bid-settles-or-times-out", record, index,
                    f"{record.agent} settled request {record.request_id} "
                    f"({record.reason}) without a prior auction.open",
                )
        elif isinstance(record, ReservationBooked):
            windows = open_bookings.setdefault(record.agent, {})
            if record.request_id in windows:
                flag(
                    "no-overlapping-bookings", record, index,
                    f"{record.agent} double-booked request "
                    f"{record.request_id} (window still open from record "
                    f"#{windows[record.request_id][0]})",
                )
            for rid, (_, _, start, end) in windows.items():
                if record.start < end - _EPS and start < record.end - _EPS:
                    flag(
                        "no-overlapping-bookings", record, index,
                        f"{record.agent} booked "
                        f"[{record.start}, {record.end}) for request "
                        f"{record.request_id} overlapping the open window "
                        f"[{start}, {end}) of request {rid}",
                    )
                    break
            windows[record.request_id] = (
                index, record.booker, record.start, record.end,
            )
        elif isinstance(record, ReservationReleased):
            open_bookings.get(record.agent, {}).pop(record.request_id, None)
            death_releases_due.pop((record.agent, record.request_id), None)
        elif isinstance(record, DiscoveryEvaluated):
            if (
                record.decision == "forward"
                and record.target is not None
                and record.target in suspected_by.get(record.agent, ())
            ):
                flag(
                    "no-suspected-dispatch", record, index,
                    f"{record.agent} forwarded request {record.request_id} "
                    f"to {record.target} while suspecting it",
                )
        elif isinstance(record, AckSent):
            last_ack[record.request_id] = (index, record.agent)
        elif isinstance(record, PortalResult):
            resulted_requests.add(record.request_id)
        elif isinstance(record, EvolveStep):
            history = record.history
            for gen in range(1, len(history)):
                if history[gen] > history[gen - 1] + _EPS:
                    flag(
                        "evolve-monotone", record, index,
                        f"evolve on {record.resource}: best cost rose from "
                        f"{history[gen - 1]} to {history[gen]} at "
                        f"generation {gen}",
                    )
                    break

    # Requests completed on a resource, mapped back through agent.local.
    completed_ids = set()
    local_by_task: Dict[Tuple[str, int], int] = {}
    for record in records:
        if record.kind == "agent.local":
            local_by_task[(record.agent, record.task_id)] = record.request_id
    for key in completed_requests:
        request_id = local_by_task.get(key)
        if request_id is not None:
            completed_ids.add(request_id)

    for index, dispatch in unready_dispatches:
        request_id = local_by_task.get((dispatch.resource, dispatch.task_id))
        if request_id in workflow_requests:
            violations.append(
                Violation(
                    "dispatch-after-inputs", dispatch.t, index,
                    f"workflow task {dispatch.task_id} (request "
                    f"{request_id}) dispatched on {dispatch.resource} "
                    "without a prior dag.ready record",
                )
            )

    for request_id, (ack_index, agent) in sorted(last_ack.items()):
        if request_id in resulted_requests or request_id in completed_ids:
            continue
        crashed_after = any(
            idx > ack_index for idx in downs_by_agent.get(agent, ())
        )
        if crashed_after:
            continue  # the ACKing agent died holding the forward: excused
        ack_record = records[ack_index]
        violations.append(
            Violation(
                "ack-resolution", ack_record.t, ack_index,
                f"request {request_id} ACKed by {agent} never completed "
                "and the portal recorded no result",
            )
        )

    for (agent, request_id), open_index in sorted(open_auctions.items()):
        open_record = records[open_index]
        violations.append(
            Violation(
                "bid-settles-or-times-out", open_record.t, open_index,
                f"auction for request {request_id} opened by {agent} "
                "never settled or timed out",
            )
        )

    for (agent, request_id), dead_index in sorted(death_releases_due.items()):
        dead_record = records[dead_index]
        violations.append(
            Violation(
                "reservation-released-on-death", dead_record.t, dead_index,
                f"{agent} still holds the window booked for request "
                f"{request_id} by a peer confirmed dead at record "
                f"#{dead_index}",
            )
        )

    violations.sort(key=lambda v: v.index)
    return violations
