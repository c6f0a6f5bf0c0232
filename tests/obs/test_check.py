"""Tests for the trace invariant checker.

Each rule gets a minimal synthetic trace that violates exactly it, plus
the legitimate near-miss the rule must *not* flag — the checker is only
trustworthy if it is quiet on correct traces (the full-system fixture in
``tests/obs/test_live_traces.py`` covers that end-to-end).
"""

from __future__ import annotations

import pytest

from repro.obs.check import Violation, check_trace
from repro.obs.records import (
    AckSent,
    AgentDown,
    AgentUp,
    AuctionOpened,
    AuctionSettled,
    EventFired,
    EvolveStep,
    LocalSubmit,
    MemberDead,
    MessageSent,
    PortalResult,
    ReservationBooked,
    ReservationReleased,
    TaskCompleted,
    TaskDispatched,
    TaskQueued,
)


def _rules(violations):
    return [v.rule for v in violations]


class TestClockMonotone:
    def test_time_going_backwards_is_flagged(self):
        violations = check_trace([
            EventFired(t=5.0, label="a", priority=0, seq=0),
            EventFired(t=4.0, label="b", priority=0, seq=1),
        ])
        assert _rules(violations) == ["clock-monotone"]
        assert violations[0].index == 1

    def test_equal_times_are_fine(self):
        assert check_trace([
            EventFired(t=5.0, label="a", priority=0, seq=0),
            EventFired(t=5.0, label="b", priority=0, seq=1),
        ]) == []


class TestDispatchAfterQueue:
    def test_dispatch_without_queue_is_flagged(self):
        violations = check_trace([
            TaskDispatched(t=1.0, resource="S1", task_id=0, node_ids=(0,),
                           start=1.0, completion=2.0),
        ])
        assert _rules(violations) == ["dispatch-after-queue"]

    def test_start_before_arrival_is_flagged(self):
        violations = check_trace([
            TaskQueued(t=5.0, resource="S1", task_id=0),
            TaskDispatched(t=5.0, resource="S1", task_id=0, node_ids=(0,),
                           start=4.0, completion=9.0),
        ])
        assert "dispatch-after-queue" in _rules(violations)

    def test_start_before_decision_is_flagged(self):
        violations = check_trace([
            TaskQueued(t=1.0, resource="S1", task_id=0),
            TaskDispatched(t=5.0, resource="S1", task_id=0, node_ids=(0,),
                           start=2.0, completion=9.0),
        ])
        assert "dispatch-after-queue" in _rules(violations)

    def test_well_ordered_dispatch_is_quiet(self):
        assert check_trace([
            TaskQueued(t=1.0, resource="S1", task_id=0),
            TaskDispatched(t=5.0, resource="S1", task_id=0, node_ids=(0,),
                           start=5.0, completion=9.0),
        ]) == []


class TestSendAfterDown:
    def test_send_inside_down_window_is_flagged(self):
        violations = check_trace([
            AgentDown(t=1.0, agent="S4", endpoint="s4.grid:1003"),
            MessageSent(t=2.0, msg="pull", sender="s4.grid:1003",
                        recipient="s1.grid:1000", hops=0),
        ])
        assert _rules(violations) == ["send-after-down"]

    def test_send_after_restart_is_fine(self):
        assert check_trace([
            AgentDown(t=1.0, agent="S4", endpoint="s4.grid:1003"),
            AgentUp(t=3.0, agent="S4", endpoint="s4.grid:1003"),
            MessageSent(t=3.0, msg="pull", sender="s4.grid:1003",
                        recipient="s1.grid:1000", hops=0),
        ]) == []

    def test_other_senders_unaffected(self):
        assert check_trace([
            AgentDown(t=1.0, agent="S4", endpoint="s4.grid:1003"),
            MessageSent(t=2.0, msg="pull", sender="s1.grid:1000",
                        recipient="s2.grid:1001", hops=0),
        ]) == []


class TestAckResolution:
    def test_acked_but_never_resolved_is_flagged(self):
        violations = check_trace([
            AckSent(t=1.0, agent="S3", request_id=9, duplicate=False),
        ])
        assert _rules(violations) == ["ack-resolution"]
        assert "request 9" in violations[0].message

    def test_portal_result_resolves(self):
        assert check_trace([
            AckSent(t=1.0, agent="S3", request_id=9, duplicate=False),
            PortalResult(t=8.0, request_id=9, success=False, synthetic=True),
        ]) == []

    def test_completion_resolves_through_agent_local(self):
        assert check_trace([
            AckSent(t=1.0, agent="S3", request_id=9, duplicate=False),
            TaskQueued(t=1.0, resource="S3", task_id=4),
            LocalSubmit(t=1.0, agent="S3", request_id=9, task_id=4),
            TaskDispatched(t=1.0, resource="S3", task_id=4, node_ids=(0,),
                           start=1.0, completion=7.0),
            TaskCompleted(t=7.0, resource="S3", task_id=4, completion=7.0),
        ]) == []

    def test_acking_agent_crash_excuses(self):
        """The ACKer died holding the forward: silent loss is legitimate."""
        assert check_trace([
            AckSent(t=1.0, agent="S3", request_id=9, duplicate=False),
            AgentDown(t=2.0, agent="S3", endpoint="s3.grid:1002"),
        ]) == []

    def test_crash_before_the_ack_does_not_excuse(self):
        violations = check_trace([
            AgentDown(t=0.5, agent="S3", endpoint="s3.grid:1002"),
            AgentUp(t=0.8, agent="S3", endpoint="s3.grid:1002"),
            AckSent(t=1.0, agent="S3", request_id=9, duplicate=False),
        ])
        assert _rules(violations) == ["ack-resolution"]


class TestEvolveMonotone:
    def test_rising_best_cost_is_flagged(self):
        violations = check_trace([
            EvolveStep(t=1.0, resource="S1", n_tasks=2, generations=3,
                       best_cost=5.0, history=(4.0, 6.0, 5.0)),
        ])
        assert _rules(violations) == ["evolve-monotone"]

    def test_non_increasing_history_is_quiet(self):
        assert check_trace([
            EvolveStep(t=1.0, resource="S1", n_tasks=2, generations=3,
                       best_cost=3.0, history=(4.0, 4.0, 3.0)),
        ]) == []


class TestBidSettlesOrTimesOut:
    def test_abandoned_auction_is_flagged(self):
        violations = check_trace([
            AuctionOpened(t=1.0, agent="A1", request_id=7, hops=0, bidders=2),
        ])
        assert _rules(violations) == ["bid-settles-or-times-out"]
        assert "request 7" in violations[0].message

    @pytest.mark.parametrize("reason", ["all-bids", "timeout", "crash"])
    def test_settled_auction_is_quiet(self, reason):
        assert check_trace([
            AuctionOpened(t=1.0, agent="A1", request_id=7, hops=0, bidders=2),
            AuctionSettled(t=4.0, agent="A1", request_id=7, winner="A2",
                           estimate=9.0, reason=reason),
        ]) == []

    def test_reopen_while_unsettled_is_flagged(self):
        violations = check_trace([
            AuctionOpened(t=1.0, agent="A1", request_id=7, hops=0, bidders=2),
            AuctionOpened(t=2.0, agent="A1", request_id=7, hops=0, bidders=2),
            AuctionSettled(t=4.0, agent="A1", request_id=7, winner="A2",
                           estimate=9.0, reason="all-bids"),
        ])
        assert _rules(violations) == ["bid-settles-or-times-out"]
        assert violations[0].index == 1

    def test_settle_without_open_is_flagged(self):
        violations = check_trace([
            AuctionSettled(t=4.0, agent="A1", request_id=7, winner="A2",
                           estimate=9.0, reason="all-bids"),
        ])
        assert _rules(violations) == ["bid-settles-or-times-out"]

    def test_no_bidders_settlement_needs_no_open(self):
        """An immediate no-bidders settlement never opened a round."""
        assert check_trace([
            AuctionSettled(t=4.0, agent="A1", request_id=7, winner=None,
                           estimate=float("inf"), reason="no-bidders"),
        ]) == []

    def test_other_agents_round_stays_open(self):
        """Settlement is per-(agent, request): A2's round must not close A1's."""
        violations = check_trace([
            AuctionOpened(t=1.0, agent="A1", request_id=7, hops=0, bidders=2),
            AuctionOpened(t=1.5, agent="A2", request_id=7, hops=1, bidders=1),
            AuctionSettled(t=4.0, agent="A2", request_id=7, winner=None,
                           estimate=2.0, reason="all-bids"),
        ])
        assert _rules(violations) == ["bid-settles-or-times-out"]
        assert violations[0].index == 0


class TestNoOverlappingBookings:
    def test_double_booked_request_id_is_flagged(self):
        violations = check_trace([
            ReservationBooked(t=1.0, agent="A2", request_id=7, booker="A1",
                              start=10.0, end=20.0),
            ReservationBooked(t=2.0, agent="A2", request_id=7, booker="A1",
                              start=30.0, end=40.0),
        ])
        assert "no-overlapping-bookings" in _rules(violations)

    def test_overlapping_windows_are_flagged(self):
        violations = check_trace([
            ReservationBooked(t=1.0, agent="A2", request_id=7, booker="A1",
                              start=10.0, end=20.0),
            ReservationBooked(t=2.0, agent="A2", request_id=8, booker="A3",
                              start=15.0, end=25.0),
        ])
        assert _rules(violations) == ["no-overlapping-bookings"]
        assert "request 7" in violations[0].message

    def test_back_to_back_windows_are_quiet(self):
        assert check_trace([
            ReservationBooked(t=1.0, agent="A2", request_id=7, booker="A1",
                              start=10.0, end=20.0),
            ReservationBooked(t=2.0, agent="A2", request_id=8, booker="A3",
                              start=20.0, end=30.0),
        ]) == []

    def test_released_window_can_be_reused(self):
        assert check_trace([
            ReservationBooked(t=1.0, agent="A2", request_id=7, booker="A1",
                              start=10.0, end=20.0),
            ReservationReleased(t=3.0, agent="A2", request_id=7, booker="A1",
                                reason="declined"),
            ReservationBooked(t=4.0, agent="A2", request_id=8, booker="A3",
                              start=12.0, end=18.0),
        ]) == []

    def test_same_window_on_other_agent_is_fine(self):
        assert check_trace([
            ReservationBooked(t=1.0, agent="A2", request_id=7, booker="A1",
                              start=10.0, end=20.0),
            ReservationBooked(t=2.0, agent="A3", request_id=8, booker="A1",
                              start=10.0, end=20.0),
        ]) == []


class TestReservationReleasedOnDeath:
    def test_unreleased_dead_bookers_window_is_flagged(self):
        violations = check_trace([
            ReservationBooked(t=1.0, agent="A2", request_id=7, booker="A1",
                              start=10.0, end=20.0),
            MemberDead(t=5.0, agent="A2", peer="A1", silence=16.0),
        ])
        assert _rules(violations) == ["reservation-released-on-death"]
        assert violations[0].index == 1

    def test_release_after_death_is_quiet(self):
        assert check_trace([
            ReservationBooked(t=1.0, agent="A2", request_id=7, booker="A1",
                              start=10.0, end=20.0),
            MemberDead(t=5.0, agent="A2", peer="A1", silence=16.0),
            ReservationReleased(t=5.0, agent="A2", request_id=7, booker="A1",
                                reason="death"),
        ]) == []

    def test_release_before_death_is_quiet(self):
        assert check_trace([
            ReservationBooked(t=1.0, agent="A2", request_id=7, booker="A1",
                              start=10.0, end=20.0),
            ReservationReleased(t=3.0, agent="A2", request_id=7, booker="A1",
                                reason="consumed"),
            MemberDead(t=5.0, agent="A2", peer="A1", silence=16.0),
        ]) == []

    def test_living_bookers_window_survives_other_deaths(self):
        assert check_trace([
            ReservationBooked(t=1.0, agent="A2", request_id=7, booker="A1",
                              start=10.0, end=20.0),
            MemberDead(t=5.0, agent="A2", peer="A3", silence=16.0),
            ReservationReleased(t=8.0, agent="A2", request_id=7, booker="A1",
                                reason="consumed"),
        ]) == []


class TestViolationReporting:
    def test_str_is_informative(self):
        violation = Violation("clock-monotone", 4.0, 7, "went backwards")
        assert str(violation) == "[clock-monotone] t=4.000 #7: went backwards"

    def test_violations_sorted_by_record_index(self):
        violations = check_trace([
            AckSent(t=1.0, agent="S3", request_id=9, duplicate=False),
            EventFired(t=5.0, label="a", priority=0, seq=0),
            EventFired(t=4.0, label="b", priority=0, seq=1),
        ])
        assert [v.index for v in violations] == sorted(v.index for v in violations)


class TestDispatchAfterInputs:
    """The workflow precedence rule: inputs land before dispatch."""

    @staticmethod
    def _workflow_prefix(t=0.0):
        from repro.obs.records import DagReady, DagRelease

        return [
            DagRelease(t=t, workflow=0, node="sink", request_id=5),
            LocalSubmit(t=t, agent="S1", request_id=5, task_id=3),
            TaskQueued(t=t, resource="S1", task_id=3),
        ]

    def test_clean_staged_sequence_passes(self):
        from repro.obs.records import DagReady, DagTransfer

        assert check_trace(self._workflow_prefix() + [
            DagTransfer(t=4.0, agent="S1", workflow=0, node="sink",
                        source="S9", size=8.0),
            DagReady(t=4.0, resource="S1", task_id=3, workflow=0,
                     node="sink"),
            TaskDispatched(t=4.0, resource="S1", task_id=3, node_ids=(0,),
                           start=4.0, completion=9.0),
        ]) == []

    def test_dispatch_without_ready_is_flagged(self):
        violations = check_trace(self._workflow_prefix() + [
            TaskDispatched(t=1.0, resource="S1", task_id=3, node_ids=(0,),
                           start=1.0, completion=2.0),
        ])
        assert _rules(violations) == ["dispatch-after-inputs"]
        assert "without a prior dag.ready" in violations[0].message

    def test_independent_task_needs_no_ready(self):
        # No dag.release for the request: not a workflow task.
        assert check_trace([
            LocalSubmit(t=0.0, agent="S1", request_id=5, task_id=3),
            TaskQueued(t=0.0, resource="S1", task_id=3),
            TaskDispatched(t=1.0, resource="S1", task_id=3, node_ids=(0,),
                           start=1.0, completion=2.0),
        ]) == []

    def test_start_before_last_transfer_is_flagged(self):
        from repro.obs.records import DagReady, DagTransfer

        violations = check_trace(self._workflow_prefix() + [
            DagReady(t=0.0, resource="S1", task_id=3, workflow=0,
                     node="sink"),
            DagTransfer(t=4.0, agent="S1", workflow=0, node="sink",
                        source="S9", size=8.0),
            TaskDispatched(t=4.0, resource="S1", task_id=3, node_ids=(0,),
                           start=2.0, completion=9.0),
        ])
        # Three breaches: the transfer arrived after ready, the start
        # predates the dispatch decision (dispatch-after-queue), and the
        # start predates the input's arrival.
        assert _rules(violations) == [
            "dispatch-after-inputs",
            "dispatch-after-queue",
            "dispatch-after-inputs",
        ]
        assert "before its last input arrived" in violations[2].message

    def test_transfer_after_ready_is_flagged(self):
        from repro.obs.records import DagReady, DagTransfer

        violations = check_trace(self._workflow_prefix() + [
            DagReady(t=2.0, resource="S1", task_id=3, workflow=0,
                     node="sink"),
            DagTransfer(t=4.0, agent="S1", workflow=0, node="sink",
                        source="S9", size=8.0),
        ])
        assert _rules(violations) == ["dispatch-after-inputs"]
        assert "after the task was declared ready" in violations[0].message

    def test_duplicate_ready_is_flagged(self):
        from repro.obs.records import DagReady

        violations = check_trace(self._workflow_prefix() + [
            DagReady(t=2.0, resource="S1", task_id=3, workflow=0,
                     node="sink"),
            DagReady(t=3.0, resource="S1", task_id=3, workflow=0,
                     node="sink"),
        ])
        assert _rules(violations) == ["dispatch-after-inputs"]
        assert "declared ready twice" in violations[0].message


class TestRuleTable:
    def test_observability_doc_matches_code(self):
        from pathlib import Path

        from repro.obs.check import rule_table

        doc = (
            Path(__file__).resolve().parents[2] / "docs" / "observability.md"
        ).read_text(encoding="utf-8")
        begin, end = "<!-- checker-rules:begin -->\n", "\n<!-- checker-rules:end -->"
        embedded = doc[doc.index(begin) + len(begin):doc.index(end)]
        assert embedded == rule_table(), (
            "docs/observability.md checker-rule table is stale; regenerate it "
            "from repro.obs.check.rule_table()"
        )

    def test_every_rule_is_enforced_and_every_flag_registered(self):
        import inspect
        import re

        from repro.obs import check

        source = inspect.getsource(check.check_trace)
        flagged = set(re.findall(r'"([a-z]+(?:-[a-z]+)+)",\s', source))
        assert flagged == set(check.RULES)

    def test_unregistered_rule_is_refused(self):
        with pytest.raises(ValueError, match="unregistered"):
            Violation("made-up-rule", 0.0, 0, "nothing")
