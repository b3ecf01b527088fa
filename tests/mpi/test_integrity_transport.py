"""Silent message corruption and the checksummed transport.

``flipmsg=PROB`` corrupts message payloads at the (virtual) wire.  On an
unprotected link the receiver silently consumes the corrupted value; on a
checksummed link (``SimCluster(checksums=True)``) the receiver's verify
step catches every corrupted attempt and pays for a NACK + retransmission
instead -- corruption costs virtual time, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.mpi import (
    FaultPlan,
    MessageFlipSpec,
    MessageLostError,
    ORIGIN2000,
    RetryPolicy,
    SimCluster,
    corrupt_value,
    state_digest,
)


class TestCorruptValue:
    def test_every_type_changes(self):
        @dataclass
        class Rec:
            a: int
            b: float

        values = [
            True,
            7,
            3.25,
            "hello",
            b"bytes",
            (1, 2, 3),
            [1.0, 2.0],
            {"k": 5, "j": 6},
            Rec(1, 2.0),
        ]
        for value in values:
            assert corrupt_value(value, 0) != value, value

    def test_deterministic_in_token(self):
        assert corrupt_value(1234, 7) == corrupt_value(1234, 7)
        # Different tokens flip different bits of a wide-enough int.
        assert corrupt_value(1 << 40, 1) != corrupt_value(1 << 40, 2)

    def test_float_stays_finite(self):
        import math

        for token in range(64):
            flipped = corrupt_value(100.0, token)
            assert math.isfinite(flipped)
            assert flipped != 100.0

    def test_digest_detects_corruption(self):
        value = {"unit": 3, "strength": 0.75}
        reference = state_digest(value)
        assert state_digest({"unit": 3, "strength": 0.75}) == reference
        assert state_digest(corrupt_value(value, 0)) != reference


class TestFlipPlanSpecs:
    def test_parse_flip_clauses(self):
        plan = FaultPlan.parse("seed=4,flipmsg=0.25,flip=1@5:37,flip=2@3")
        assert plan.flip_msg == MessageFlipSpec(prob=0.25)
        assert len(plan.flips) == 2
        assert plan.flips_at(5, rank=1)[0].node == 37
        assert plan.flips_at(3, rank=2)[0].node is None
        assert plan.flips_at(5, rank=2) == ()

    def test_describe_mentions_flips(self):
        text = FaultPlan.parse("flipmsg=0.25,flip=1@5:37").describe()
        assert "message flips 25%" in text and "flips node 37" in text

    def test_validate_ranks_rejects_flip_target(self):
        plan = FaultPlan.parse("flip=5@3")
        with pytest.raises(ValueError, match="rank 5"):
            plan.validate_ranks(4)

    def test_malformed_flip_rejected(self):
        with pytest.raises(ValueError, match="flip"):
            FaultPlan.parse("flip=bogus")
        with pytest.raises(ValueError, match="flipmsg"):
            FaultPlan.parse("flipmsg=2.0")


def _stream(nmsgs: int = 40):
    """Rank 0 streams floats to rank 1; returns what rank 1 received."""

    def fn(comm):
        if comm.rank == 0:
            for i in range(nmsgs):
                comm.send(float(i) * 1.5, 1, tag=1)
            return comm.Wtime()
        received = [comm.recv(source=0, tag=1) for _ in range(nmsgs)]
        return received, comm.Wtime()

    return fn


class TestChecksummedTransport:
    PLAN = "seed=8,flipmsg=0.3"

    def test_unprotected_link_delivers_corruption(self):
        fn = _stream()
        clean = SimCluster(2, machine=ORIGIN2000).run(fn)
        faulty = SimCluster(
            2, machine=ORIGIN2000, faults=FaultPlan.parse(self.PLAN)
        ).run(fn)
        assert faulty[1][0] != clean[1][0]  # silent escapes
        report = SimCluster(
            2, machine=ORIGIN2000, faults=FaultPlan.parse(self.PLAN)
        )
        report.run(fn)
        tally = report.fault_state.report()
        assert tally.corrupted > 0
        assert tally.retransmits == 0  # nothing noticed

    def test_checksums_absorb_corruption(self):
        fn = _stream()
        clean = SimCluster(2, machine=ORIGIN2000, checksums=True).run(fn)
        faulty_cluster = SimCluster(
            2,
            machine=ORIGIN2000,
            faults=FaultPlan.parse(self.PLAN),
            checksums=True,
        )
        faulty = faulty_cluster.run(fn)
        # Zero escapes: every payload arrives intact...
        assert faulty[1][0] == clean[1][0]
        # ...but the retransmissions cost virtual time on the receiver.
        assert faulty[1][1] > clean[1][1]
        tally = faulty_cluster.fault_state.report()
        assert tally.corrupted > 0
        assert tally.retransmits == tally.corrupted

    def test_checksum_verify_costs_time_even_fault_free(self):
        fn = _stream()
        plain = SimCluster(2, machine=ORIGIN2000).run(fn)
        checked = SimCluster(2, machine=ORIGIN2000, checksums=True).run(fn)
        assert checked[1][1] > plain[1][1]

    def test_all_attempts_corrupted_is_lost(self):
        plan = FaultPlan(
            seed=1,
            flip_msg=MessageFlipSpec(prob=1.0),
            retry=RetryPolicy(max_attempts=3, timeout=1e-4),
        )

        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1)
            else:
                comm.recv(source=0)

        with pytest.raises(MessageLostError):
            SimCluster(2, faults=plan, checksums=True).run(fn)

    def test_same_plan_same_clocks(self):
        fn = _stream()

        def run():
            return SimCluster(
                2,
                machine=ORIGIN2000,
                faults=FaultPlan.parse(self.PLAN),
                checksums=True,
            ).run(fn)

        assert run() == run()
