"""Schedule-fuzzing conformance suite.

The virtual-time substrate promises that results depend only on the program
and the (seeded) fault plan -- never on how the host happens to interleave
the rank threads.  These tests *attack* that promise: a ``schedule_seed``
makes the event scheduler hand the baton to a seeded draw from the runnable
ranks and preempt the running rank on a seeded coin at the runtime's
scheduling points (message delivery, receive waits, barrier entry, and the
batched neighbourhood exchange the fault-free runs take), and every run must
still be bit-identical -- virtual clocks, execution traces, and node
results.  A failing schedule replays alone from its seed.
"""

from __future__ import annotations

from repro.apps.average import make_average_fn
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import hex32
from repro.mpi import FaultPlan, IDEAL, run_mpi
from repro.partitioning import MetisLikePartitioner

from .bsp_workload import run_bsp

#: Distinct host schedules to try per scenario (10 per the conformance
#: spec): schedule seeds 0-9.
RUNS = 10


class TestBspScheduleFuzz:
    def test_bsp_program_is_schedule_independent(self):
        """The same BSP program under 10 perturbed host schedules produces
        bit-identical virtual clocks and states."""

        def prog(comm):
            def step(superstep, state, inbox, c):
                total = state + sum(inbox)
                out = [
                    ((c.rank + 1) % c.size, c.rank * 100 + superstep),
                    ((c.rank + 2) % c.size, superstep),
                ]
                c.work((c.rank + 1) * 1e-4)
                return total, out, superstep < 8
            final, steps = run_bsp(comm, step, 0, max_supersteps=12)
            return final, steps, comm.Wtime()

        reference = run_mpi(prog, 5, machine=IDEAL)
        for i in range(RUNS):
            fuzzed = run_mpi(prog, 5, machine=IDEAL, schedule_seed=i)
            assert fuzzed == reference, f"schedule {i} changed the results"

    def test_bsp_with_faults_is_schedule_independent(self):
        """Fault decisions are drawn per-rank in program order, so even a
        faulty run must not depend on the host schedule."""
        plan = FaultPlan.parse("seed=11,delay=0.2:0.002,drop=0.1,retry=12:1e-4,crash=1@4")

        def prog(comm):
            def step(superstep, state, inbox, c):
                out = [((c.rank + 1) % c.size, c.rank + superstep)]
                return state + sum(inbox), out, superstep < 6
            final, steps = run_bsp(
                comm, step, 0, max_supersteps=10, checkpoint_every=2
            )
            return final, steps, comm.Wtime()

        reference = run_mpi(prog, 4, faults=plan)
        for i in range(RUNS):
            fuzzed = run_mpi(prog, 4, faults=plan, schedule_seed=i)
            assert fuzzed == reference, f"schedule {i} changed the faulty run"


class TestPlatformScheduleFuzz:
    def test_platform_run_is_schedule_independent(self):
        """Full platform sweeps (shadow exchange + trace) under perturbed
        schedules: virtual clocks, traces, and node values all identical."""
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        config = PlatformConfig(iterations=4, track_trace=True)

        def run(seed=None):
            platform = ICPlatform(graph, make_average_fn(1e-4), config=config)
            return platform.run(partition, schedule_seed=seed)

        reference = run()
        for i in range(RUNS):
            fuzzed = run(seed=i)
            assert fuzzed.elapsed == reference.elapsed
            assert fuzzed.values == reference.values
            assert fuzzed.trace.records == reference.trace.records
            assert [p.as_dict() for p in fuzzed.phases] == [
                p.as_dict() for p in reference.phases
            ]

    def test_shrink_recovery_is_schedule_independent(self):
        """The acceptance scenario: a fixed seed and one permanent crash
        under the shrink policy.  The whole reconfiguration -- failure
        detection, communicator re-ranking, checkpoint hand-off,
        redistribution of the lost partition -- must be bit-identical
        across 10 perturbed host schedules, and the final node states must
        match the fault-free run exactly."""
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        plan = "seed=3,crash=2@5"

        def run(faults=None, seed=None):
            config = PlatformConfig(
                iterations=8,
                checkpoint_period=3,
                recovery_policy="shrink",
                track_trace=True,
            )
            platform = ICPlatform(graph, make_average_fn(1e-4), config=config)
            return platform.run(
                partition,
                faults=FaultPlan.parse(faults) if faults else None,
                schedule_seed=seed,
            )

        clean = run()
        reference = run(faults=plan)
        # Transparency vs fault-free is a BSP fact: shrink changes the
        # partition mid-run, and under hybrid execution the (converging)
        # trajectory is legitimately partition-dependent.  Schedule
        # independence below must hold in every mode.
        if PlatformConfig().execution == "bsp":
            assert reference.values == clean.values  # transparency
        assert reference.dead_ranks == (2,)
        assert reference.trace.reconfiguration_events()
        for i in range(RUNS):
            fuzzed = run(faults=plan, seed=i)
            assert fuzzed.elapsed == reference.elapsed
            assert fuzzed.values == reference.values
            assert fuzzed.final_assignment == reference.final_assignment
            assert fuzzed.trace.records == reference.trace.records
            assert (
                fuzzed.trace.reconfigurations == reference.trace.reconfigurations
            )
            assert [p.as_dict() for p in fuzzed.phases] == [
                p.as_dict() for p in reference.phases
            ]

    def test_integrity_repair_is_schedule_independent(self):
        """The silent-corruption acceptance scenario: message corruption on
        a checksummed link plus one boundary-node memory flip under full
        integrity protection.  Every injected corruption must be detected
        and healed (boundary flip from a shadow replica, without rollback),
        the final node states must be bit-identical to the fault-free run,
        and all of it must hold across 10 perturbed host schedules."""
        graph = hex32()
        partition = MetisLikePartitioner(seed=0).partition(graph, 4)
        # Lowest boundary node owned by rank 1: flips at a node with remote
        # neighbours exercise the replica-repair path.
        assignment = partition.assignment
        gid = next(
            g
            for g in sorted(graph.nodes())
            if assignment[g - 1] == 1
            and any(assignment[m - 1] != 1 for m in graph.neighbors(g))
        )
        plan = f"seed=11,flipmsg=0.05,flip=1@4:{gid}"

        def run(faults=None, seed=None):
            config = PlatformConfig(iterations=8, integrity="full", track_trace=True)
            platform = ICPlatform(graph, make_average_fn(1e-4), config=config)
            return platform.run(
                partition,
                faults=FaultPlan.parse(faults) if faults else None,
                schedule_seed=seed,
            )

        clean = run()
        reference = run(faults=plan)
        assert reference.values == clean.values  # zero silent escapes
        assert reference.repairs == 1
        assert reference.recoveries == 0  # surgical repair, no rollback
        report = reference.fault_report
        assert report.flips == 1 and report.repairs == 1
        assert report.corrupted > 0 and report.retransmits == report.corrupted
        events = reference.trace.integrity_events()
        assert [(e.gid, e.mode, e.iteration) for e in events] == [(gid, "repair", 4)]
        for i in range(RUNS):
            fuzzed = run(faults=plan, seed=i)
            assert fuzzed.elapsed == reference.elapsed
            assert fuzzed.values == reference.values
            assert fuzzed.trace.records == reference.trace.records
            assert fuzzed.trace.integrity == reference.trace.integrity
            assert [p.as_dict() for p in fuzzed.phases] == [
                p.as_dict() for p in reference.phases
            ]
