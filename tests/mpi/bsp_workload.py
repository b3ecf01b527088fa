"""A raw-communicator BSP workload: BSPlib-flavoured supersteps over a
communicator, with their own checkpoint/rollback loop.

A step function computes locally and emits addressed messages; the loop
exchanges them (one combined message per destination rank, like BSPlib's
message combining, via ``alltoall``), votes with an ``allreduce`` and, when
the cluster's fault plan schedules crashes, rolls every rank back to a
pickled snapshot.  It touches no platform code, only the communicator, which
is why the scheduler, schedule-fuzz, checkpoint and process-backend suites
drive the substrate with it; ``tests/core/test_bsp.py`` also runs the
reference vertex engine on it.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

from repro.mpi.communicator import Communicator

BspMessage = tuple[int, Any]  # (destination rank, payload)

StepFn = Callable[[int, Any, list[Any], "Communicator"], tuple[Any, list[BspMessage], bool]]


def run_bsp(
    comm: Communicator,
    step_fn: StepFn,
    initial_state: Any,
    max_supersteps: int = 1000,
    checkpoint_every: int = 0,
) -> tuple[Any, int]:
    """Run BSP supersteps until global quiescence.

    Args:
        comm: The communicator.
        step_fn: ``(superstep, state, inbox, comm) -> (state, outgoing,
            active)``; ``outgoing`` is a list of ``(dest_rank, payload)``;
            ``active=False`` votes to halt.  Execution ends when every rank
            votes to halt AND no messages were sent in the superstep.
        initial_state: Rank-local starting state.
        max_supersteps: Safety bound.
        checkpoint_every: Snapshot ``(state, inbox)`` every this many
            supersteps (0 = only the pre-superstep-0 baseline).  When the
            cluster carries a :class:`~repro.mpi.faults.FaultPlan` with
            crash events (``iteration`` = 1-based superstep number), the
            loop rolls every rank back to the last snapshot and re-runs --
            the same coordinated recovery the platform layer performs.

    Returns:
        ``(final state, supersteps executed)`` -- the count is the logical
        superstep number, not inflated by crash-forced re-execution.
    """
    state = initial_state
    inbox: list[Any] = []

    fault_state = getattr(comm, "faults", None)
    plan = fault_state.plan if fault_state is not None else None
    has_crashes = plan is not None and bool(plan.crashes)
    snapshot: tuple[int, bytes] | None = None
    if has_crashes or checkpoint_every:
        snapshot = (0, pickle.dumps((state, inbox), protocol=pickle.HIGHEST_PROTOCOL))
    handled_crashes: set[tuple[int, int]] = set()

    superstep = 0
    while superstep < max_supersteps:
        if has_crashes:
            crashes = [
                c
                for c in plan.crashes_at(superstep + 1)
                if (c.rank, c.iteration) not in handled_crashes
            ]
            if crashes:
                for c in crashes:
                    handled_crashes.add((c.rank, c.iteration))
                    if c.rank == comm.rank and fault_state is not None:
                        fault_state.count_crash(comm.rank)
                # Noticing the failure is not free: every rank charges the
                # heartbeat-timeout + agreement-round latency the machine
                # model prices for this world size.
                comm.work(comm.machine.detection_time(comm.size))
                saved_superstep, payload = snapshot
                state, inbox = pickle.loads(payload)
                comm.barrier()
                superstep = saved_superstep
                continue
        state, outgoing, active = step_fn(superstep, state, inbox, comm)
        # Combine per destination (BSPlib-style) and exchange via alltoall,
        # which doubles as the superstep barrier.
        combined: list[list[Any]] = [[] for _ in range(comm.size)]
        for dest, payload in outgoing:
            combined[dest].append(payload)
        arrived = comm.alltoall(combined)
        inbox = [payload for batch in arrived for payload in batch]
        still_going = comm.allreduce(1 if (outgoing or active) else 0) > 0
        if not still_going:
            return state, superstep + 1
        if checkpoint_every and (superstep + 1) % checkpoint_every == 0:
            snapshot = (
                superstep + 1,
                pickle.dumps((state, inbox), protocol=pickle.HIGHEST_PROTOCOL),
            )
        superstep += 1
    return state, max_supersteps
