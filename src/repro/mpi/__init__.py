"""Virtual-time simulated MPI substrate.

This package stands in for the real MPI library + SGI Origin-2000 testbed of
the thesis.  It provides:

* :class:`SimCluster` / :func:`run_mpi` -- ``mpirun``-style execution of a
  Python function on N simulated ranks, driven by a pluggable execution
  backend (``scheduler="event"`` for cooperative event-driven switching
  with exact deadlock detection -- the default, and with a
  ``schedule_seed`` the schedule fuzzer -- or ``"process"`` for one worker
  OS process per rank, each message piped through a parent broker),
* :class:`Communicator` -- an mpi4py-flavoured API (``send``/``recv``/
  ``isend``/``irecv``/``bcast``/``gather``/``barrier``/``Wtime``) whose costs
  are charged to deterministic per-rank *virtual clocks*,
* :class:`MachineModel` -- the alpha-beta communication cost model with an
  ``ORIGIN2000`` preset calibrated to the paper's tables,
* derived-datatype emulation for exact wire-size accounting.

Quick example::

    from repro.mpi import run_mpi

    def hello(comm):
        comm.work(1e-3)                      # 1 ms of "computation"
        total = comm.allreduce(comm.rank)
        return comm.Wtime(), total

    results = run_mpi(hello, nprocs=4)
"""

from .communicator import ANY_SOURCE, ANY_TAG, Communicator
from .datatypes import CHAR, DOUBLE, INT, Datatype, StructType
from .errors import (
    CommAbortedError,
    DeadlockError,
    InvalidRankError,
    InvalidTagError,
    MessageLostError,
    MPIError,
    ShrinkError,
    UnsupportedBackendError,
)
from .failure import DetectedFailure, FailureDetector
from .faults import (
    CrashEvent,
    DelaySpec,
    DropSpec,
    FaultPlan,
    FaultReport,
    FaultState,
    MemoryFlipEvent,
    MessageFlipSpec,
    RetryPolicy,
    SlowWindow,
    corrupt_value,
    state_digest,
)
from .message import Mailbox, Message, RecvRequest, Request, SendRequest, Status
from .runtime import RankState, SimCluster, run_mpi
from .scheduler import (
    SCHEDULERS,
    EventScheduler,
    SchedulerBackend,
)
from .timing import (
    ETHERNET_CLUSTER,
    IDEAL,
    ORIGIN2000,
    MachineModel,
    TopologyMachineModel,
    estimate_nbytes,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CHAR",
    "Communicator",
    "CommAbortedError",
    "CrashEvent",
    "Datatype",
    "DeadlockError",
    "DelaySpec",
    "DetectedFailure",
    "DropSpec",
    "DOUBLE",
    "ETHERNET_CLUSTER",
    "EventScheduler",
    "FailureDetector",
    "FaultPlan",
    "FaultReport",
    "FaultState",
    "IDEAL",
    "INT",
    "InvalidRankError",
    "InvalidTagError",
    "MachineModel",
    "Mailbox",
    "MemoryFlipEvent",
    "Message",
    "MessageFlipSpec",
    "MessageLostError",
    "MPIError",
    "ORIGIN2000",
    "RankState",
    "RetryPolicy",
    "SCHEDULERS",
    "SchedulerBackend",
    "SlowWindow",
    "RecvRequest",
    "Request",
    "SendRequest",
    "ShrinkError",
    "SimCluster",
    "Status",
    "StructType",
    "TopologyMachineModel",
    "UnsupportedBackendError",
    "corrupt_value",
    "estimate_nbytes",
    "run_mpi",
    "state_digest",
]
