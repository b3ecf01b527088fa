"""Exception types raised by the simulated MPI runtime."""

from __future__ import annotations


class MPIError(Exception):
    """Base class for all simulated-MPI errors."""


class InvalidRankError(MPIError):
    """A rank outside ``[0, size)`` was used as a source or destination."""


class InvalidTagError(MPIError):
    """A negative tag was used on a send."""


class DeadlockError(MPIError):
    """Every live rank is blocked and no message can make progress.

    Detection is exact on both schedulers, never timed: ``event`` raises the
    moment a rank blocks (or finishes) with an empty run queue while
    unfinished ranks remain, ``process`` the moment every unfinished worker
    is parked in the broker -- sends are eager, so nothing is in flight.
    """


def blocked_recv_text(rank: int, source: int, tag: int) -> str:
    """The :class:`DeadlockError` text of a rank stuck in a named receive
    (one wording for every backend: the reports are compared byte for byte)."""
    return f"deadlock: rank {rank} waiting on (source={source}, tag={tag}) with all ranks blocked"


def blocked_collective_text(rank: int, name: str) -> str:
    """The :class:`DeadlockError` text of a group stuck in collective
    ``name`` (a barrier included); ``rank`` is the lowest member that
    entered it, so every backend and schedule names the same one."""
    return f"deadlock: rank {rank} stuck in {name}"


class CommAbortedError(MPIError):
    """The cluster was aborted (peer raised, or ``Communicator.abort``)."""


class ShrinkError(MPIError):
    """``Communicator.shrink`` was called with an invalid dead-rank set
    (empty, out of range, or covering every member of the group)."""


class MessageLostError(MPIError):
    """A message was dropped by fault injection and the sender exhausted its
    retry budget (:class:`~repro.mpi.faults.RetryPolicy`) without getting a
    transmission through."""


class UnsupportedBackendError(MPIError):
    """A requested feature cannot run on the selected execution backend.

    The multiprocess backend (``scheduler="process"``) cannot take a
    ``schedule_seed`` (the seeded run queue is the event scheduler's) or
    run on a platform without ``fork``.  Its constructor raises this at
    cluster construction, before any worker forks; every store kind and
    node value runs on both backends."""
