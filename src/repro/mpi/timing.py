"""Virtual-time cost models for the simulated MPI substrate.

The paper's evaluation ran on an SGI Origin-2000 (hypercube cc-NUMA,
CRAY-link interconnect).  We do not have that machine; instead every rank of
the simulated cluster carries a *virtual clock*, and the functions here
decide how much virtual time each operation costs:

* compute grains are charged explicitly via :meth:`Communicator.work`
  (replacing the paper's dummy ``for`` loops),
* message transfers follow the classic alpha-beta (latency + size/bandwidth)
  model, plus small per-message CPU overheads on the sender and receiver
  (the "communication overhead" the thesis measures in section 5.4),
* collectives cost what their trees of point-to-point messages cost under
  the same model (:mod:`repro.mpi.collectives` replays those charges).

``ORIGIN2000`` is calibrated so that single-processor runtimes match the
paper's tables (those are pure ``grain x nodes x iterations``) and so that
fine-grained (0.3 ms) runs stop scaling around 8-16 processors, which is the
saturation the thesis observed.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, fields, is_dataclass
from math import ceil, log2
from typing import Any

__all__ = [
    "MachineModel",
    "TopologyMachineModel",
    "ORIGIN2000",
    "IDEAL",
    "ETHERNET_CLUSTER",
    "estimate_nbytes",
]

#: Nominal encoded size of a scalar (int/float/bool) in a message, bytes.
_SCALAR_NBYTES = 8

#: Flat per-container overhead used by :func:`estimate_nbytes`, bytes.
_CONTAINER_NBYTES = 16


def estimate_nbytes(obj: Any) -> int:
    """Estimate the wire size of a message payload in bytes.

    The estimate is intentionally simple and deterministic: scalars count 8
    bytes (as they would in the C structs the thesis commits with
    ``MPI_Type_struct``), containers add a small header plus their items,
    NumPy arrays report their true buffer size.  Anything unrecognized falls
    back to its pickle length, which is an upper bound on what a generic
    object transport would ship.
    """
    if obj is None:
        return 0
    if isinstance(obj, bool | int | float | complex):
        return _SCALAR_NBYTES
    if isinstance(obj, bytes | bytearray | memoryview):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):  # numpy arrays and friends
        return nbytes
    if isinstance(obj, tuple | list | set | frozenset):
        return _CONTAINER_NBYTES + sum(estimate_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return _CONTAINER_NBYTES + sum(
            estimate_nbytes(k) + estimate_nbytes(v) for k, v in obj.items()
        )
    if is_dataclass(obj) and not isinstance(obj, type):
        return _CONTAINER_NBYTES + sum(
            estimate_nbytes(getattr(obj, f.name)) for f in fields(obj)
        )
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return _CONTAINER_NBYTES


@dataclass(frozen=True)
class MachineModel:
    """Cost model for one simulated parallel machine.

    Parameters mirror the usual LogP-style decomposition:

    Attributes:
        name: Human-readable preset name.
        latency: One-way network latency per message, seconds (alpha).
        bandwidth: Link bandwidth, bytes/second (1/beta).
        send_overhead: CPU time charged to the *sender* per message
            (argument marshalling, descriptor setup).
        recv_overhead: CPU time charged to the *receiver* per message.
        per_byte_cpu: CPU pack/unpack cost per payload byte, charged on both
            ends on top of the overheads (the thesis's dominant
            "communication overhead" category scales with buffer length).
        barrier_latency: Per-tree-level cost of a barrier.
        heartbeat_interval: Period of the (piggybacked) liveness heartbeats
            the failure detector rides on, seconds of virtual time.
        heartbeat_miss: Consecutive missed heartbeats before a rank is
            suspected dead (the detector's timeout is
            ``heartbeat_interval * heartbeat_miss``).
        checksum_overhead: Fixed CPU cost of computing or verifying one
            message checksum (the integrity layer's transport tier).
        checksum_byte_cpu: Per-payload-byte CPU cost of checksumming
            (CRC-class throughput, slower than a plain copy).
        digest_overhead: Fixed CPU cost of digesting one node's committed
            state for the per-superstep partition digest.
        digest_byte_cpu: Per-byte CPU cost of the state digest.
        repair_overhead: Fixed bookkeeping cost of splicing a replica's
            value over a corrupted node (on top of the priced fetch).
    """

    name: str = "generic"
    latency: float = 20e-6
    bandwidth: float = 100e6
    send_overhead: float = 8e-6
    recv_overhead: float = 8e-6
    per_byte_cpu: float = 4e-9
    barrier_latency: float = 15e-6
    heartbeat_interval: float = 2e-3
    heartbeat_miss: int = 3
    checksum_overhead: float = 0.5e-6
    checksum_byte_cpu: float = 1.5e-9
    digest_overhead: float = 0.5e-6
    digest_byte_cpu: float = 1.5e-9
    repair_overhead: float = 2e-6

    def transfer_time(self, nbytes: int) -> float:
        """Network flight time of a message of ``nbytes`` payload bytes."""
        return self.latency + nbytes / self.bandwidth

    def sender_cpu(self, nbytes: int) -> float:
        """CPU time the sender spends injecting a message."""
        return self.send_overhead + nbytes * self.per_byte_cpu

    def receiver_cpu(self, nbytes: int) -> float:
        """CPU time the receiver spends draining a message."""
        return self.recv_overhead + nbytes * self.per_byte_cpu

    def transfer_time_between(self, nbytes: int, src: int, dest: int) -> float:
        """Flight time from rank ``src`` to ``dest``.

        The base model is topology-blind; :class:`TopologyMachineModel`
        overrides this with hop-distance-dependent latency.
        """
        return self.transfer_time(nbytes)

    def barrier_time(self, nprocs: int) -> float:
        """Cost of a barrier across ``nprocs`` ranks (log-tree dissemination)."""
        if nprocs <= 1:
            return 0.0
        return self.barrier_latency * ceil(log2(nprocs))

    def detection_time(self, nprocs: int) -> float:
        """Virtual time for ``nprocs`` survivors to agree a rank is dead.

        Two additive terms, both deterministic:

        * the local timeout -- ``heartbeat_miss`` consecutive heartbeat
          periods must elapse before any single rank suspects the failure;
        * a dissemination round -- survivors confirm the suspicion with a
          log-tree exchange of small (one scalar) control messages, each
          paying the usual alpha-beta + overhead cost.

        Every survivor charges the same amount, which keeps the detector
        schedule-independent: detection is a property of the *plan*, not of
        which host thread happened to notice first.
        """
        timeout = self.heartbeat_interval * self.heartbeat_miss
        if nprocs <= 1:
            return timeout
        rounds = ceil(log2(nprocs))
        per_round = (
            self.transfer_time(_SCALAR_NBYTES)
            + self.sender_cpu(_SCALAR_NBYTES)
            + self.receiver_cpu(_SCALAR_NBYTES)
        )
        return timeout + rounds * per_round

    def checksum_time(self, nbytes: int) -> float:
        """CPU time to compute (sender) or verify (receiver) a message
        checksum over ``nbytes`` of payload."""
        return self.checksum_overhead + nbytes * self.checksum_byte_cpu

    def digest_time(self, nbytes: int) -> float:
        """CPU time to digest ``nbytes`` of committed node state."""
        return self.digest_overhead + nbytes * self.digest_byte_cpu

    def retransmit_penalty(self, nbytes: int) -> float:
        """Virtual time one corrupted transmission attempt costs the
        receiver: verify the bad checksum, NACK the sender (one scalar
        control message at the usual alpha-beta + overhead price), and wait
        out the full retransmission of the payload.
        """
        nack = (
            self.sender_cpu(_SCALAR_NBYTES)
            + self.transfer_time(_SCALAR_NBYTES)
            + self.receiver_cpu(_SCALAR_NBYTES)
        )
        resend = self.sender_cpu(nbytes) + self.transfer_time(nbytes)
        return self.checksum_time(nbytes) + nack + resend

    def repair_time(self, nbytes: int) -> float:
        """CPU time to splice a replica's value over a corrupted node and
        re-digest it (the point-to-point fetch itself is priced through the
        normal message path)."""
        return self.repair_overhead + self.digest_time(nbytes)

    def ack_timeout(self, nbytes: int) -> float:
        """Default per-attempt ack timeout of a reliable-delivery layer.

        When fault injection drops messages, the sending communicator waits
        this long (virtual time) before resending -- unless the
        :class:`~repro.mpi.faults.RetryPolicy` pins an explicit timeout.
        The classic rule of thumb: a round trip plus a generous margin of
        per-message latencies.
        """
        return 2.0 * self.transfer_time(nbytes) + 8.0 * self.latency

    def with_overrides(self, **kwargs: Any) -> "MachineModel":
        """Return a copy of this model with selected fields replaced."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(kwargs)
        return MachineModel(**current)


@dataclass(frozen=True)
class TopologyMachineModel(MachineModel):
    """A machine whose message latency grows with interconnect distance.

    Wormhole-routed machines like the Origin-2000 hypercube add a modest
    per-hop latency; modelling it is what lets architecture-aware
    partitioners (PaGrid) convert a better part-to-processor *mapping* into
    actual runtime, which uniform-cost models hide.

    Attributes:
        distances: ``distances[src][dest]`` interconnect distance in hops
            (or weighted link cost); ranks beyond the table fall back to
            distance 1.
        hop_latency_factor: Extra latency fraction per hop beyond the first
            (0.35 means a 3-hop message pays 1.7x the base latency).
    """

    distances: tuple[tuple[float, ...], ...] = ()
    hop_latency_factor: float = 0.35

    @classmethod
    def wrap(
        cls,
        base: MachineModel,
        procgraph,
        hop_latency_factor: float = 0.35,
    ) -> "TopologyMachineModel":
        """Attach a processor network graph's distances to a base model.

        ``procgraph`` is anything with ``nprocs`` and ``distance(i, j)`` --
        in practice :class:`repro.partitioning.procgraph.ProcessorGraph`
        (taken duck-typed to keep this module free of upward imports).
        """
        p = procgraph.nprocs
        table = tuple(
            tuple(float(procgraph.distance(i, j)) for j in range(p)) for i in range(p)
        )
        values = {f.name: getattr(base, f.name) for f in fields(MachineModel)}
        values["name"] = f"{base.name}+topology"
        return cls(**values, distances=table, hop_latency_factor=hop_latency_factor)

    def hop_distance(self, src: int, dest: int) -> float:
        """Distance between two ranks (1 when outside the table)."""
        if src < len(self.distances) and dest < len(self.distances[src]):
            return self.distances[src][dest]
        return 1.0

    def transfer_time_between(self, nbytes: int, src: int, dest: int) -> float:
        hops = self.hop_distance(src, dest)
        scale = 1.0 + self.hop_latency_factor * max(0.0, hops - 1.0)
        return self.latency * scale + nbytes / self.bandwidth


#: Calibrated to the paper's SGI Origin-2000 results: ~20 us latency-class
#: interconnect with noticeable per-message software overhead, so 0.3 ms
#: grains stop scaling near p = 8..16 on 32..96-node graphs (Tables 2-6)
#: while 3 ms grains keep scaling (Figures 12/17).
ORIGIN2000 = MachineModel(
    name="origin2000",
    latency=30e-6,
    bandwidth=160e6,
    send_overhead=20e-6,
    recv_overhead=20e-6,
    per_byte_cpu=6e-9,
    barrier_latency=30e-6,
)

#: Zero-cost network: useful in unit tests to isolate compute accounting.
IDEAL = MachineModel(
    name="ideal",
    latency=0.0,
    bandwidth=float("inf"),
    send_overhead=0.0,
    recv_overhead=0.0,
    per_byte_cpu=0.0,
    barrier_latency=0.0,
    heartbeat_interval=0.0,
    checksum_overhead=0.0,
    checksum_byte_cpu=0.0,
    digest_overhead=0.0,
    digest_byte_cpu=0.0,
    repair_overhead=0.0,
)

#: A slower commodity-cluster profile for ablation studies.
ETHERNET_CLUSTER = MachineModel(
    name="ethernet",
    latency=60e-6,
    bandwidth=12.5e6,
    send_overhead=80e-6,
    recv_overhead=80e-6,
    per_byte_cpu=20e-9,
    barrier_latency=70e-6,
)
