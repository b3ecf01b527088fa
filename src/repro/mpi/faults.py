"""Deterministic fault injection for the virtual-time MPI substrate.

The paper's platform assumes a reliable Origin-2000 interconnect; a
production-scale runtime has to survive slow ranks, delayed or lost
messages, and whole-rank crashes.  On the virtual-time simulator failure can
be a *first-class, reproducible input*: a seeded :class:`FaultPlan`
describes every perturbation, and identical plans produce bit-identical
virtual clocks, traces, and results -- which is what makes robustness
regressions testable.

Five fault families are supported:

* **message delays** (:class:`DelaySpec`) -- with probability ``prob`` a
  message's flight time gains ``extra`` virtual seconds;
* **message drops** (:class:`DropSpec` + :class:`RetryPolicy`) -- with
  probability ``prob`` a transmission attempt is lost; the sending
  communicator waits out an ack timeout (exponential backoff) and resends,
  up to ``max_attempts`` transmissions, then raises
  :class:`~repro.mpi.errors.MessageLostError`;
* **transient slow ranks** (:class:`SlowWindow`) -- a rank's compute and
  per-message CPU charges are scaled by ``factor`` while its virtual clock
  is inside ``[start, end)``;
* **rank crashes** (:class:`CrashEvent`) -- a rank dies at the start of a
  chosen iteration/superstep; the platform's checkpoint/restart layer
  (:mod:`repro.core.checkpoint`) rolls every rank back to the last
  checkpoint and re-runs, charging the recovery to the virtual clocks;
* **silent data corruption** (:class:`MessageFlipSpec`,
  :class:`MemoryFlipEvent`) -- transient bit-flip faults.  A message flip
  corrupts a transmission attempt's payload in flight (absorbed by the
  transport's checksum/NACK/retransmit path when checksums are enabled,
  silently delivered otherwise); a memory flip corrupts one committed node
  value on a chosen rank at the start of a chosen iteration (detected and
  repaired by the platform's integrity layer, :mod:`repro.core.integrity`).

Randomized decisions (drop, delay) are drawn from *per-rank* PRNG streams
seeded from ``(plan seed, rank)``.  Each rank draws in its own program
order, so outcomes are independent of host-thread scheduling -- the same
FIFO-determinism argument the runtime makes for message matching.

A plan can be written as a compact spec string (the CLI's ``--faults``
flag)::

    seed=42,delay=0.05:0.002,drop=0.01,retry=6:0.001:2.0,slow=1:3.0:0.0:0.5,crash=2@40

See :meth:`FaultPlan.parse` for the clause grammar.
"""

from __future__ import annotations

import pickle
import random
import struct
import zlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, NamedTuple

__all__ = [
    "DelaySpec",
    "DropSpec",
    "RetryPolicy",
    "SlowWindow",
    "CrashEvent",
    "MessageFlipSpec",
    "MemoryFlipEvent",
    "FaultPlan",
    "FaultState",
    "FaultReport",
    "SendFate",
    "corrupt_value",
    "state_digest",
]


def state_digest(value: Any) -> int:
    """Deterministic digest of a committed value (CRC-32 over its pickle).

    Used both by the checksummed transport model and by the platform's
    per-superstep partition digests: any single corrupt_value() flip changes
    the digest, so a digest mismatch is a reliable corruption detector.
    """
    try:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        blob = repr(value).encode("utf-8", errors="replace")
    return zlib.crc32(blob)


def corrupt_value(value: Any, token: int = 0) -> Any:
    """Deterministically bit-flip a value (the silent-corruption model).

    ``token`` selects which bit/element flips, so successive corruptions of
    the same value differ while staying reproducible.  Floats flip one
    mantissa bit (finite stays finite), ints flip one low bit, containers
    and dataclasses corrupt one element recursively; anything unrecognized
    is wrapped in a sentinel tuple so the result always differs from the
    original.
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ (1 << (token % 32))
    if isinstance(value, float):
        bits = struct.unpack("<Q", struct.pack("<d", value))[0]
        bits ^= 1 << (token % 52)  # mantissa-only: finite stays finite
        return struct.unpack("<d", struct.pack("<Q", bits))[0]
    if isinstance(value, str):
        if not value:
            return "\x00"
        i = token % len(value)
        return value[:i] + chr(ord(value[i]) ^ 1) + value[i + 1 :]
    if isinstance(value, bytes | bytearray):
        if not value:
            return b"\x00"
        out = bytearray(value)
        out[token % len(out)] ^= 1
        return bytes(out) if isinstance(value, bytes) else out
    if isinstance(value, tuple | list) and value:
        i = token % len(value)
        items = list(value)
        items[i] = corrupt_value(items[i], token)
        return type(value)(items)
    if isinstance(value, dict) and value:
        key = list(value)[token % len(value)]
        out = dict(value)
        out[key] = corrupt_value(out[key], token)
        return out
    if is_dataclass(value) and not isinstance(value, type):
        names = [f.name for f in fields(value)]
        if names:
            name = names[token % len(names)]
            return replace(
                value, **{name: corrupt_value(getattr(value, name), token)}
            )
    return ("__bitflip__", token, value)


@dataclass(frozen=True)
class DelaySpec:
    """Random message-delay fault.

    Attributes:
        prob: Per-message probability of the delay firing.
        extra: Extra virtual flight seconds added when it does.
    """

    prob: float
    extra: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"delay prob must be in [0, 1], got {self.prob}")
        if self.extra < 0:
            raise ValueError(f"delay extra must be >= 0, got {self.extra}")


@dataclass(frozen=True)
class DropSpec:
    """Random message-loss fault.

    Attributes:
        prob: Per-*transmission-attempt* probability of the attempt being
            lost (retries redraw).
    """

    prob: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"drop prob must be in [0, 1], got {self.prob}")


@dataclass(frozen=True)
class RetryPolicy:
    """Send-side reliable-delivery policy used when drops are enabled.

    Attributes:
        max_attempts: Total transmissions allowed per message (first send
            plus retries); exhausting them raises
            :class:`~repro.mpi.errors.MessageLostError`.
        timeout: Ack timeout charged before each resend, seconds.  ``None``
            uses the machine model's :meth:`~repro.mpi.timing.MachineModel.
            ack_timeout` for the message size.
        backoff: Timeout multiplier applied per successive retry
            (exponential backoff).
    """

    max_attempts: int = 6
    timeout: float | None = None
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")

    def attempt_timeout(self, attempt: int, base: float) -> float:
        """Ack timeout before the ``attempt``-th retry (1-based)."""
        timeout = base if self.timeout is None else self.timeout
        return timeout * self.backoff ** (attempt - 1)


@dataclass(frozen=True)
class SlowWindow:
    """A transient slow rank: CPU charges scaled while the clock is in a
    virtual-time window.

    Attributes:
        rank: The affected world rank.
        factor: Multiplier (>= 1) on compute grains and per-message CPU
            overheads charged while active.
        start: Window start, virtual seconds (inclusive).
        end: Window end, virtual seconds (exclusive); ``None`` = rest of
            the run.

    A charge is scaled when it *starts* inside the window; charges are not
    split at the boundary.
    """

    rank: int
    factor: float
    start: float = 0.0
    end: float | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.factor < 1.0:
            raise ValueError(f"slow factor must be >= 1, got {self.factor}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(f"window end {self.end} must exceed start {self.start}")

    def active(self, clock: float) -> bool:
        """Whether the window covers the given virtual time."""
        return clock >= self.start and (self.end is None or clock < self.end)


@dataclass(frozen=True)
class CrashEvent:
    """A whole-rank crash at the start of a chosen iteration.

    The platform's recovery loop (not the MPI layer) consumes these: every
    rank sees the same plan, detects the crash at the same deterministic
    point, and rolls back to the last checkpoint collectively.

    Attributes:
        rank: The crashing world rank.
        iteration: 1-based platform iteration (or BSP superstep) at whose
            start the rank dies.
    """

    rank: int
    iteration: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.iteration < 1:
            raise ValueError(f"iteration must be >= 1, got {self.iteration}")


@dataclass(frozen=True)
class MessageFlipSpec:
    """Random in-flight message-payload corruption (silent data corruption).

    With probability ``prob`` a *transmission attempt*'s payload is flipped.
    On a checksummed transport (``SimCluster(checksums=True)``) the receiver
    detects the mismatch, NACKs, and the attempt is retransmitted (redrawing
    the flip decision) -- corruption costs virtual time but never escapes.
    On an unprotected transport the corrupted payload is silently delivered.

    Attributes:
        prob: Per-transmission-attempt probability of the payload flipping.
    """

    prob: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"flipmsg prob must be in [0, 1], got {self.prob}")


@dataclass(frozen=True)
class MemoryFlipEvent:
    """One in-memory node-state corruption at a chosen rank/iteration.

    At the start of iteration ``iteration`` the owning rank's *committed*
    value of one node is flipped, bypassing the normal commit path -- a
    model of an undetected DRAM/SEU upset between supersteps.  Only the
    owner applies the flip; detection is the integrity layer's job (digest
    mismatch), never a read of the plan by other ranks.

    Attributes:
        rank: The affected world rank.
        iteration: 1-based platform iteration at whose start the bit flips.
        node: 1-based global node id to corrupt, or ``None`` to corrupt the
            rank's lowest-numbered owned node (deterministic either way).
    """

    rank: int
    iteration: int
    node: int | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.iteration < 1:
            raise ValueError(f"iteration must be >= 1, got {self.iteration}")
        if self.node is not None and self.node < 1:
            raise ValueError(f"node id must be >= 1, got {self.node}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of every fault in a run.

    Attributes:
        seed: Seeds the per-rank decision streams; two runs with the same
            plan (and program) are bit-identical.
        delay: Message-delay fault, or None.
        drop: Message-loss fault, or None.
        retry: Reliable-delivery policy used when ``drop`` is set.
        slow: Transient slow-rank windows.
        crashes: Scheduled whole-rank crashes.
        flip_msg: Message-payload corruption fault, or None.
        flips: Scheduled in-memory node-state corruptions.
    """

    seed: int = 0
    delay: DelaySpec | None = None
    drop: DropSpec | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    slow: tuple[SlowWindow, ...] = ()
    crashes: tuple[CrashEvent, ...] = ()
    flip_msg: MessageFlipSpec | None = None
    flips: tuple[MemoryFlipEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in ("slow", "crashes", "flips"):  # lists passed by hand
            object.__setattr__(self, name, tuple(getattr(self, name)))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def crashes_at(self, iteration: int) -> tuple[CrashEvent, ...]:
        """Crash events scheduled for the given 1-based iteration."""
        return tuple(e for e in self.crashes if e.iteration == iteration)

    def flips_at(self, iteration: int, rank: int | None = None) -> tuple[
        MemoryFlipEvent, ...
    ]:
        """Memory-flip events for the given iteration (optionally one rank)."""
        return tuple(
            e
            for e in self.flips
            if e.iteration == iteration and (rank is None or e.rank == rank)
        )

    def validate_ranks(self, nprocs: int) -> None:
        """Reject rank-targeted faults aimed at ranks that do not exist.

        A crash aimed at a nonexistent rank would otherwise still trigger a
        collective rollback (every rank reads the plan) while the fault
        report counts zero crashes -- a silently inconsistent run.
        """
        for kind, events in (("crash", self.crashes), ("slow", self.slow), ("flip", self.flips)):
            for e in events:
                if not 0 <= e.rank < nprocs:
                    raise ValueError(f"{kind} rank {e.rank} out of range for {nprocs} ranks")

    def compute_scale(self, rank: int, clock: float) -> float:
        """CPU-charge multiplier for ``rank`` at virtual time ``clock``."""
        scale = 1.0
        for window in self.slow:
            if window.rank == rank and window.active(clock):
                scale *= window.factor
        return scale

    @property
    def perturbs_messages(self) -> bool:
        """Whether any per-message fault (delay/drop/flip) is configured."""
        return (
            self.delay is not None
            or self.drop is not None
            or self.flip_msg is not None
        )

    def with_overrides(self, **kwargs: Any) -> "FaultPlan":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Spec strings
    # ------------------------------------------------------------------ #

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact spec string.

        Comma-separated clauses (whitespace ignored):

        * ``seed=N``
        * ``delay=PROB[:EXTRA]`` -- extra flight seconds (default 1 ms)
        * ``drop=PROB``
        * ``retry=MAX[:TIMEOUT[:BACKOFF]]`` -- ``TIMEOUT`` may be the word
          ``none`` for the machine model's adaptive ack timeout
        * ``slow=RANK:FACTOR[:START[:END]]`` -- virtual-second window
        * ``crash=RANK@ITERATION`` (repeatable)
        * ``flipmsg=PROB`` -- per-attempt message-payload corruption
        * ``flip=RANK@ITERATION[:NODE]`` -- memory corruption (repeatable)

        Raises:
            ValueError: On an unknown clause or malformed value.
        """
        seed = 0
        delay: DelaySpec | None = None
        drop: DropSpec | None = None
        retry = RetryPolicy()
        slow: list[SlowWindow] = []
        crashes: list[CrashEvent] = []
        flip_msg: MessageFlipSpec | None = None
        flips: list[MemoryFlipEvent] = []
        for raw in spec.replace(";", ",").split(","):
            clause = raw.strip()
            if not clause:
                continue
            key, sep, value = clause.partition("=")
            if not sep:
                raise ValueError(f"fault clause {clause!r} is not key=value")
            key = key.strip().lower()
            value = value.strip()
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "delay":
                    parts = value.split(":")
                    delay = DelaySpec(
                        prob=float(parts[0]),
                        extra=float(parts[1]) if len(parts) > 1 else 1e-3,
                    )
                elif key == "drop":
                    drop = DropSpec(prob=float(value))
                elif key == "retry":
                    parts = value.split(":")
                    timeout: float | None = None
                    if len(parts) > 1 and parts[1].lower() != "none":
                        timeout = float(parts[1])
                    retry = RetryPolicy(
                        max_attempts=int(parts[0]),
                        timeout=timeout,
                        backoff=float(parts[2]) if len(parts) > 2 else 2.0,
                    )
                elif key == "slow":
                    parts = value.split(":")
                    if len(parts) < 2:
                        raise ValueError("slow needs RANK:FACTOR")
                    slow.append(
                        SlowWindow(
                            rank=int(parts[0]),
                            factor=float(parts[1]),
                            start=float(parts[2]) if len(parts) > 2 else 0.0,
                            end=float(parts[3]) if len(parts) > 3 else None,
                        )
                    )
                elif key == "crash":
                    rank_s, sep2, iter_s = value.partition("@")
                    if not sep2:
                        raise ValueError("crash needs RANK@ITERATION")
                    crashes.append(
                        CrashEvent(rank=int(rank_s), iteration=int(iter_s))
                    )
                elif key == "flipmsg":
                    flip_msg = MessageFlipSpec(prob=float(value))
                elif key == "flip":
                    rank_s, sep2, rest = value.partition("@")
                    if not sep2:
                        raise ValueError("flip needs RANK@ITERATION[:NODE]")
                    iter_s, sep3, node_s = rest.partition(":")
                    flips.append(
                        MemoryFlipEvent(
                            rank=int(rank_s),
                            iteration=int(iter_s),
                            node=int(node_s) if sep3 else None,
                        )
                    )
                else:
                    raise ValueError(f"unknown fault clause key {key!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"bad fault clause {clause!r}: {exc}") from None
        return cls(
            seed=seed,
            delay=delay,
            drop=drop,
            retry=retry,
            slow=tuple(slow),
            crashes=tuple(crashes),
            flip_msg=flip_msg,
            flips=tuple(flips),
        )

    def to_spec(self) -> str:
        """Render the plan as a canonical spec string.

        The inverse of :meth:`parse`: for every plan,
        ``FaultPlan.parse(plan.to_spec()) == plan``.  Float values are
        rendered with :func:`repr`, which round-trips exactly.
        """
        parts = [f"seed={self.seed}"]
        if self.delay is not None:
            parts.append(f"delay={self.delay.prob!r}:{self.delay.extra!r}")
        if self.drop is not None:
            parts.append(f"drop={self.drop.prob!r}")
        if self.retry != RetryPolicy():
            timeout = "none" if self.retry.timeout is None else repr(self.retry.timeout)
            parts.append(
                f"retry={self.retry.max_attempts}:{timeout}:{self.retry.backoff!r}"
            )
        for w in self.slow:
            clause = f"slow={w.rank}:{w.factor!r}:{w.start!r}"
            if w.end is not None:
                clause += f":{w.end!r}"
            parts.append(clause)
        for c in self.crashes:
            parts.append(f"crash={c.rank}@{c.iteration}")
        if self.flip_msg is not None:
            parts.append(f"flipmsg={self.flip_msg.prob!r}")
        for e in self.flips:
            clause = f"flip={e.rank}@{e.iteration}"
            if e.node is not None:
                clause += f":{e.node}"
            parts.append(clause)
        return ",".join(parts)

    def describe(self) -> str:
        """One-line human-readable summary of the plan."""
        parts = [f"seed={self.seed}"]
        if self.delay is not None:
            parts.append(f"delay {self.delay.prob:.0%} (+{self.delay.extra * 1e3:g}ms)")
        if self.drop is not None:
            parts.append(
                f"drop {self.drop.prob:.0%} (<= {self.retry.max_attempts} attempts)"
            )
        for w in self.slow:
            window = "" if w.end is None else f" until t={w.end:g}s"
            parts.append(f"rank {w.rank} slow x{w.factor:g} from t={w.start:g}s{window}")
        for c in self.crashes:
            parts.append(f"rank {c.rank} crashes at iteration {c.iteration}")
        if self.flip_msg is not None:
            parts.append(f"message flips {self.flip_msg.prob:.0%}")
        for e in self.flips:
            node = "lowest owned node" if e.node is None else f"node {e.node}"
            parts.append(f"rank {e.rank} flips {node} at iteration {e.iteration}")
        return ", ".join(parts)


@dataclass
class FaultReport:
    """Fault activity of one run, summed across ranks (a run's
    :class:`FaultState` keeps one per rank).

    Attributes:
        messages: Point-to-point messages injected while faults were armed.
        delayed: Messages whose flight time was perturbed.
        dropped: Transmission attempts that were lost.
        retries: Resends performed by the reliable-delivery layer.
        lost: Messages abandoned after exhausting the retry budget.
        crashes: Crash events consumed by the recovery layer.
        corrupted: Transmission attempts whose payload was flipped.
        retransmits: Resends triggered by a checksum NACK (counted on the
            receiving side, where the verify-and-retransmit path runs).
        flips: In-memory node-state corruptions applied.
        repairs: Corrupted nodes surgically repaired from a replica.
    """

    messages: int = 0
    delayed: int = 0
    dropped: int = 0
    retries: int = 0
    lost: int = 0
    crashes: int = 0
    corrupted: int = 0
    retransmits: int = 0
    flips: int = 0
    repairs: int = 0

    def add(self, counts: dict[str, int]) -> None:
        """Add another tally, given as ``field -> count``."""
        for name, count in counts.items():
            setattr(self, name, getattr(self, name) + count)

    def summary(self) -> str:
        """Human-readable one-liner for CLI output."""
        line = (
            f"{self.messages} messages: {self.delayed} delayed, "
            f"{self.dropped} attempts dropped ({self.retries} retries, "
            f"{self.lost} lost), {self.crashes} crashes"
        )
        if self.corrupted or self.retransmits or self.flips or self.repairs:
            line += (
                f"; integrity: {self.corrupted} attempts corrupted "
                f"({self.retransmits} retransmits), {self.flips} memory flips "
                f"({self.repairs} repaired from replicas)"
            )
        return line


class SendFate(NamedTuple):
    """The fault decisions of one message, drawn on its sender.  The draws
    depend on neither clocks nor payload bytes, so a sender can make them
    before charging anything, and a collective's members before it starts.

    Attributes:
        drops: Lost attempts, each charged an ack timeout and a resend.
        extra: Extra flight seconds (delay fault).
        corrupt: Attempts the receiver's verify NACKs (checksummed link).
        token: On an unprotected link, the :func:`corrupt_value` token the
            delivered payload is flipped with; ``None`` when it arrives intact.
        lost: The :class:`~repro.mpi.errors.MessageLostError` text once the
            retry budget runs out (``drops`` then counts the charged ones).
    """

    drops: int = 0
    extra: float = 0.0
    corrupt: int = 0
    token: int | None = None
    lost: str | None = None


#: The fate of a message no fault touches.
CLEAN = SendFate()


class FaultState:
    """Per-run mutable runtime state for a :class:`FaultPlan`.

    One instance exists per :meth:`SimCluster.run <repro.mpi.runtime.
    SimCluster.run>` invocation.  Each rank owns a private PRNG stream and
    counter block, touched only from that rank's thread -- determinism and
    thread-safety both follow from the partitioning.
    """

    def __init__(self, plan: FaultPlan, nprocs: int) -> None:
        plan.validate_ranks(nprocs)
        self.plan = plan
        self.nprocs = nprocs
        self._rngs = [
            random.Random(plan.seed * 1_000_003 + rank + 1) for rank in range(nprocs)
        ]
        self._counters = [FaultReport() for _ in range(nprocs)]

    # ------------------------------------------------------------------ #
    # Decision draws (called from the owning rank's thread only)
    # ------------------------------------------------------------------ #

    def count_message(self, rank: int) -> None:
        """Record one message injection by ``rank``."""
        self._counters[rank].messages += 1

    def next_drop(self, rank: int) -> bool:
        """Draw the drop decision for ``rank``'s next transmission attempt."""
        drop = self.plan.drop
        if drop is None or drop.prob == 0.0:
            return False
        fired = self._rngs[rank].random() < drop.prob
        if fired:
            self._counters[rank].dropped += 1
        return fired

    def next_delay(self, rank: int) -> float:
        """Extra flight seconds for ``rank``'s next delivered message."""
        delay = self.plan.delay
        if delay is None or delay.prob == 0.0:
            return 0.0
        if self._rngs[rank].random() < delay.prob:
            self._counters[rank].delayed += 1
            return delay.extra
        return 0.0

    def next_corrupt(self, rank: int) -> bool:
        """Draw the payload-flip decision for ``rank``'s next transmission
        attempt (drawn on the *sending* rank in program order, like drops)."""
        flip = self.plan.flip_msg
        if flip is None or flip.prob == 0.0:
            return False
        fired = self._rngs[rank].random() < flip.prob
        if fired:
            self._counters[rank].corrupted += 1
        return fired

    def corrupt_token(self, rank: int) -> int:
        """Deterministic bit-selection token for ``rank``'s latest flip
        (the per-rank corruption counter, which advances in program order)."""
        return self._counters[rank].corrupted

    def count_retry(self, rank: int) -> None:
        """Record one resend by ``rank``."""
        self._counters[rank].retries += 1

    def count_retransmit(self, rank: int, count: int = 1) -> None:
        """Record ``count`` checksum-NACK retransmissions absorbed by ``rank``."""
        self._counters[rank].retransmits += count

    def count_flip(self, rank: int) -> None:
        """Record one memory corruption applied on ``rank``."""
        self._counters[rank].flips += 1

    def count_repair(self, rank: int) -> None:
        """Record one replica repair of a node owned by ``rank``."""
        self._counters[rank].repairs += 1

    def count_lost(self, rank: int) -> None:
        """Record one message abandoned by ``rank``."""
        self._counters[rank].lost += 1

    def count_crash(self, rank: int) -> None:
        """Record one crash event consumed for ``rank``."""
        self._counters[rank].crashes += 1

    def draw_send(self, rank: int, checksums: bool, dest: int, tag: int) -> SendFate:
        """Draw and count every fault decision of ``rank``'s next message (to
        local rank ``dest`` with ``tag``), in the order the reliable-delivery
        layer meets them: each attempt's drop, the delay, then each attempt's
        flip.  On a checksummed link a flipped attempt is NACKed and resent
        (the flip redraws per attempt); unprotected, the flipped payload is
        delivered.  Call only when the plan ``perturbs_messages``."""
        plan = self.plan
        budget = plan.retry.max_attempts
        self.count_message(rank)
        drops = 0
        if plan.drop is not None:
            while self.next_drop(rank):
                if drops + 1 >= budget:
                    self.count_lost(rank)
                    text = f"lost after {drops + 1} transmission attempts"
                    return SendFate(drops, lost=f"message to rank {dest} (tag {tag}) {text}")
                self.count_retry(rank)
                drops += 1
        extra = self.next_delay(rank)
        corrupt, token = 0, None
        if plan.flip_msg is not None:
            if checksums:
                while corrupt < budget and self.next_corrupt(rank):
                    corrupt += 1
                if corrupt >= budget:
                    self.count_lost(rank)
                    text = f"corrupted on all {corrupt} transmission attempts"
                    return SendFate(drops, extra, lost=f"message to rank {dest} (tag {tag}) {text}")
            elif self.next_corrupt(rank):
                token = self.corrupt_token(rank)
        if drops or extra or corrupt or token is not None:
            return SendFate(drops, extra, corrupt, token)
        return CLEAN

    # ------------------------------------------------------------------ #
    # Reporting (call after the run has joined all rank threads)
    # ------------------------------------------------------------------ #

    def report(self) -> FaultReport:
        """Sum the per-rank counters into one :class:`FaultReport`."""
        out = FaultReport()
        for counters in self._counters:
            out.add(vars(counters))
        return out
