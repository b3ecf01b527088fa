"""Tests for the mailbox's one matching rule: the head of a named stream."""

from __future__ import annotations

from repro.mpi import Message


def _msg(src=0, dest=1, tag=0, comm_id=0, **kwargs):
    defaults = dict(
        payload="x", nbytes=1, send_time=0.0, arrival_time=0.0
    )
    defaults.update(kwargs)
    return Message(src=src, dest=dest, tag=tag, comm_id=comm_id, **defaults)


class TestStreams:
    """``take`` pops the head of one ``(comm_id, source, tag)`` stream; a
    message on any other stream stays where it is."""

    def test_exact_stream_is_taken(self):
        from repro.mpi import Mailbox

        box, msg = Mailbox(), _msg(src=2, tag=5)
        box.append(msg)
        assert box.take(2, 5, 0) is msg
        assert len(box) == 0 and not box.has(0, 2, 5)

    def test_other_source_stays(self):
        from repro.mpi import Mailbox

        box = Mailbox()
        box.append(_msg(src=2))
        assert box.take(3, 0, 0) is None
        assert len(box) == 1 and box.has(0, 2, 0)

    def test_other_tag_stays(self):
        from repro.mpi import Mailbox

        box = Mailbox()
        box.append(_msg(tag=5))
        assert box.take(0, 6, 0) is None
        assert len(box) == 1 and box.has(0, 0, 5)

    def test_other_comm_stays(self):
        from repro.mpi import Mailbox

        box, shrunk = Mailbox(), (0, "shrink", (1,))
        box.append(_msg(comm_id=shrunk))
        assert box.take(0, 0, 0) is None
        assert box.take(0, 0, shrunk) is not None

    def test_head_is_send_order_not_arrival(self):
        from repro.mpi import Mailbox

        box = Mailbox()
        first, second = _msg(arrival_time=5.0), _msg(arrival_time=1.0)
        box.append(first)
        box.append(second)
        assert box.take(0, 0, 0) is first
        assert box.take(0, 0, 0) is second

    def test_sources_with_is_sorted_per_comm_and_tag(self):
        from repro.mpi import Mailbox

        box = Mailbox()
        for src, tag, comm_id in ((3, 1, 0), (1, 1, 0), (2, 2, 0), (0, 1, 7), (3, 1, 0)):
            box.append(_msg(src=src, tag=tag, comm_id=comm_id))
        assert box.sources_with(0, 1) == [1, 3]
        assert box.sources_with(0, 2) == [2]
        assert box.sources_with(7, 1) == [0]
        assert box.sources_with(7, 2) == []


class _FlatMailbox:
    """The documented matching rule over one flat list (the oracle)."""

    def __init__(self):
        self.messages = []

    def append(self, msg):
        self.messages.append(msg)

    def _stream(self, source, tag, comm_id):
        return [
            m for m in self.messages  # list order is send order
            if (m.comm_id, m.src, m.tag) == (comm_id, source, tag)
        ]

    def take(self, source, tag, comm_id):
        stream = self._stream(source, tag, comm_id)
        if not stream:
            return None
        self.messages.remove(stream[0])
        return stream[0]

    def sources_with(self, comm_id, tag):
        return sorted({m.src for m in self.messages if (m.comm_id, m.tag) == (comm_id, tag)})

    def has(self, comm_id, source, tag):
        return bool(self._stream(source, tag, comm_id))

    def purge(self, comm_id, srcs):
        doomed = [m for m in self.messages if m.comm_id == comm_id and m.src in srcs]
        self.messages = [m for m in self.messages if m not in doomed]
        return len(doomed)


class TestMailboxTrace:
    def test_random_trace_matches_flat_oracle(self):
        """10k random operations: the indexed mailbox (streams created on
        a miss, pruned when emptied) and a flat-list oracle must answer
        every ``take``, ``sources_with``, ``has`` and ``purge`` alike."""
        import random

        from repro.mpi import Mailbox

        rng = random.Random(16)
        box, oracle = Mailbox(), _FlatMailbox()
        comms, srcs, tags = (0, ("shrink", 1)), range(5), range(4)
        appended = 0
        for _ in range(10_000):
            comm_id, src, tag = rng.choice(comms), rng.choice(srcs), rng.choice(tags)
            op = rng.random()
            if op < 0.45:
                msg = _msg(src, 0, tag, comm_id, arrival_time=rng.choice((0.5, 1.0, 2.0)))
                box.append(msg)
                oracle.append(msg)
                appended += 1
            elif op < 0.9:
                assert box.take(src, tag, comm_id) is oracle.take(src, tag, comm_id)
            elif op < 0.97:
                assert box.sources_with(comm_id, tag) == oracle.sources_with(comm_id, tag)
                assert box.has(comm_id, src, tag) == oracle.has(comm_id, src, tag)
            else:
                doomed = set(rng.sample(srcs, rng.randint(0, 2)))
                assert box.purge(comm_id, doomed) == oracle.purge(comm_id, doomed)
            assert len(box) == len(oracle.messages)
        assert appended > 4000
        assert sorted(map(id, box)) == sorted(map(id, oracle.messages))
