"""Tests for message matching and the Status record."""

from __future__ import annotations

from repro.mpi import ANY_SOURCE, ANY_TAG, Message, Status


def _msg(src=0, dest=1, tag=0, comm_id=0, **kwargs):
    defaults = dict(
        payload="x", nbytes=1, send_time=0.0, arrival_time=0.0
    )
    defaults.update(kwargs)
    return Message(src=src, dest=dest, tag=tag, comm_id=comm_id, **defaults)


class TestMatching:
    def test_exact_match(self):
        assert _msg(src=2, tag=5).matches(2, 5, 0)

    def test_source_mismatch(self):
        assert not _msg(src=2).matches(3, ANY_TAG, 0)

    def test_tag_mismatch(self):
        assert not _msg(tag=5).matches(ANY_SOURCE, 6, 0)

    def test_any_source_matches_all(self):
        assert _msg(src=7).matches(ANY_SOURCE, ANY_TAG, 0)

    def test_any_tag_matches_all(self):
        assert _msg(tag=123).matches(ANY_SOURCE, ANY_TAG, 0)

    def test_comm_id_isolation(self):
        assert not _msg(comm_id=1).matches(ANY_SOURCE, ANY_TAG, 0)
        assert _msg(comm_id=("a", 1)).matches(ANY_SOURCE, ANY_TAG, ("a", 1))

    def test_seq_is_monotone(self):
        a, b = _msg(), _msg()
        assert b.seq > a.seq


class TestStatus:
    def test_defaults(self):
        status = Status()
        assert status.source == ANY_SOURCE
        assert status.tag == ANY_TAG
        assert status.nbytes == 0

    def test_update_from(self):
        status = Status()
        status.update_from(_msg(src=3, tag=9, nbytes=77))
        assert (status.source, status.tag, status.nbytes) == (3, 9, 77)


class _FlatMailbox:
    """The documented matching rules over one flat list (the oracle)."""

    def __init__(self):
        self.messages = []

    def append(self, msg):
        self.messages.append(msg)

    def _heads(self, source, tag, comm_id):
        """Per source, its earliest-sent message matching the receive."""
        heads = {}
        for msg in self.messages:  # list order is send order
            if msg.matches(source, tag, comm_id) and msg.src not in heads:
                heads[msg.src] = msg
        return heads.values()

    def take(self, source, tag, comm_id, consume=True):
        heads = self._heads(source, tag, comm_id)
        best = min(heads, key=lambda m: (m.arrival_time, m.src), default=None)
        if best is not None and consume:
            self.messages.remove(best)
        return best

    def sources_with(self, comm_id, tag):
        return sorted({m.src for m in self.messages if m.matches(ANY_SOURCE, tag, comm_id)})

    def has(self, comm_id, source, tag):
        return any(m.matches(source, tag, comm_id) for m in self.messages)

    def purge(self, comm_id, srcs):
        doomed = [m for m in self.messages if m.comm_id == comm_id and m.src in srcs]
        self.messages = [m for m in self.messages if m not in doomed]
        return len(doomed)


class TestMailboxTrace:
    def test_random_trace_matches_flat_oracle(self):
        """10k random operations: the indexed mailbox (streams created on
        a miss, pruned when emptied) and a flat-list oracle must answer
        every ``take`` shape, ``sources_with``, ``has`` and ``purge`` alike."""
        import random

        from repro.mpi import Mailbox

        rng = random.Random(16)
        box, oracle = Mailbox(), _FlatMailbox()
        comms, srcs, tags = (0, ("dup", 1)), range(5), range(4)
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
                source = rng.choice((src, src, ANY_SOURCE))
                want = rng.choice((tag, tag, ANY_TAG))
                consume = rng.random() < 0.8
                assert box.take(source, want, comm_id, consume) is oracle.take(
                    source, want, comm_id, consume
                )
            elif op < 0.97:
                assert box.sources_with(comm_id, tag) == oracle.sources_with(comm_id, tag)
                assert box.has(comm_id, src, tag) == oracle.has(comm_id, src, tag)
            else:
                doomed = set(rng.sample(srcs, rng.randint(0, 2)))
                assert box.purge(comm_id, doomed) == oracle.purge(comm_id, doomed)
            assert len(box) == len(oracle.messages)
        assert appended > 4000
        assert sorted(m.seq for m in box) == sorted(m.seq for m in oracle.messages)
