"""The collectives' point-to-point trees, kept as the replay's reference.

``repro.mpi`` runs ``bcast``/``gather``/``allgather``/``allreduce`` as one
rendezvous each, and
:mod:`repro.mpi.collectives` replays the charges, fault legs and flipped
values of the trees below.  Here the trees run message by message on the
communicator's own point-to-point routines (``recv``, ``isend``,
``neighbor_send``, ``neighbor_recv``), so every fault draw, charge and
counter is the transport's own, and the replay is held to them.

:class:`TreeCollectives` is a mixin (put it before ``Communicator`` in the
bases); :func:`tree_collectives` installs the trees on ``Communicator``
itself for code that builds its own communicators (``ICPlatform.run``,
``shrink``).  Forked process workers inherit it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.mpi import Communicator
from repro.mpi.collectives import fold


class TreeCollectives:
    """The four tree collectives, over the host class's point-to-point."""

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_peer(root)
        return self._tree_bcast(obj, root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_peer(root)
        return self._tree_gather(obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        return self._tree_bcast(self._tree_gather(obj, 0), 0)

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        gathered = self._tree_gather(obj, 0)
        return self._tree_bcast(None if gathered is None else fold(gathered, op), 0)

    def _tree_bcast(self, obj: Any, root: int) -> Any:
        """Binomial tree: receive from the parent, then send to the
        children in decreasing-mask order."""
        tag = self._next_coll_tag()
        size = self.size
        vrank = (self._rank - root) % size
        if vrank != 0:
            lowbit = vrank & -vrank
            parent = ((vrank ^ lowbit) + root) % size
            value = self.recv(source=parent, tag=tag)
        else:
            value = obj
            lowbit = 1
            while lowbit < size:
                lowbit <<= 1
        children = []
        mask = lowbit >> 1
        while mask >= 1:
            if vrank + mask < size:
                children.append((((vrank + mask) + root) % size, value, None))
            mask >>= 1
        self.neighbor_send(children, tag)
        return value

    def _tree_gather(self, obj: Any, root: int) -> list[Any] | None:
        """Every non-root sends to ``root``, which receives in ascending
        source order."""
        tag = self._next_coll_tag()
        if self._rank != root:
            self.isend(obj, root, tag=tag)
            return None
        out = self.neighbor_recv(self._peers(root), tag)
        out.insert(root, obj)
        return out


_TREES = {
    name: fn for name, fn in vars(TreeCollectives).items() if callable(fn)
}


@contextmanager
def tree_collectives() -> Iterator[None]:
    """While active, every ``Communicator`` runs the four collectives as
    their point-to-point trees."""
    saved = {name: vars(Communicator).get(name) for name in _TREES}
    for name, fn in _TREES.items():
        setattr(Communicator, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            if fn is None:
                delattr(Communicator, name)
            else:
                setattr(Communicator, name, fn)
