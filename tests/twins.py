"""Scalar twins: the store axis of the conformance suites.

The platform picks each rank's store from the node functions: a
struct-of-arrays store with vectorized sweeps when every function ships a
bulk kernel (``fn.bulk``), the object store with node-by-node sweeps
otherwise.  So the reference side of a store differential is the same
function without its kernel -- its *scalar twin* -- and the suites keep
their ``"object"`` / ``"soa"`` labels for the two sides.
"""

from __future__ import annotations

from typing import Any

#: The two sides of every store differential, reference first.
STORES = ("object", "soa")


def scalar_twin(fn: Any) -> Any:
    """``fn`` without its bulk kernel: the same values and charges, computed
    node by node on the object store.  A plain closure on purpose --
    ``functools.wraps`` copies ``fn.__dict__``, and with it ``.bulk``."""

    def twin(node: Any, ctx: Any) -> Any:
        return fn(node, ctx)

    return twin


def on_store(store: str, node_fn: Any) -> Any:
    """The node function (or sequence of them) that runs on ``store``: as
    given for ``"soa"``, its scalar twin(s) for ``"object"``."""
    if store == "soa":
        return node_fn
    if store != "object":
        raise ValueError(f"unknown store {store!r}")
    if callable(node_fn):
        return scalar_twin(node_fn)
    return tuple(map(scalar_twin, node_fn))
