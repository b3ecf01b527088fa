"""Node functions that charge zero times, twice, or a per-node amount.

On the object store a sweep runs the node function as a looped kernel:
``ctx.work`` records each node's charges, and the accountant applies them
after the node loop -- folded, or walked node by node for a small part, for
a node that charged more than once and under a ``slow=`` window.  The
charge sequence must be the one the node function makes: per node its
list-forming bookkeeping, its charges in call order, then its packs.  The
virtual results below are pinned as ``float.hex`` values captured when the
sweep still charged node by node as it called the function, so any change
in the order or the amounts of the charges shows.

Each case runs hex16x16 on four ranks (64 nodes a rank: parts on both
sides of the accountant's walk cut) for six dense, sparse or hybrid
supersteps, or dense under a slow window, and pins per rank the clock, the
three time buckets, and digests of the measured loads (``node_loads()``)
and of the committed values.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import CommBuffers, ComputeContext, NodeStore, PlatformCosts, superstep
from repro.core.compute import Frontier
from repro.graphs import hex_grid
from repro.mpi import IDEAL, FaultPlan, run_mpi
from repro.partitioning import MetisLikePartitioner

ITERATIONS = 6
SLOW = "slow=1:2.5:0.0:1e9,slow=2:1.5:0.0005:1e9"


def _average(node) -> float:
    total = node.value
    for _, value in node.neighbors:
        total += value
    return round(total / (1 + len(node.neighbors)), 2)


def silent(node, ctx):
    """Charges nothing."""
    return _average(node)


def twice(node, ctx):
    """Two charges per node, the second depending on the node."""
    ctx.work(2.3e-5)
    ctx.work(1.1e-5 * (node.global_id % 3))
    return _average(node)


def varying(node, ctx):
    """One charge per node, its amount depending on the node."""
    ctx.work(1.3e-5 * (1 + node.global_id % 7))
    return _average(node)


def mixed(node, ctx):
    """Zero, one or three charges, by gid."""
    for _ in range((0, 1, 3)[node.global_id % 3]):
        ctx.work(0.7e-5 * (1 + node.global_id % 5))
    return _average(node)


FUNCTIONS = {fn.__name__: fn for fn in (silent, twice, varying, mixed)}


def _digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()[:16]


def run(name: str, mode: str) -> list[tuple[str, ...]]:
    """Per rank: clock, compute, bookkeeping and communication-overhead
    buckets (``float.hex``), then digests of the loads and of the values."""
    graph = hex_grid(16, 16)
    assignment = list(MetisLikePartitioner(seed=0).partition(graph, 4).assignment)
    node_fn = FUNCTIONS[name]

    def fn(comm):
        store = NodeStore(comm.rank, graph, list(assignment), float)
        ctx = ComputeContext(comm, PlatformCosts(), graph.num_nodes)
        buffers = CommBuffers(comm.size)
        frontier = {"sparse": Frontier(1), "hybrid": Frontier(1, inner_cap=3)}.get(mode)
        for iteration in range(1, ITERATIONS + 1):
            ctx.iteration = iteration
            superstep(comm, store, node_fn, ctx, buffers, frontier)
        loads = [(gid, load.hex()) for gid, load in ctx.node_loads().items()]
        values = [(gid, value.hex()) for gid, value in store.owned_values().items()]
        clocks = (comm.Wtime(), ctx.compute_time, ctx.bookkeeping_time, ctx.comm_overhead_time)
        return (*(c.hex() for c in clocks), _digest(loads), _digest(values))

    faults = FaultPlan.parse(SLOW) if mode == "slow" else None
    return [tuple(row) for row in run_mpi(fn, 4, machine=IDEAL, faults=faults)]


#: Captured with the node-by-node sweep (see the module docstring).
PINNED: dict[tuple[str, str], list[tuple[str, ...]]] = {
    ('mixed', 'dense'): [
        ("0x1.2ea960b6f9fc4p-4", "0x1.6e158750c1bbep-7", "0x1.8250a7b84050ap-5",
         "0x1.9bc69a83a465ap-7", "901e9da355a938cf", "4f73ba106eb7ffd5"),
        ("0x1.30f6ad70e6f27p-4", "0x1.554fbdad751acp-7", "0x1.83a464ceb6b4fp-5",
         "0x1.11ea0d4f73dc8p-6", "d4566fdbdeb8501c", "a05940e9b02c3566"),
        ("0x1.2e338491ca97dp-4", "0x1.65d3996fa830dp-7", "0x1.81b9a90399eb3p-5",
         "0x1.847f562174c59p-7", "f32990fae294fd63", "be8d8da14cf1b51d"),
        ("0x1.2f95190158c52p-4", "0x1.554fbdad751acp-7", "0x1.830d661a104f9p-5",
         "0x1.ddfe4d7858d7fp-7", "bb788ebd1a77425b", "da2c9a17a496ff0c"),
    ],
    ('mixed', 'sparse'): [
        ("0x1.343ce8be9ada7p-4", "0x1.613d31b9b671ep-7", "0x1.a7f4a62faa14bp-5",
         "0x1.4b167ec7863c3p-7", "a24af83bb5800898", "4f73ba106eb7ffd5"),
        ("0x1.362f3145f328ep-4", "0x1.31fcd24e160f4p-7", "0x1.8dc11e42e1290p-5",
         "0x1.a4052d666a98ep-7", "29673701599c0034", "a05940e9b02c3566"),
        ("0x1.33b85e80bed6dp-4", "0x1.613d31b9b671dp-7", "0x1.aa9a72dd6d30ep-5",
         "0x1.4321bdbfe98fbp-7", "20dacc78943472db", "be8d8da14cf1b51d"),
        ("0x1.34bd413e8eb0ap-4", "0x1.4801f75104d74p-7", "0x1.9d51b4fe79f14p-5",
         "0x1.7a89331a08c04p-7", "542e46d42c45f5c2", "da2c9a17a496ff0c"),
    ],
    ('mixed', 'hybrid'): [
        ("0x1.60865294f83ffp-3", "0x1.cb5350092cd34p-6", "0x1.0f1942c724ea1p-3",
         "0x1.72de43ed959a8p-7", "a69ff54d4ab7c027", "8ffe8bc0465310aa"),
        ("0x1.62040116806abp-3", "0x1.7f498c3b0c48ap-6", "0x1.ff50ad977d5a6p-4",
         "0x1.019be172763fep-6", "11a130f09f5b2ed9", "79198fc95315f7a9"),
        ("0x1.60440d760a3e3p-3", "0x1.bde82d7b63516p-6", "0x1.11e0d3140ea7bp-3",
         "0x1.5ee136e71cda8p-7", "6e91dfc3dd0872be", "7c554766936a2ed5"),
        ("0x1.617f76d8a4670p-3", "0x1.9c304ccee5af2p-6", "0x1.0af7e076cdb95p-3",
         "0x1.c17580b59d061p-7", "c75d3af8d2cf8933", "18523086814f87c5"),
    ],
    ('mixed', 'slow'): [
        ("0x1.74cd67267fc5dp-3", "0x1.6e158750c1bbep-7", "0x1.8250a7b84050ap-5",
         "0x1.9bc69a83a465ap-7", "901e9da355a938cf", "4f73ba106eb7ffd5"),
        ("0x1.7d3458cd20aeep-3", "0x1.aaa3ad18d261ap-6", "0x1.e48d7e02645f1p-4",
         "0x1.566490a350d32p-5", "123df73e63cf8a06", "a05940e9b02c3566"),
        ("0x1.764c729f59cc4p-3", "0x1.0bf7f06705ca3p-6", "0x1.205722fc844a8p-4",
         "0x1.235f80991793ep-6", "56b0cdb940a3f720", "be8d8da14cf1b51d"),
        ("0x1.7543434baf2a3p-3", "0x1.554fbdad751acp-7", "0x1.830d661a104f9p-5",
         "0x1.ddfe4d7858d7fp-7", "bb788ebd1a77425b", "da2c9a17a496ff0c"),
    ],
    ('silent', 'dense'): [
        ("0x1.03ff69014b5b0p-4", "0x0.0p+0", "0x1.8250a7b84050ap-5",
         "0x1.9bc69a83a465ap-7", "4f53cda18c2baa0c", "4f73ba106eb7ffd5"),
        ("0x1.064cb5bb38513p-4", "0x0.0p+0", "0x1.83a464ceb6b4fp-5",
         "0x1.11ea0d4f73dc8p-6", "4f53cda18c2baa0c", "a05940e9b02c3566"),
        ("0x1.03898cdc1bf68p-4", "0x0.0p+0", "0x1.81b9a90399eb3p-5",
         "0x1.847f562174c59p-7", "4f53cda18c2baa0c", "be8d8da14cf1b51d"),
        ("0x1.04eb214baa23ep-4", "0x0.0p+0", "0x1.830d661a104f9p-5",
         "0x1.ddfe4d7858d7fp-7", "4f53cda18c2baa0c", "da2c9a17a496ff0c"),
    ],
    ('silent', 'sparse'): [
        ("0x1.09401aa242b71p-4", "0x0.0p+0", "0x1.a7f4a62faa14bp-5",
         "0x1.4b167ec7863c3p-7", "4f53cda18c2baa0c", "4f73ba106eb7ffd5"),
        ("0x1.0b3263299b058p-4", "0x0.0p+0", "0x1.8dc11e42e1290p-5",
         "0x1.a4052d666a98ep-7", "4f53cda18c2baa0c", "a05940e9b02c3566"),
        ("0x1.08bb906466b37p-4", "0x0.0p+0", "0x1.aa9a72dd6d30ep-5",
         "0x1.4321bdbfe98fbp-7", "4f53cda18c2baa0c", "be8d8da14cf1b51d"),
        ("0x1.09c07322368d4p-4", "0x0.0p+0", "0x1.9d51b4fe79f14p-5",
         "0x1.7a89331a08c04p-7", "4f53cda18c2baa0c", "da2c9a17a496ff0c"),
    ],
    ('silent', 'hybrid'): [
        ("0x1.289cbc63c8f9bp-3", "0x0.0p+0", "0x1.0f1942c724ea1p-3",
         "0x1.72de43ed959a8p-7", "4f53cda18c2baa0c", "8ffe8bc0465310aa"),
        ("0x1.2a1a6ae551247p-3", "0x0.0p+0", "0x1.ff50ad977d5a6p-4",
         "0x1.019be172763fep-6", "4f53cda18c2baa0c", "79198fc95315f7a9"),
        ("0x1.285a7744daf7fp-3", "0x0.0p+0", "0x1.11e0d3140ea7bp-3",
         "0x1.5ee136e71cda8p-7", "4f53cda18c2baa0c", "7c554766936a2ed5"),
        ("0x1.2995e0a77520cp-3", "0x0.0p+0", "0x1.0af7e076cdb95p-3",
         "0x1.c17580b59d061p-7", "4f53cda18c2baa0c", "18523086814f87c5"),
    ],
    ('silent', 'slow'): [
        ("0x1.3f78f183657abp-3", "0x0.0p+0", "0x1.8250a7b84050ap-5",
         "0x1.9bc69a83a465ap-7", "4f53cda18c2baa0c", "4f73ba106eb7ffd5"),
        ("0x1.47dfe32a0663cp-3", "0x0.0p+0", "0x1.e48d7e02645f1p-4",
         "0x1.566490a350d32p-5", "4f53cda18c2baa0c", "a05940e9b02c3566"),
        ("0x1.40f7fcfc3f812p-3", "0x0.0p+0", "0x1.201a1c0af8819p-4",
         "0x1.235f80991793ep-6", "4f53cda18c2baa0c", "be8d8da14cf1b51d"),
        ("0x1.3feecda894df1p-3", "0x0.0p+0", "0x1.830d661a104f9p-5",
         "0x1.ddfe4d7858d7fp-7", "4f53cda18c2baa0c", "da2c9a17a496ff0c"),
    ],
    ('twice', 'dense'): [
        ("0x1.39bed30f062cap-4", "0x1.abd1aa821f2aap-7", "0x1.8250a7b84050ap-5",
         "0x1.9bc69a83a465ap-7", "1a9a23029aa4a8e6", "4f73ba106eb7ffd5"),
        ("0x1.3c0c1fc8f322dp-4", "0x1.adfb506dd69e6p-7", "0x1.83a464ceb6b4fp-5",
         "0x1.11ea0d4f73dc8p-6", "7482d98d60cd4709", "a05940e9b02c3566"),
        ("0x1.3948f6e9d6c83p-4", "0x1.a9a8049667b6ep-7", "0x1.81b9a90399eb3p-5",
         "0x1.847f562174c59p-7", "d29fce71aa8ce844", "be8d8da14cf1b51d"),
        ("0x1.3aaa8b5964f58p-4", "0x1.abd1aa821f2a7p-7", "0x1.830d661a104f9p-5",
         "0x1.ddfe4d7858d7fp-7", "1442382b04f881ec", "da2c9a17a496ff0c"),
    ],
    ('twice', 'sparse'): [
        ("0x1.3e1f1f7ff8077p-4", "0x1.a28bb0a2ca9bcp-7", "0x1.a7f4a62faa14bp-5",
         "0x1.4b167ec7863c3p-7", "6cc6c2f6f38bd969", "4f73ba106eb7ffd5"),
        ("0x1.401168075055dp-4", "0x1.881a1554fbdb6p-7", "0x1.8dc11e42e1290p-5",
         "0x1.a4052d666a98ep-7", "cc6867c2942bd7b9", "a05940e9b02c3566"),
        ("0x1.3d9a95421c03cp-4", "0x1.a415f45e0b4efp-7", "0x1.aa9a72dd6d30ep-5",
         "0x1.4321bdbfe98fbp-7", "6b36ebcaf3c53429", "be8d8da14cf1b51d"),
        ("0x1.3e9f77ffebdd9p-4", "0x1.9702e6644d880p-7", "0x1.9d51b4fe79f14p-5",
         "0x1.7a89331a08c04p-7", "9eecda4bad5a2c9b", "da2c9a17a496ff0c"),
    ],
    ('twice', 'hybrid'): [
        ("0x1.6c11a11233d32p-3", "0x1.0d477bbf93fd8p-5", "0x1.0f1942c724ea1p-3",
         "0x1.72de43ed959a8p-7", "a59bde572e5ecf71", "8ffe8bc0465310aa"),
        ("0x1.6d8f4f93bbfddp-3", "0x1.f954eb13dfac5p-6", "0x1.ff50ad977d5a6p-4",
         "0x1.019be172763fep-6", "61159eeb3903adfe", "79198fc95315f7a9"),
        ("0x1.6bcf5bf345d16p-3", "0x1.0f5e41d4b6a48p-5", "0x1.11e0d3140ea7bp-3",
         "0x1.5ee136e71cda8p-7", "d385cad1cf320062", "7c554766936a2ed5"),
        ("0x1.6d0ac555dffa3p-3", "0x1.07a4a48f96df5p-5", "0x1.0af7e076cdb95p-3",
         "0x1.c17580b59d061p-7", "62d5425ee17d4536", "18523086814f87c5"),
    ],
    ('twice', 'slow'): [
        ("0x1.82a836148f019p-3", "0x1.abd1aa821f2aap-7", "0x1.8250a7b84050ap-5",
         "0x1.9bc69a83a465ap-7", "1a9a23029aa4a8e6", "4f73ba106eb7ffd5"),
        ("0x1.8b0f27bb2feacp-3", "0x1.0cbd1244a61fcp-5", "0x1.e48d7e02645f1p-4",
         "0x1.566490a350d32p-5", "f8c8ffb3052b2878", "a05940e9b02c3566"),
        ("0x1.8427418d69081p-3", "0x1.3e681a9b8cb5ep-6", "0x1.205722fc844a8p-4",
         "0x1.235f80991793ep-6", "42afa33e1cc51c60", "be8d8da14cf1b51d"),
        ("0x1.831e1239be660p-3", "0x1.abd1aa821f2a7p-7", "0x1.830d661a104f9p-5",
         "0x1.ddfe4d7858d7fp-7", "1442382b04f881ec", "da2c9a17a496ff0c"),
    ],
    ('varying', 'dense'): [
        ("0x1.5710880d801afp-4", "0x1.3a604e1e71063p-6", "0x1.8250a7b84050ap-5",
         "0x1.9bc69a83a465ap-7", "63793380e2d28019", "4f73ba106eb7ffd5"),
        ("0x1.595dd4c76d112p-4", "0x1.4c447c30d3087p-6", "0x1.83a464ceb6b4fp-5",
         "0x1.11ea0d4f73dc8p-6", "385ebc3c8664077f", "a05940e9b02c3566"),
        ("0x1.569aabe850b68p-4", "0x1.4d8ba40d90e43p-6", "0x1.81b9a90399eb3p-5",
         "0x1.847f562174c59p-7", "bc2ed74edea898ea", "be8d8da14cf1b51d"),
        ("0x1.57fc4057dee3dp-4", "0x1.45e0b4e11dbe7p-6", "0x1.830d661a104f9p-5",
         "0x1.ddfe4d7858d7fp-7", "85329ae958821ddb", "da2c9a17a496ff0c"),
    ],
    ('varying', 'sparse'): [
        ("0x1.5b771f1b4e397p-4", "0x1.34330d73860b6p-6", "0x1.a7f4a62faa14bp-5",
         "0x1.4b167ec7863c3p-7", "a765d7c66909f697", "4f73ba106eb7ffd5"),
        ("0x1.5d6967a2a687ep-4", "0x1.2e72da122faf0p-6", "0x1.8dc11e42e1290p-5",
         "0x1.a4052d666a98ep-7", "87639792a04c3cc7", "a05940e9b02c3566"),
        ("0x1.5af294dd7235dp-4", "0x1.49b62c7757515p-6", "0x1.aa9a72dd6d30ep-5",
         "0x1.4321bdbfe98fbp-7", "80c7fb2a0c776a53", "be8d8da14cf1b51d"),
        ("0x1.5bf7779b420fap-4", "0x1.350d2806af484p-6", "0x1.9d51b4fe79f14p-5",
         "0x1.7a89331a08c04p-7", "aa2be7d2cc9b55b4", "da2c9a17a496ff0c"),
    ],
    ('varying', 'hybrid'): [
        ("0x1.8fff36ac64739p-3", "0x1.9758e219652f1p-5", "0x1.0f1942c724ea1p-3",
         "0x1.72de43ed959a8p-7", "0d86d46f03524661", "8ffe8bc0465310aa"),
        ("0x1.917ce52dec9e5p-3", "0x1.8685553ef6b92p-5", "0x1.ff50ad977d5a6p-4",
         "0x1.019be172763fep-6", "6301d797da1372fe", "79198fc95315f7a9"),
        ("0x1.8fbcf18d7671dp-3", "0x1.9eb2074ea8ddap-5", "0x1.11e0d3140ea7bp-3",
         "0x1.5ee136e71cda8p-7", "d361ba08cf7e87e7", "7c554766936a2ed5"),
        ("0x1.90f85af0109aap-3", "0x1.9832fcac8e6c3p-5", "0x1.0af7e076cdb95p-3",
         "0x1.c17580b59d061p-7", "6d77aba1d620f6c6", "18523086814f87c5"),
    ],
    ('varying', 'slow'): [
        ("0x1.a74e5852a76bfp-3", "0x1.3a604e1e71063p-6", "0x1.8250a7b84050ap-5",
         "0x1.9bc69a83a465ap-7", "63793380e2d28019", "4f73ba106eb7ffd5"),
        ("0x1.afb549f948550p-3", "0x1.9f559b3d07c8dp-5", "0x1.e48d7e02645f1p-4",
         "0x1.566490a350d32p-5", "3c5c0617767eacf3", "a05940e9b02c3566"),
        ("0x1.a8cd63cb81726p-3", "0x1.f30a4e379b78ep-6", "0x1.209429ee10138p-4",
         "0x1.235f80991793ep-6", "1ca7cd975984a835", "be8d8da14cf1b51d"),
        ("0x1.a7c43477d6d05p-3", "0x1.45e0b4e11dbe7p-6", "0x1.830d661a104f9p-5",
         "0x1.ddfe4d7858d7fp-7", "85329ae958821ddb", "da2c9a17a496ff0c"),
    ],
}


@pytest.mark.parametrize("mode", ["dense", "sparse", "hybrid", "slow"])
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_charges_as_the_node_function_makes_them(name, mode):
    assert run(name, mode) == PINNED[name, mode]


def test_a_negative_charge_raises_and_the_recorder_comes_off():
    """A negative charge raises at the call; a node function that raises
    leaves ``ctx.work`` charging the clock directly again."""
    graph = hex_grid(4, 4)

    def negative(node, ctx):
        ctx.work(-1.0)
        return node.value

    def fn(comm):
        store = NodeStore(0, graph, [0] * graph.num_nodes, float)
        ctx = ComputeContext(comm, PlatformCosts(), graph.num_nodes)
        with pytest.raises(ValueError, match="negative work"):
            superstep(comm, store, negative, ctx, CommBuffers(1))
        before = comm.Wtime()
        ctx.work(0.25)
        return comm.Wtime() - before, ctx.compute_time

    assert run_mpi(fn, 1, machine=IDEAL) == [(0.25, 0.25)]
