"""Platform extensions beyond the paper's evaluation, one row each, in the shape of
the paper's tables and figures: compute, assert the claims, ``record`` the rendering
with its exact virtual-time cells.  Wall-clock claims are asserted (best of three)
and never rendered.
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps.average import FINE_GRAIN
from repro.apps.diffusion import hot_edge_plate, make_jacobi_fn, residual
from repro.apps.imbalance import ImbalanceSchedule, make_imbalanced_average_fn
from repro.bench import hex_graph
from repro.core import ICPlatform, PlatformConfig
from repro.core.soastore import SoAStore
from repro.mpi.faults import FaultPlan
from repro.partitioning import MetisLikePartitioner, RowBandPartitioner


def _plate(side, quantize=None):
    """The hot-edge Jacobi plate as ``(graph, node_fn, init_value), boundary``."""
    graph, boundary, init = hot_edge_plate(side, side)
    return (graph, make_jacobi_fn(boundary, quantize=quantize), init), boundary


def _run(workload, config, partition, faults=None):
    graph, node_fns, init_value = workload
    platform = ICPlatform(graph, node_fns, init_value=init_value, config=config)
    return platform.run(partition, faults=faults)


def _best_wall(fn, repeats=3):
    """``(best-of-repeats wall seconds, the last outcome)``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = fn()
        best = min(best, time.perf_counter() - start)
    return best, outcome


def _text(title, header, rows, *footer):
    """An aligned text table between title and footer; floats are virtual seconds."""
    table = [header] + [
        [f"{c:.4f}" if isinstance(c, float) else str(c) for c in row] for row in rows
    ]
    widths = [max(map(len, column)) for column in zip(*table)]
    body = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join([title, "-" * len(title), *body, *footer])


def test_sparse_exchange(benchmark, record, battlefield_app):
    """Dense vs sparse (delta) exchange: unchanged shadow values are never re-sent,
    empty sends are elided, only recomputed nodes are charged.

    ``diffusion`` is a *quantised* Jacobi relaxation (8x8 plate, 4 ranks) run well
    past its fixed point -- floats alone only asymptote, quantising makes the change
    frontier really collapse, so the exchange goes quiet and quiescence termination
    can fire.  ``battlefield`` (8 ranks) never converges: every node keeps changing,
    the delta machinery cannot win, so it has no floor and only pins value identity
    and the worst-case frontier-maintenance cost."""
    app = battlefield_app
    plate, bf = _plate(8, quantize=4)[0], (app.graph(), app.node_fns(), app.init_value)
    plate_parts = MetisLikePartitioner(seed=0).partition(plate[0], 4)
    bf_parts = MetisLikePartitioner(seed=0, trials=4).partition(bf[0], 8)
    runners = {
        "diffusion": lambda **mode: _run(
            plate, PlatformConfig(iterations=400, **mode), plate_parts),
        "battlefield": lambda **mode: _run(bf, app.platform_config(steps=10, **mode), bf_parts),
    }
    modes = {
        ("diffusion", "dense"): {},
        ("diffusion", "sparse"): {"activation": "sparse"},
        ("diffusion", "sparse+quiescence"): {"activation": "sparse", "converge": "quiescence"},
        ("battlefield", "dense"): {},
        ("battlefield", "sparse"): {"activation": "sparse"},
    }
    runs = benchmark.pedantic(lambda: {
        key: _best_wall(lambda: runners[key[0]](**mode)) for key, mode in modes.items()
    }, rounds=1, iterations=1)
    out = {key: outcome for key, (_, outcome) in runs.items()}
    dense, sparse = out["diffusion", "dense"], out["diffusion", "sparse"]
    reduction = dense.messages_delivered / sparse.messages_delivered
    rendering = _text(
        "Dense vs sparse (delta) exchange",
        ("workload", "mode", "messages", "virtual (s)", "quiesced at"),
        [(workload, mode, o.messages_delivered, o.elapsed, o.quiesced_at or "-")
         for (workload, mode), o in out.items()],
        f"diffusion message reduction: {reduction:.2f}x",
    )
    record("sparse_exchange", rendering, {
        name: [o.elapsed for (workload, _), o in out.items() if workload == name]
        for name in runners
    })
    for (workload, mode), outcome in out.items():
        assert outcome.values == out[workload, "dense"].values, (workload, mode)
    assert reduction >= 2.0 and sparse.elapsed < dense.elapsed
    assert runs["diffusion", "sparse"][0] < runs["diffusion", "dense"][0]  # wall
    assert out["diffusion", "sparse+quiescence"].quiesced_at is not None


def test_hybrid_execution(benchmark, record):
    """BSP vs hybrid on the quantised 16x16 plate, 2-way Metis (interiors dominate
    the cut: the GraphHP sweet spot), inner cap 64, to quiescence.

    Hybrid keeps each superstep's boundary phase exactly BSP but lets a rank chase
    its interior frontier locally, without messages or barriers.  It *spends* compute
    to *save* synchronisation, so both clocks stay in the rendering: barriers and
    messages collapse while the virtual makespan, on a machine model where barriers
    are cheap, grows."""
    tol = 1e-4  # the workload's quantised residual
    plate, boundary = _plate(16, quantize=4)
    partition = MetisLikePartitioner(seed=0).partition(plate[0], 2)

    def run(execution):
        config = PlatformConfig(
            iterations=2000, converge="quiescence", execution=execution, hybrid_inner_cap=64
        )
        return _run(plate, config, partition)

    out = benchmark.pedantic(
        lambda: {mode: run(mode) for mode in ("bsp", "hybrid")}, rounds=1, iterations=1
    )
    bsp, hybrid = out["bsp"], out["hybrid"]
    diff = max(abs(bsp.values[g] - hybrid.values[g]) for g in bsp.values)
    barriers = bsp.barriers / hybrid.barriers
    messages = bsp.messages_delivered / hybrid.messages_delivered
    rendering = _text(
        "BSP vs hybrid execution (16x16 plate, 2 ranks, inner cap 64)",
        ("mode", "barriers", "messages", "inner sweeps", "virtual (s)", "quiesced at"),
        [(mode, o.barriers, o.messages_delivered, o.inner_sweeps, o.elapsed, o.quiesced_at)
         for mode, o in out.items()],
        f"barrier reduction: {barriers:.2f}x, message reduction: {messages:.2f}x,"
        f" max fixed-point diff: {diff}",
    )
    record("hybrid_execution", rendering, {"virtual": [bsp.elapsed, hybrid.elapsed]})
    for outcome in out.values():
        assert outcome.quiesced_at is not None
        assert residual(plate[0], outcome.values, boundary) <= tol
    assert diff <= tol
    assert barriers >= 2.0 and messages >= 1.5


def test_soa_store(benchmark, record):
    """Object vs struct-of-arrays store on a 120x120 unquantised plate: one vectorised
    pass per sweep instead of a view/compute/commit cycle per node.  The wall floor is
    3x at this size (fixed per-iteration costs -- halo packing, barriers, the scalar
    charge replay -- amortise over few nodes); the 320x320 figure is the repo
    benchmark's ``plate320_event``."""
    side, ranks, calls = 120, 4, 50
    plate = graph, node_fn, init = _plate(side)[0]
    partition = RowBandPartitioner(side, side).partition(graph, ranks)

    def scalar_twin(node, ctx):
        # The Jacobi function without its ``.bulk`` kernel: the platform then
        # keeps the object store and sweeps node by node.  A copy of
        # ``tests/twins.py::scalar_twin``, which this directory does not
        # import; like it, a plain closure (``functools.wraps`` would copy
        # ``.bulk``).
        return node_fn(node, ctx)

    def run(store):
        workload = plate if store == "soa" else (graph, scalar_twin, init)
        return _run(workload, PlatformConfig(iterations=10), partition)

    runs = benchmark.pedantic(lambda: {
        name: _best_wall(lambda: run(name)) for name in ("soa", "object")
    }, rounds=1, iterations=1)
    # A change-driven sweep whose frontier has stabilised gathers the same band
    # every superstep: all but the first view reuse the CSR gather geometry.
    store = SoAStore(0, graph, [0] * graph.num_nodes, init)
    frontier = np.arange(0, store.num_owned(), 10, dtype=np.intp)
    for i in range(calls):
        store.bulk_view(frontier, iteration=i, round_idx=0)
    (soa_wall, soa), (object_wall, obj) = runs["soa"], runs["object"]
    rendering = _text(
        f"Object vs struct-of-arrays store ({side}x{side} plate, {ranks} ranks)",
        ("store", "virtual (s)", "iterations"),
        [(name, o.elapsed, o.iterations) for name, (_, o) in runs.items()],
        f"sparse CSR-geometry cache: {store.sparse_geom_hits}/{calls} hits",
    )
    record("soa_store", rendering, {"virtual": [soa.elapsed, obj.elapsed]})
    assert soa.values == obj.values and soa.elapsed == obj.elapsed
    assert store.sparse_geom_hits == calls - 1
    assert object_wall >= 3.0 * soa_wall, f"{object_wall:.2f}s vs {soa_wall:.2f}s"


#: Persistent heavy band, but fine-grained (heavy = the paper's fine grain, light a
#: third of it).  With per-iteration compute this small, finishing on ``nprocs - 1``
#: survivors costs little next to the fixed price of acquiring and restarting a
#: replacement processor -- the regime where shrinking wins.  With coarse grain the
#: verdict flips: capacity loss dominates and rollback-with-restart wins.
RECOVERY_IMBALANCE = ImbalanceSchedule(
    windows=((10**9, 0.0, 0.5),), heavy_grain=FINE_GRAIN, light_grain=0.1e-3
)


def test_recovery_cost(benchmark, record):
    """Rollback vs shrink: rank 2 of 4 dies for good at iteration 21 of 40 (hex64,
    checkpoint every 5).  Both policies must land on the fault-free values; shrink
    must finish sooner than a rollback that pays for the replacement's restart and
    re-executes on the full processor count."""
    workload = (hex_graph(64), make_imbalanced_average_fn(RECOVERY_IMBALANCE), None)
    partition = MetisLikePartitioner(seed=1).partition(workload[0], 4)
    plan = FaultPlan.parse("seed=1,crash=2@21")

    def run(policy, faults=None):
        config = PlatformConfig(
            iterations=40, checkpoint_period=5, recovery_policy=policy, track_trace=True
        )
        return _run(workload, config, partition, faults)

    baseline, runs = benchmark.pedantic(lambda: (
        run("rollback"), {policy: run(policy, plan) for policy in ("rollback", "shrink")}
    ), rounds=1, iterations=1)
    cells, moved = {"fault-free": [baseline.elapsed]}, {}
    for policy, result in runs.items():
        events = result.trace.reconfiguration_events()
        cells[policy] = [
            result.elapsed,
            max(p.recovery for p in result.phases),
            sum(e.detection_cost for e in events),
            sum(e.reconfiguration_cost for e in events),
        ]
        moved[policy] = sum(e.nodes_redistributed for e in events)
        assert result.values == baseline.values and result.recoveries == 1
    rendering = _text(
        "Recovery cost on hex64: crash rank 2 @ iteration 21/40 (4 procs)",
        ("policy", "elapsed (s)", "recovery", "detection", "reconfiguration", "nodes moved"),
        [(policy, *cells[policy], moved[policy]) for policy in runs],
        f"fault-free: {baseline.elapsed:.4f} s",
    )
    record("recovery_cost", rendering, cells)
    rollback, shrink = runs["rollback"], runs["shrink"]
    assert rollback.dead_ranks == () and shrink.dead_ranks == (2,) and moved["shrink"] > 0
    assert shrink.elapsed < rollback.elapsed


def test_integrity_overhead(benchmark, record, battlefield_app):
    """What end-to-end integrity costs, on the battlefield (10 steps) and a 16x16
    Jacobi plate (30 iterations), 4 ranks each: fault-free at ``off`` / ``checksum`` /
    ``full`` prices the steady state; one boundary-node memory flip mid-run compares
    ``full``'s surgical replica repair with ``digest``'s checkpoint rollback and with
    the unprotected run, where the flip silently corrupts the answer."""
    app = battlefield_app
    workloads = {
        "battlefield-1024hex": (
            (app.graph(), app.node_fns(), app.init_value), app.platform_config(steps=10)),
        "diffusion-plate16x16": (_plate(16)[0], PlatformConfig(iterations=30)),
    }

    def measure(workload, base):
        graph = workload[0]
        partition = MetisLikePartitioner(seed=1).partition(graph, 4)
        owner = partition.assignment
        # The flip hits rank 1's lowest node with a neighbour on another rank.
        gid = next(
            g for g in sorted(graph.nodes())
            if owner[g - 1] == 1 and any(owner[n - 1] != 1 for n in graph.neighbors(g))
        )
        at = max(2, base.iterations // 2)
        plan = FaultPlan.parse(f"seed=1,flip=1@{at}:{gid}")

        def run(level, faults=None):
            config = base.with_overrides(integrity=level, checkpoint_period=5 if faults else 0)
            return _run(workload, config, partition, faults)

        clean = {level: run(level) for level in ("off", "checksum", "full")}
        flipped = {level: run(level, plan) for level in ("off", "digest", "full")}
        return f"flip {gid} @ {at}", clean, flipped

    results = benchmark.pedantic(lambda: {
        name: measure(*workload) for name, workload in workloads.items()
    }, rounds=1, iterations=1)
    rows, cells = [], {}
    for name, (flip, clean, flipped) in results.items():
        base = clean["off"]
        for level, r in clean.items():
            overhead = (r.elapsed / base.elapsed - 1.0) * 100.0
            rows.append((name, "fault-free", level, r.elapsed, f"+{overhead:.2f}%"))
            assert r.values == base.values
            assert level == "off" or 0.0 < overhead < 25.0, (name, level, overhead)
        for level, r in flipped.items():
            ok = "values ok" if r.values == base.values else "CORRUPTED"
            outcome = f"{r.repairs} repaired, {r.recoveries} rolled back, {ok}"
            rows.append((name, flip, level, r.elapsed, outcome))
        cells[name] = [r.elapsed for r in (*clean.values(), *flipped.values())]
        off, digest, full = flipped.values()
        # Unprotected, the flip escapes; protected, never, by either route.
        assert off.values != base.values
        assert digest.values == base.values and full.values == base.values
        assert (digest.recoveries, digest.repairs) == (1, 0)
        assert (full.recoveries, full.repairs) == (0, 1)
        # Fixing one node from its replica beats rolling every rank back.
        assert full.elapsed < digest.elapsed
    rendering = _text(
        "Integrity protection: what each level costs and catches (4 procs)",
        ("workload", "run (node @ iteration)", "level", "virtual (s)", "overhead / outcome"),
        rows,
    )
    record("integrity_overhead", rendering, cells)


def test_hybrid_small_cap(benchmark, record):
    """Sparse BSP vs hybrid at small inner caps on the quantised 16x16 plate,
    Metis, 2 and 8 ranks, to quiescence.

    Hybrid is change-driven, so its baseline is sparse BSP.  At cap 1 each
    superstep's boundary commits before the interior computes, so an interior
    node next to a changed boundary node sees the fresh value one superstep
    early: quiescence comes sooner and the virtual makespan is shorter.  Cap 2
    already spends more on interior sweeps than it saves on some rank counts;
    the cap-64 row above is the far end of the same knob."""
    tol = 1e-4  # the workload's quantised residual
    plate, boundary = _plate(16, quantize=4)
    modes = {
        "sparse bsp": {"activation": "sparse"},
        "hybrid cap 1": {"execution": "hybrid", "hybrid_inner_cap": 1},
        "hybrid cap 2": {"execution": "hybrid", "hybrid_inner_cap": 2},
    }

    def run(nprocs, mode):
        config = PlatformConfig(iterations=2000, converge="quiescence", **modes[mode])
        partition = MetisLikePartitioner(seed=0).partition(plate[0], nprocs)
        return _run(plate, config, partition)

    out = benchmark.pedantic(
        lambda: {(n, mode): run(n, mode) for n in (2, 8) for mode in modes},
        rounds=1,
        iterations=1,
    )
    rendering = _text(
        "Sparse BSP vs hybrid at small inner caps (16x16 plate, Metis)",
        ("ranks", "mode", "virtual (s)", "quiesced at", "barriers", "messages"),
        [(n, mode, o.elapsed, o.quiesced_at, o.barriers, o.messages_delivered)
         for (n, mode), o in out.items()],
    )
    record("hybrid_small_cap", rendering, {
        f"np{n}": [out[n, mode].elapsed for mode in modes] for n in (2, 8)
    })
    for outcome in out.values():
        assert outcome.quiesced_at is not None
        assert residual(plate[0], outcome.values, boundary) <= tol
    for n in (2, 8):
        assert out[n, "hybrid cap 1"].elapsed < out[n, "sparse bsp"].elapsed
