"""Figure 23: the dynamic-imbalance generator itself.

The figure is pseudo-code, not a measurement; this bench characterizes the
workload the generator produces -- the per-iteration heavy-node counts and
the total injected compute -- and checks the rolling-window behaviour the
static partitioner cannot capture.
"""

from __future__ import annotations

from repro.apps import PAPER_SCHEDULE
from repro.apps.average import COARSE_GRAIN, FINE_GRAIN


def test_fig23_imbalance_schedule(benchmark, record):
    n = 64

    def characterize():
        per_iteration = []
        for iteration in range(1, 36):
            heavy = PAPER_SCHEDULE.heavy_count(iteration, n)
            total = sum(
                PAPER_SCHEDULE.grain(gid, iteration, n) for gid in range(1, n + 1)
            )
            per_iteration.append((iteration, heavy, total))
        return per_iteration

    profile = benchmark.pedantic(characterize, rounds=1, iterations=1)

    lines = ["Figure 23: rolling imbalance profile (64 nodes)",
             "-" * 48,
             "iter   heavy-nodes   injected-compute (ms)"]
    for iteration, heavy, total in profile:
        lines.append(f"{iteration:4d}   {heavy:11d}   {total * 1e3:10.2f}")
    record(
        "fig23_imbalance_schedule",
        "\n".join(lines),
        {"injected-compute": [total for _, _, total in profile]},
    )

    by_iter = {it: (heavy, total) for it, heavy, total in profile}
    # Three 10-iteration windows, each with ~half the nodes heavy.
    for probe in (5, 15, 25):
        assert 30 <= by_iter[probe][0] <= 34
    # Past iteration 30 everything is light.
    assert by_iter[33][0] == 0
    # The heavy region moves: node 10 is heavy in window 1 only.
    assert PAPER_SCHEDULE.is_heavy(10, 5, n)
    assert not PAPER_SCHEDULE.is_heavy(10, 15, n)
    assert not PAPER_SCHEDULE.is_heavy(10, 25, n)
    # Injected compute per iteration during a window is ~half coarse, half fine.
    expected = 32 * COARSE_GRAIN + 32 * FINE_GRAIN
    assert abs(by_iter[5][1] - expected) <= 2 * COARSE_GRAIN
