"""Which integrity levels defend the wire (docs/fault_injection.md's table).

Checksums are armed at ``checksum`` and ``full``; ``digest`` guards stored
values only, so a ``flipmsg`` flip is delivered there exactly as at
``off``.
"""

from __future__ import annotations

import pytest

from repro.apps.average import make_average_fn
from repro.core import ICPlatform, PlatformConfig
from repro.graphs import hex32
from repro.mpi import FaultPlan
from repro.partitioning import MetisLikePartitioner

GRAPH = hex32()
PARTITION = MetisLikePartitioner(seed=0).partition(GRAPH, 4)


def run_at(level: str, faults: str):
    config = PlatformConfig(iterations=8, integrity=level)
    platform = ICPlatform(GRAPH, make_average_fn(1e-4), config=config)
    return platform.run(PARTITION, faults=FaultPlan.parse(faults))


@pytest.mark.parametrize("level", ["off", "checksum", "digest", "full"])
def test_wire_flips_are_retransmitted_exactly_where_checksums_are_armed(level):
    # Under this seed every flip lands on a shadow value, so the
    # unprotected levels finish (with a wrong answer) instead of crashing.
    report = run_at(level, "seed=9,flipmsg=0.05").fault_report
    assert report.corrupted > 0
    if level in ("checksum", "full"):
        assert report.retransmits == report.corrupted
    else:
        assert report.retransmits == 0


def test_an_undefended_flip_may_hit_a_control_message():
    """At ``off``/``digest`` the platform's own records travel unprotected
    too: this plan corrupts an integrity claim and the run ends in an
    error, by design."""
    with pytest.raises((KeyError, AttributeError)):
        run_at("digest", "seed=0,flipmsg=0.02")
    assert run_at("full", "seed=0,flipmsg=0.02").fault_report.retransmits > 0
