"""The configuration oracle: random configurations drawn from the one
declaration of the platform's switches (``repro.core.config``).

* A *legal* configuration -- every enumerated switch sampled from
  ``CHOICES``, plus dynamic balancing, a fault plan, a host-schedule seed,
  float or int node values and the node function's store (the average
  kernel, or its scalar twin on the object store), anything but a seeded
  ``process`` run -- must be indistinguishable from its reference: the
  same run on the event scheduler and the object store, unseeded, with
  every switch ``INERT`` calls inert put back to its default.  So one
  comparison covers the scheduler, the store, the node value type, the
  schedule fuzzer and the inertness claims, across whatever the other
  switches happen to be.  Of the 120 legal draws, 41 run ``process``:
  26 of them on the object store and 24 with int node values.
* An *illegal* one -- a ``process`` run given a ``schedule_seed``, the one
  combination refused -- must raise ``UnsupportedBackendError`` with
  ``SEED_NEEDS_EVENT`` while nothing has been forked, opened or allocated.

Every switch is passed explicitly, so ``REPRO_EXECUTION`` moves no result
here.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.average import FINE_GRAIN, make_average_fn
from repro.core import ICPlatform, PlatformConfig
from repro.core.config import CHOICES, INERT
from repro.graphs.hexgrid import hex_grid
from repro.mpi import FaultPlan, UnsupportedBackendError
from repro.mpi.scheduler import SEED_NEEDS_EVENT
from repro.partitioning.base import Partition

from ..mpi.test_process_backend import host_untouched
from ..twins import STORES, on_store

pytestmark = pytest.mark.usefixtures("vectorize_any_size")

GRAPH = hex_grid(6, 6)
#: Three ranks holding 18 / 12 / 6 nodes (row bands), so the balancer has
#: busy-idle pairs to find whenever it is switched on.
PARTITION = Partition.from_assignment(GRAPH, [0] * 18 + [1] * 12 + [2] * 6, 3)
#: Delays and drops on the wire, a memory flip, and a crash after the first
#: periodic checkpoint.  (No ``flipmsg``: without checksums a flipped payload
#: is garbage in the platform's own control messages, on every backend.)
FAULTS = "seed=7,delay=0.05,drop=0.02,flip=0@3:15,crash=1@6"

#: A run, as ``{switch: value}``.  The node value type doubles as
#: ``init_value``: ``float(gid)`` / ``int(gid)``.
runs = st.fixed_dictionaries(
    {
        **{switch: st.sampled_from(values) for switch, values in CHOICES.items()},
        "overlap_communication": st.booleans(),
        "dynamic_load_balancing": st.booleans(),
        "faults": st.booleans(),
        "schedule_seed": st.none() | st.integers(0, 9),
        "value_type": st.sampled_from([float, int]),
        "store": st.sampled_from(STORES),
    }
)


def refused(run: dict) -> bool:
    return run["scheduler"] == "process" and run["schedule_seed"] is not None


def execute(run: dict):
    config = PlatformConfig(
        iterations=10,
        lb_period=3,
        checkpoint_period=4,
        track_trace=True,
        overlap_communication=run["overlap_communication"],
        dynamic_load_balancing=run["dynamic_load_balancing"],
        **{name: run[name] for name in CHOICES if name != "scheduler"},
    )
    platform = ICPlatform(
        GRAPH,
        on_store(run["store"], make_average_fn(FINE_GRAIN)),
        init_value=run["value_type"],
        config=config,
    )
    return platform.run(
        PARTITION,
        faults=FaultPlan.parse(FAULTS) if run["faults"] else None,
        scheduler=run["scheduler"],
        schedule_seed=run["schedule_seed"],
    )


def observed(run: dict) -> tuple:
    result = execute(run)
    trace = result.trace
    return (
        float.hex(result.elapsed),
        result.values,
        result.messages_delivered,
        result.barriers,
        trace.records,
        trace.reconfigurations,
        trace.integrity,
        trace.quiescence,
    )


@lru_cache(maxsize=None)
def _observed_reference(items: tuple) -> tuple:
    return observed(dict(items))


def reference_of(run: dict) -> tuple:
    """What the run's reference shows (many draws share one reference)."""
    ref = {**run, "scheduler": "event", "store": "object", "schedule_seed": None}
    for (switch, value), inert in INERT.items():
        if run[switch] == value:
            for name in inert:
                ref[name] = CHOICES[name][0] if name in CHOICES else False
    return _observed_reference(tuple(ref.items()))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(runs.filter(lambda run: not refused(run)))
def test_legal_configuration_matches_its_reference(run):
    assert observed(run) == reference_of(run)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(runs, st.integers(0, 9))
def test_illegal_configuration_is_refused_before_anything_forks(run, seed):
    run.update(scheduler="process", schedule_seed=seed)
    with host_untouched(), pytest.raises(UnsupportedBackendError) as excinfo:
        execute(run)
    assert str(excinfo.value) == SEED_NEEDS_EVENT
