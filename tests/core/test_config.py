"""Tests for platform configuration and cost constants."""

from __future__ import annotations

import pytest

from repro.core import PlatformConfig, PlatformCosts


class TestPlatformCosts:
    def test_defaults_positive(self):
        costs = PlatformCosts()
        assert costs.list_item_cost > 0
        assert costs.pack_cost > 0
        assert costs.unpack_cost > 0
        assert costs.recv_setup_cost > 0

    def test_with_overrides(self):
        costs = PlatformCosts().with_overrides(pack_cost=1.0)
        assert costs.pack_cost == 1.0
        assert costs.unpack_cost == PlatformCosts().unpack_cost

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PlatformCosts().pack_cost = 0.0  # type: ignore[misc]


class TestPlatformConfig:
    def test_defaults_match_paper(self):
        config = PlatformConfig()
        assert config.lb_period == 10       # "invoked every 10 time steps"
        assert config.lb_threshold == 0.25  # "25% more work"
        assert config.max_migrations_per_pair == 1
        assert not config.dynamic_load_balancing
        assert not config.overlap_communication
        assert config.comm_rounds == 1

    def test_overrides_do_not_mutate(self):
        config = PlatformConfig()
        other = config.with_overrides(dynamic_load_balancing=True)
        assert other.dynamic_load_balancing
        assert not config.dynamic_load_balancing

    def test_costs_embedded(self):
        costs = PlatformCosts(pack_cost=42.0)
        config = PlatformConfig(costs=costs)
        assert config.costs.pack_cost == 42.0

    def test_store_fields_are_accepted_and_ignored(self, monkeypatch):
        """``store`` and ``hash_table_length`` stay only so old callers
        keep constructing; nothing validates or reads them, and the
        environment no longer picks a store."""
        monkeypatch.setenv("REPRO_STORE", "soa")
        assert PlatformConfig().store is None
        assert PlatformConfig().hash_table_length is None
        config = PlatformConfig(store="columnar", hash_table_length=0)
        assert (config.store, config.hash_table_length) == ("columnar", 0)


class TestExecutionOption:
    """The suite's ``--execution`` option (``tests/conftest.py``) moves the
    default on the test side only; the product reads no environment."""

    def test_the_product_default_is_bsp(self, request):
        assert PlatformConfig.__dataclass_fields__["execution"].default == "bsp"
        expected = request.config.getoption("--execution") or "bsp"
        assert PlatformConfig().execution == expected

    def test_forked_workers_inherit_the_patched_default(self, monkeypatch):
        from repro.mpi import run_mpi

        from ..conftest import execution_default

        monkeypatch.setattr(PlatformConfig, "__init__", execution_default("hybrid"))
        assert PlatformConfig().execution == "hybrid"
        assert PlatformConfig(execution="bsp").execution == "bsp"
        assert PlatformConfig().with_overrides(iterations=3).execution == "hybrid"
        workers = run_mpi(lambda comm: PlatformConfig().execution, 2, scheduler="process")
        assert workers == ["hybrid", "hybrid"]
