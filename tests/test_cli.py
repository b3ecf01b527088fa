"""Tests for the command-line interface."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main, make_partitioner
from repro.core import PlatformConfig
from repro.graphs import hex32, read_chaco, read_partition


@pytest.fixture
def hexfile(tmp_path):
    path = tmp_path / "hex.txt"
    assert main(["generate", "--kind", "hex", "--rows", "4", "--cols", "8",
                 "--output", str(path)]) == 0
    return path


class TestGenerate:
    def test_hex(self, hexfile):
        graph = read_chaco(hexfile)
        assert graph.num_nodes == 32
        assert graph == hex32()

    @pytest.mark.parametrize("kind,extra,nodes", [
        ("grid", [], 64),
        ("torus", [], 64),
        ("random", ["--nodes", "40"], 40),
        ("battlefield", ["--rows", "8", "--cols", "8"], 64),
    ])
    def test_other_kinds(self, tmp_path, kind, extra, nodes):
        path = tmp_path / f"{kind}.txt"
        assert main(["generate", "--kind", kind, "--output", str(path), *extra]) == 0
        assert read_chaco(path).num_nodes == nodes


class TestPartition:
    def test_metis_writes_mapping(self, tmp_path, hexfile, capsys):
        out = tmp_path / "part.txt"
        assert main(["partition", "--graph", str(hexfile), "--scheme", "metis",
                     "--np", "4", "--output", str(out)]) == 0
        assignment = read_partition(out, num_nodes=32)
        assert set(assignment) == {0, 1, 2, 3}
        captured = capsys.readouterr().out
        assert "edge cut" in captured

    def test_band_needs_geometry(self, tmp_path, hexfile):
        out = tmp_path / "part.txt"
        with pytest.raises(SystemExit):
            main(["partition", "--graph", str(hexfile), "--scheme", "rowband",
                  "--np", "4", "--output", str(out)])

    def test_band_with_geometry(self, tmp_path, hexfile):
        out = tmp_path / "part.txt"
        assert main(["partition", "--graph", str(hexfile), "--scheme", "rowband",
                     "--np", "4", "--rows", "4", "--cols", "8",
                     "--output", str(out)]) == 0

    def test_geometry_mismatch_rejected(self, tmp_path, hexfile):
        out = tmp_path / "part.txt"
        with pytest.raises(SystemExit):
            main(["partition", "--graph", str(hexfile), "--scheme", "rowband",
                  "--np", "4", "--rows", "5", "--cols", "5",
                  "--output", str(out)])

    @pytest.mark.parametrize("scheme", ["pagrid", "spectral", "bfsgreedy",
                                        "random", "roundrobin"])
    def test_all_geometry_free_schemes(self, tmp_path, hexfile, scheme):
        out = tmp_path / f"{scheme}.txt"
        np = 4
        assert main(["partition", "--graph", str(hexfile), "--scheme", scheme,
                     "--np", str(np), "--output", str(out)]) == 0
        assert len(read_partition(out)) == 32

    def test_make_partitioner_unknown(self):
        with pytest.raises(SystemExit):
            make_partitioner("bogus", 2, 0, hex32())


class TestRun:
    def test_run_with_partitioner(self, hexfile, capsys):
        assert main(["run", "--graph", str(hexfile), "--np", "4",
                     "--iterations", "5"]) == 0
        out = capsys.readouterr().out
        assert "elapsed" in out
        assert "virtual seconds" in out

    def test_run_with_partition_file(self, tmp_path, hexfile, capsys):
        part = tmp_path / "p.txt"
        main(["partition", "--graph", str(hexfile), "--scheme", "metis",
              "--np", "4", "--output", str(part)])
        capsys.readouterr()
        assert main(["run", "--graph", str(hexfile), "--partition", str(part),
                     "--np", "4", "--iterations", "5", "--phases"]) == 0
        out = capsys.readouterr().out
        assert "from-file" in out
        assert "communication_overhead" in out

    def test_run_dynamic_imbalance(self, hexfile, capsys):
        assert main(["run", "--graph", str(hexfile), "--np", "4",
                     "--workload", "imbalance", "--iterations", "25",
                     "--dynamic", "--balancer", "greedy"]) == 0
        assert "migrations" in capsys.readouterr().out

    def test_run_repartition_mode(self, hexfile, capsys):
        assert main(["run", "--graph", str(hexfile), "--np", "4",
                     "--workload", "imbalance", "--iterations", "25",
                     "--dynamic", "--rebalance-mode", "repartition"]) == 0

    def test_run_with_fault_injection(self, hexfile, capsys):
        assert main(["run", "--graph", str(hexfile), "--np", "4",
                     "--iterations", "8", "--checkpoint-period", "3",
                     "--faults", "seed=7,delay=0.1,crash=1@5"]) == 0
        out = capsys.readouterr().out
        assert "fault report" in out
        assert "recoveries    1" in out
        assert "rank 1 crashes at iteration 5" in out

    def test_lost_message_is_a_one_line_failure_exit_1(self, hexfile, capsys):
        assert main(["run", "--graph", str(hexfile), "--np", "3", "--iterations", "6",
                     "--faults", "drop=0.9,retry=1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro run: failed: MessageLostError: message to rank 1 (tag 1) "
            "lost after 1 transmission attempts\n"
        )

    def test_corrupted_past_retry_budget_is_a_one_line_failure_exit_1(self, hexfile, capsys):
        assert main(["run", "--graph", str(hexfile), "--np", "3", "--iterations", "6",
                     "--integrity", "full", "--faults", "flipmsg=0.5,retry=1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro run: failed: MessageLostError: message to rank ")
        assert "corrupted on all 1 transmission attempts" in err

    def test_run_rejects_bad_fault_spec(self, hexfile, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--graph", str(hexfile), "--np", "2",
                  "--iterations", "2", "--faults", "explode=yes"])
        assert excinfo.value.code == 2

    def test_bad_fault_spec_exits_2_naming_token(self, hexfile, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--graph", str(hexfile), "--np", "2",
                  "--iterations", "2", "--faults", "seed=7,explode=yes"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnostic
        assert "--faults" in err
        assert "explode" in err

    def test_bad_recovery_policy_exits_2_naming_token(self, hexfile, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--graph", str(hexfile), "--np", "2",
                  "--iterations", "2", "--recovery", "teleport"])
        assert excinfo.value.code == 2
        assert "teleport" in capsys.readouterr().err

    def test_bad_checkpoint_keep_exits_2(self, hexfile, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--graph", str(hexfile), "--np", "2",
                  "--iterations", "2", "--checkpoint-keep", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--checkpoint-keep" in err and "0" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--hybrid-inner-cap", "0"),
            ("--lb-period", "0"),
            ("--iterations", "-1"),
            ("--checkpoint-period", "-1"),
            ("--np", "0"),  # not a PlatformConfig field: cmd_run's own check
            ("--lb-threshold", "-1.0"),
        ],
    )
    def test_bad_numeric_flag_exits_2_naming_flag(self, hexfile, capsys, flag, value):
        """Every range check on the way to a run surfaces as the one-line
        usage error every other bad flag gets, not as a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--graph", str(hexfile), "--np", "2", "--dynamic",
                  flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro run: error: {flag} must be >= ")
        assert err.rstrip().endswith(f"got {value}")

    @pytest.mark.parametrize("dynamic", [[], ["--dynamic"]])
    def test_bad_lb_threshold_exits_2_with_or_without_dynamic(
        self, hexfile, capsys, dynamic
    ):
        """Regression: the flag used to reach only a balancer built under
        --dynamic, so without it a negative threshold ran silently."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--graph", str(hexfile), "--np", "2",
                  "--lb-threshold", "-1", *dynamic])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            "repro run: error: --lb-threshold must be >= 0, got -1.0\n"
        )

    def test_partition_file_naming_a_rank_outside_np_exits_2(
        self, tmp_path, hexfile, capsys
    ):
        """Regression: a partition file written for more ranks than --np
        used to traceback out of ``validate_assignment``."""
        part = tmp_path / "p.txt"
        main(["partition", "--graph", str(hexfile), "--scheme", "roundrobin",
              "--np", "5", "--output", str(part)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--graph", str(hexfile), "--partition", str(part),
                  "--np", "4"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            "repro run: error: --partition: node 5 assigned to processor 4 "
            "outside [0, 4)\n"
        )

    @pytest.mark.parametrize("flag", ["--graph", "--partition"])
    def test_missing_input_file_exits_2_naming_flag(
        self, hexfile, tmp_path, capsys, flag
    ):
        missing = str(tmp_path / "nowhere.txt")
        argv = ["run", "--graph", str(hexfile), "--np", "2", flag, missing]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err == f"repro run: error: {flag}: no such file: {missing}\n"

    def test_run_shrink_recovery(self, hexfile, capsys):
        assert main(["run", "--graph", str(hexfile), "--np", "4",
                     "--iterations", "8", "--checkpoint-period", "3",
                     "--recovery", "shrink",
                     "--faults", "seed=7,crash=1@5"]) == 0
        out = capsys.readouterr().out
        assert "policy: shrink" in out
        assert "dead ranks" in out and "1" in out
        assert "reconfigured  iter 5" in out

    @pytest.mark.parametrize(
        "workload, rows, store",
        [
            ("average", 16, "soa (bulk kernels)"),
            ("average", 4, "object"),
            ("imbalance", 16, "object"),
        ],
        ids=["average", "average-small", "imbalance"],
    )
    def test_process_scheduler_prints_what_event_prints(
        self, tmp_path, capsys, workload, rows, store
    ):
        """Either store -- the average kernel's on 85 nodes a rank, the
        average function's on 21 (too few to vectorize), the imbalance
        function's -- runs on worker processes, with the event run's
        output."""
        path = tmp_path / "hex.txt"
        assert main(["generate", "--kind", "hex", "--rows", str(rows), "--cols", "16",
                     "--output", str(path)]) == 0
        capsys.readouterr()
        outputs = []
        for scheduler in ("event", "process"):
            assert main(["run", "--graph", str(path), "--np", "3", "--iterations", "4",
                         "--workload", workload, "--scheduler", scheduler]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert f"store         {store}\n" in outputs[0]

    def test_store_is_not_an_option(self, hexfile, capsys):
        """The node functions pick the store; ``--store`` is gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--graph", str(hexfile), "--np", "2", "--store", "soa"])
        assert excinfo.value.code == 2
        assert "--store" in capsys.readouterr().err

    def test_run_overlap_and_machines(self, hexfile):
        for machine in ("ideal", "ethernet"):
            assert main(["run", "--graph", str(hexfile), "--np", "2",
                         "--iterations", "3", "--machine", machine,
                         "--overlap"]) == 0


class TestBenchAndInfo:
    def test_info(self, hexfile, capsys):
        assert main(["info", "--graph", str(hexfile)]) == 0
        out = capsys.readouterr().out
        assert "vertices   32" in out
        assert "connected  True" in out


class TestPartitionAnalyze:
    def test_analyze_flag_prints_diagnostics(self, tmp_path, hexfile, capsys):
        out = tmp_path / "part.txt"
        assert main(["partition", "--graph", str(hexfile), "--scheme", "metis",
                     "--np", "4", "--output", str(out), "--analyze"]) == 0
        text = capsys.readouterr().out
        assert "surface/volume" in text
        assert "interfaces" in text


class TestFlagTable:
    """Docs drift guard: README's table of ``run`` options is the parser's."""

    def test_readme_lists_exactly_the_run_options(self):
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a.choices, dict)
        )
        parsed = {
            flag
            for action in subparsers.choices["run"]._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("Every `run` option:")[1].split("\n\n")[1]
        flag_cells = [row.split("|")[1] for row in table.splitlines()[2:]]
        documented = {f for cell in flag_cells for f in re.findall(r"`(--[a-z-]+)", cell)}
        assert documented == parsed

    def test_argument_count_does_not_grow(self):
        """The flag diet's ratchet (45 before the capability table)."""
        source = Path(build_parser.__code__.co_filename).read_text()
        assert sum("add_argument" in line for line in source.splitlines()) <= 40

    def test_numeric_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["run", "--graph", "g.txt", "--np", "2"])
        config = PlatformConfig()
        for name in ("iterations", "lb_period", "lb_threshold", "checkpoint_period",
                     "checkpoint_keep", "hybrid_inner_cap"):
            assert getattr(args, name) == getattr(config, name), name
