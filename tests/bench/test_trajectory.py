"""``tools/trajectory.py``: the committed trajectory table is the generator's
output over the committed BENCH files, and the generator takes the change
side's medians per workload and PR."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).parents[2] / "tools" / "trajectory.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_table_is_the_generators_output():
    tool = load_tool()
    records = {pr: json.loads(path.read_text()) for pr, path in tool.bench_files().items()}
    assert records, "no BENCH file at the repo root"
    doc = tool.DOC.read_text()
    assert tool.updated(doc, tool.render(records)) == doc, "run tools/trajectory.py"


def run(workload, side, wall, pair=1):
    metrics = {"run_wall_s": wall, "setup_s": 0.25, "peak_rss_mb": 40.0}
    return {"workload": workload, "pair": pair, "side": side, "metrics": metrics}


def test_rows_are_change_side_medians(tmp_path):
    tool = load_tool()
    runs = [run("b", "change", w, i) for i, w in enumerate([3.0, 1.0, 2.0], 1)]
    runs += [run("b", "parent", 9.0), run("a", "change", 0.5)]
    earlier = [{"note": "another version", "runs": [run("a", "change", 7.0)]}]
    (tmp_path / "BENCH_7.json").write_text(json.dumps({"runs": runs, "earlier_rounds": earlier}))
    (tmp_path / "BENCH_notes.json").write_text("{}")  # not a BENCH_<pr> record
    files = tool.bench_files(tmp_path)
    assert list(files) == [7]
    records = {pr: json.loads(path.read_text()) for pr, path in files.items()}
    assert tool.rows(records) == [("a", 7, 1, 0.5, 0.25, 40.0), ("b", 7, 3, 2.0, 0.25, 40.0)]
    table = tool.render(records)
    assert table.startswith(tool.BEGIN) and table.endswith(tool.END)
    assert "| `b` | 7 | 3 | 2.000 | 0.250 | 40.0 |" in table.splitlines()
    doc = f"intro\n{tool.BEGIN}\nstale\n{tool.END}\noutro\n"
    assert tool.updated(doc, table) == f"intro\n{table}\noutro\n"
