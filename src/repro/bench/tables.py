"""Result-table containers and text rendering for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = ["ExperimentTable", "SeriesFigure", "exact_lines", "format_seconds"]


def format_seconds(value: float) -> str:
    """Render a runtime like the paper's tables (3-4 significant figures)."""
    if value >= 1.0:
        return f"{value:.3f}"
    return f"{value:.4f}"


def exact_lines(cells: Mapping[object, Sequence[float]]) -> list[str]:
    """One ``exact: <label> = <float.hex> ...`` line per row of measured cells.

    A rendering rounds to three or four figures; appended to it, these lines
    make the committed text pin every virtual-time cell to the last bit.
    """
    return [
        f"exact: {label} = " + " ".join(float(v).hex() for v in values)
        for label, values in cells.items()
    ]


@dataclass
class ExperimentTable:
    """A runtimes table in the paper's shape: rows = iteration counts,
    columns = processor counts.

    Attributes:
        experiment_id: e.g. ``"table2_hex32"``.
        title: Human-readable caption.
        row_label: ``"Iterations"`` or ``"Simulation Steps"``.
        procs: Column order.
        rows: ``iterations -> [seconds per processor]`` (measured).
        paper: Optional paper values; their columns follow ``paper_procs``
            (the paper's full processor axis), and rendering picks out the
            columns matching this table's ``procs``.
        paper_procs: Processor axis of the ``paper`` rows.
    """

    experiment_id: str
    title: str
    row_label: str
    procs: Sequence[int]
    rows: dict[int, list[float]]
    paper: Mapping[int, Sequence[float]] | None = None
    paper_procs: Sequence[int] = (1, 2, 4, 8, 16)

    def _paper_row(self, iterations: int) -> list[float | None]:
        """Paper values aligned to this table's processor columns."""
        assert self.paper is not None
        full = self.paper[iterations]
        index = {p: i for i, p in enumerate(self.paper_procs)}
        return [
            full[index[p]] if p in index and index[p] < len(full) else None
            for p in self.procs
        ]

    def speedups(self, iterations: int) -> list[float]:
        """Speedup over the single-processor column for one row."""
        row = self.rows[iterations]
        base = row[list(self.procs).index(1)] if 1 in self.procs else row[0]
        return [base / t for t in row]

    def render(self) -> str:
        """Paper-style text table, with paper values interleaved if known."""
        header = [self.row_label] + [f"p={p}" for p in self.procs]
        widths = [max(12, len(h) + 2) for h in header]
        lines = [self.title, "-" * len(self.title)]
        lines.append("".join(h.ljust(w) for h, w in zip(header, widths)))
        for iters in sorted(self.rows):
            cells = [str(iters)] + [format_seconds(v) for v in self.rows[iters]]
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
            if self.paper and iters in self.paper:
                cells = ["  (paper)"] + [
                    format_seconds(v) if v is not None else "-"
                    for v in self._paper_row(iters)
                ]
                lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)


@dataclass
class SeriesFigure:
    """A figure with one or more named series over processor counts.

    Attributes:
        experiment_id: e.g. ``"fig11_hex_speedup"``.
        title: Caption.
        procs: X axis.
        series: ``label -> values`` (speedups or seconds).
        ylabel: What the values are.
    """

    experiment_id: str
    title: str
    procs: Sequence[int]
    series: dict[str, list[float]] = field(default_factory=dict)
    ylabel: str = "speedup"

    def add(self, label: str, values: Sequence[float]) -> None:
        """Attach one series (length must match the processor axis)."""
        values = list(values)
        if len(values) != len(self.procs):
            raise ValueError(
                f"series {label!r} has {len(values)} points for {len(self.procs)} procs"
            )
        self.series[label] = values

    def render(self) -> str:
        """Text rendering: one row per series."""
        width = max((len(s) for s in self.series), default=10) + 2
        lines = [self.title, "-" * len(self.title)]
        lines.append(
            " " * width + "".join(f"p={p}".ljust(9) for p in self.procs)
            + f"  ({self.ylabel})"
        )
        for label, values in self.series.items():
            lines.append(
                label.ljust(width) + "".join(f"{v:.3f}".ljust(9) for v in values)
            )
        return "\n".join(lines)
