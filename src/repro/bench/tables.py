"""Structured experiment results and plain-text rendering.

Every experiment in :mod:`repro.bench.experiments` returns an
:class:`ExperimentResult` — an ordered list of row dicts plus
metadata — so benchmark code, tests and EXPERIMENTS.md all consume the
same structure, and ``render()`` prints the same rows the paper's
table or figure reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["ExperimentResult"]


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


@dataclass
class ExperimentResult:
    """Rows reproducing one paper table or figure."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"row has columns not in schema: {sorted(unknown)}")
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row.get(name) for row in self.rows]

    def find(self, **criteria: Any) -> Dict[str, Any]:
        """The first row matching all (column, value) criteria."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                return row
        raise KeyError(f"no row matching {criteria}")

    def select(self, **criteria: Any) -> List[Dict[str, Any]]:
        """All rows matching all (column, value) criteria."""
        return [
            row for row in self.rows
            if all(row.get(k) == v for k, v in criteria.items())
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (``repro run --json``)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """Plain-text table, one line per row."""
        header = [self.experiment_id + " — " + self.title]
        cells = [[_format_cell(row.get(c, "")) for c in self.columns] for row in self.rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(self.columns)
        ]
        header.append("  ".join(col.ljust(w) for col, w in zip(self.columns, widths)))
        header.append("  ".join("-" * w for w in widths))
        for row_cells in cells:
            header.append("  ".join(cell.ljust(w) for cell, w in zip(row_cells, widths)))
        for note in self.notes:
            header.append(f"note: {note}")
        return "\n".join(header)
