"""Plain-text result tables shared by the benchmark harness and EXPERIMENTS.md."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence


@dataclass
class Series:
    """One experiment's table: named columns, one row per parameter point."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        index = list(self.columns).index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        return format_table(self.title, self.columns, self.rows)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        return f"{value:.2f}"
    return str(value)


def format_table(title: str, columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in cells)) if cells else len(str(col))
        for i, col in enumerate(columns)
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(str(c).rjust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
