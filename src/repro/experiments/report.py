"""Plain-text / CSV rendering of experiment results."""

from __future__ import annotations

import csv
import io
from typing import Iterable, Mapping, Sequence

__all__ = ["format_rows", "rows_to_csv", "format_series"]


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_rows(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [
        [_format_value(row.get(col, ""), precision) for col in columns] for row in rows
    ]
    widths = [
        max(len(str(col)), max(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def rows_to_csv(
    rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None
) -> str:
    """Render rows as CSV text (header + one line per row).

    A field holding ``,``, ``"`` or a newline is quoted, so a label such as
    ``"median, q=3"`` stays one column.
    """
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([str(row.get(c, "")) for c in columns])
    return buffer.getvalue()


def format_series(
    series: Mapping[str, tuple[Iterable[int], Iterable[float]]],
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Render labelled (iteration, value) series as aligned text columns.

    Used to print the accuracy-versus-iteration curves of Figures 2–11 in a
    terminal-friendly format.
    """
    labels = list(series)
    if not labels:
        return "(no series)"
    rows: list[dict[str, object]] = []
    per_label = {
        label: dict(zip(list(xs), list(ys))) for label, (xs, ys) in series.items()
    }
    all_iterations = sorted({x for mapping in per_label.values() for x in mapping})
    for iteration in all_iterations:
        row: dict[str, object] = {"iteration": iteration}
        for label in labels:
            value = per_label[label].get(iteration)
            row[label] = float(value) if value is not None else ""
        rows.append(row)
    return format_rows(rows, columns=["iteration", *labels], precision=precision, title=title)
