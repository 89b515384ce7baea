"""Plain-text rendering of experiment results.

The paper's figures are bar/line charts; in a text-only reproduction the
same information is reported as aligned tables.  The helpers here are
deliberately dependency-free (no matplotlib) so that the benchmarks can
print their tables in any environment.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table.

    Numeric cells are right-aligned, text cells left-aligned; floats are
    shown with four significant decimals.
    """
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    all_rows = [list(headers)] + rendered_rows
    widths = [max(len(row[i]) for row in all_rows) for i in range(len(headers))]

    def render_line(cells: Sequence[str], is_header: bool = False) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if is_header or not _is_numeric(cell):
                parts.append(cell.ljust(widths[i]))
            else:
                parts.append(cell.rjust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), 8))
    lines.append(render_line(list(headers), is_header=True))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def _is_numeric(text: str) -> bool:
    try:
        float(text.rstrip("%x"))
    except ValueError:
        return False
    return True


def format_percent(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string (0.113 -> '11.3%')."""
    return f"{value * 100:.{digits}f}%"


def format_ratio(value: float, digits: int = 2) -> str:
    """Format an improvement factor ('1.47x')."""
    return f"{value:.{digits}f}x"

