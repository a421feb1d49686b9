"""Small numeric and formatting helpers shared by the experiment drivers."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence


def percent_change(reference: float, candidate: float) -> float:
    """Relative change of ``candidate`` vs ``reference`` in percent.

    Positive means the candidate is larger.  A zero reference with a zero
    candidate is 0%; a zero reference with a non-zero candidate is treated
    as a 100% increase (the convention the VC-overhead comparisons need:
    going from 0 extra VCs to any extra VCs is "all overhead").
    """
    if reference == 0:
        return 0.0 if candidate == 0 else 100.0
    return (candidate - reference) / reference * 100.0


def percent_reduction(reference: float, candidate: float) -> float:
    """How much smaller ``candidate`` is than ``reference``, in percent."""
    if reference == 0:
        return 0.0
    return (reference - candidate) / reference * 100.0


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (ignores non-positive entries, 0.0 when empty)."""
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain average (0.0 when empty)."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def is_saturated(offered: float, delivered: float) -> bool:
    """Heuristic saturation flag: delivered flits/cycle below 80% of offered.

    The one definition behind ``LoadPoint.saturated`` and the ``latency``
    and ``scale`` reports.  Zero offered load never saturates.
    """
    return offered > 0 and delivered < 0.8 * offered


def normalise(values: Dict[str, float], reference_key: str) -> Dict[str, float]:
    """Divide every value by the value at ``reference_key`` (as in Figure 10)."""
    reference = values[reference_key]
    if reference == 0:
        return {key: 0.0 for key in values}
    return {key: value / reference for key, value in values.items()}


def format_table(headers: List[str], rows: List[Sequence], *, precision: int = 2) -> str:
    """Render a list of rows as a fixed-width text table."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
