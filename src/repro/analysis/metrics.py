"""Small numeric and formatting helpers shared by the experiment drivers."""

from __future__ import annotations

from typing import Any, List, Mapping, Sequence


def percent_reduction(reference: float, candidate: float) -> float:
    """How much smaller ``candidate`` is than ``reference``, in percent."""
    if reference == 0:
        return 0.0
    return (reference - candidate) / reference * 100.0


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain average (0.0 when empty)."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def is_saturated(offered: float, delivered: float) -> bool:
    """Heuristic saturation flag: delivered flits/cycle below 80% of offered.

    Zero offered load never saturates.
    """
    return offered > 0 and delivered < 0.8 * offered


def load_point_failed(metrics: Mapping[str, Any]) -> bool:
    """True when a simulated load point deadlocked or saturated.

    The one verdict behind the ``latency`` report's saturation scale and
    the ``scale`` report's ``saturated`` column; ``metrics`` is a load
    point's dictionary (:func:`repro.analysis.performance.measure_load_grid`).
    """
    return bool(
        metrics["deadlocked"]
        or is_saturated(
            metrics["offered_flits_per_cycle"], metrics["delivered_flits_per_cycle"]
        )
    )


def format_table(headers: List[str], rows: List[Sequence]) -> str:
    """Render a list of rows as a fixed-width text table (floats to 2 places)."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
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
