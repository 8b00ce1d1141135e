"""Study outputs: flat CSV tables and a static grouped-bar figure.

Rendering is plain string assembly so that identical tables produce
byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .candidates import DESIGNS
from .criteria import CRITERIA
from .simulation import FrequencyTable

CRITERION_NAMES = {key: f"BIC_{key}" for key in CRITERIA}
CRITERION_COLORS = dict(zip(CRITERIA, ("#1f77b4", "#2ca02c", "#e8c31e", "#d62728"), strict=True))

_PANEL_WIDTH = 240
_PANEL_GAP = 30
_MARGIN_LEFT = 52
_MARGIN_TOP = 58
_PLOT_HEIGHT = 220
_MARGIN_BOTTOM = 42


def emit_report(table: FrequencyTable, out_dir: str | Path) -> list[Path]:
    """Write results.csv, summary.csv and figure.svg into out_dir.

    results.csv has one row per (design, truth, criterion) cell;
    summary.csv pools the truths within each design; figure.svg shows
    the pooled frequencies as one bar group per design.  Raises
    ValueError on an empty table before touching the filesystem.
    """
    if not table.rows:
        raise ValueError("study produced no rows; nothing to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results_path = out_dir / "results.csv"
    with results_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["design", "truth", "criterion", "correct", "replicates", "frequency"])
        for row in table.rows:
            writer.writerow(
                [row.design, row.truth, row.criterion, row.correct, row.replicates, row.frequency]
            )

    aggregates = table.aggregates()
    summary_path = out_dir / "summary.csv"
    with summary_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["design", "criterion", "frequency"])
        for design, criterion, frequency in aggregates:
            writer.writerow([design, criterion, frequency])

    figure_path = out_dir / "figure.svg"
    figure_path.write_text(_render_figure(aggregates))
    return [results_path, summary_path, figure_path]


def _render_figure(aggregates: list[tuple[str, str, float]]) -> str:
    by_design: dict[str, dict[str, float]] = {}
    for design, criterion, frequency in aggregates:
        by_design.setdefault(design, {})[criterion] = frequency
    designs = list(by_design)

    n_panels = len(designs)
    width = _MARGIN_LEFT + n_panels * _PANEL_WIDTH + (n_panels - 1) * _PANEL_GAP + 20
    height = _MARGIN_TOP + _PLOT_HEIGHT + _MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<text x="12" y="20" font-family="sans-serif" font-size="14" font-weight="bold">'
        "Correct selection frequency by design and criterion</text>",
    ]

    legend_x = 12
    for key in CRITERION_NAMES:
        parts.append(
            f'<rect x="{legend_x}" y="30" width="12" height="12" fill="{CRITERION_COLORS[key]}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 16}" y="40" font-family="sans-serif" font-size="11">'
            f"{CRITERION_NAMES[key]}</text>"
        )
        legend_x += 24 + 7 * len(CRITERION_NAMES[key])

    for panel, design in enumerate(designs):
        x0 = _MARGIN_LEFT + panel * (_PANEL_WIDTH + _PANEL_GAP)
        y0 = _MARGIN_TOP
        y1 = y0 + _PLOT_HEIGHT
        for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
            y = y1 - tick * _PLOT_HEIGHT
            parts.append(
                f'<line x1="{x0}" y1="{y:.1f}" x2="{x0 + _PANEL_WIDTH}" y2="{y:.1f}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
            if panel == 0:
                parts.append(
                    f'<text x="{x0 - 8}" y="{y + 4:.1f}" font-family="sans-serif" '
                    f'font-size="10" text-anchor="end">{tick:g}</text>'
                )
        parts.append(
            f'<line x1="{x0}" y1="{y1}" x2="{x0 + _PANEL_WIDTH}" y2="{y1}" '
            'stroke="#333333" stroke-width="1"/>'
        )

        slot = _PANEL_WIDTH / len(CRITERION_NAMES)
        bar_width = slot * 0.6
        for j, key in enumerate(CRITERION_NAMES):
            freq = by_design[design].get(key, 0.0)
            bar_height = freq * _PLOT_HEIGHT
            bx = x0 + j * slot + (slot - bar_width) / 2
            by = y1 - bar_height
            parts.append(
                f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bar_width:.2f}" '
                f'height="{bar_height:.2f}" fill="{CRITERION_COLORS[key]}" '
                f'data-design="{design}" data-criterion="{key}" data-frequency="{freq!r}"/>'
            )
            parts.append(
                f'<text x="{bx + bar_width / 2:.2f}" y="{by - 4:.2f}" '
                'font-family="sans-serif" font-size="9" text-anchor="middle">'
                f"{freq:.2f}</text>"
            )

        info = DESIGNS.get(design)
        title = (
            f"design {design} (N={info.n_subjects}, n/subject={info.n_per_subject})"
            if info is not None
            else f"design {design}"
        )
        parts.append(
            f'<text x="{x0 + _PANEL_WIDTH / 2:.1f}" y="{y1 + 24}" '
            f'font-family="sans-serif" font-size="11" text-anchor="middle">{title}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
