"""SVG rendering of schedules: Gantt charts and space-time floorplans.

Pure-string SVG (no plotting dependencies), suitable for dropping into
reports or viewing in a browser.  Two renderers:

* :func:`schedule_gantt_svg` — one row per task over the time axis;
* :func:`schedule_floorplan_svg` — the chip at selected clock cycles, one
  panel per cycle, boxes colored per task.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..fpga.schedule import ReconfigurationSchedule

#: A color-blind-friendly qualitative palette (Okabe–Ito plus extras).
PALETTE = [
    "#0072B2", "#E69F00", "#009E73", "#CC79A7", "#56B4E9",
    "#D55E00", "#F0E442", "#999999", "#7550A0", "#2E8B57",
    "#B22222", "#4682B4", "#DAA520", "#708090", "#8FBC8F", "#C71585",
]


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text, as
    ``xml.sax.saxutils.escape`` does; importing that module loads
    ``urllib.request`` and ``http.client`` with it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _task_colors(schedule: ReconfigurationSchedule) -> dict:
    names = sorted(e.task.name for e in schedule.entries)
    return {name: PALETTE[i % len(PALETTE)] for i, name in enumerate(names)}


def schedule_gantt_svg(
    schedule: ReconfigurationSchedule,
    cycle_width: int = 24,
    row_height: int = 22,
) -> str:
    """An SVG Gantt chart of the schedule."""
    entries = sorted(schedule.entries, key=lambda e: (e.start, e.task.name))
    span = max(1, schedule.makespan)
    label_width = 90
    width = label_width + span * cycle_width + 10
    height = (len(entries) + 1) * row_height + 30
    colors = _task_colors(schedule)
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # Cycle grid and axis labels.
    for t in range(span + 1):
        x = label_width + t * cycle_width
        parts.append(
            f'<line x1="{x}" y1="{row_height}" x2="{x}" '
            f'y2="{(len(entries) + 1) * row_height}" stroke="#dddddd"/>'
        )
        if t % max(1, span // 12) == 0:
            parts.append(
                f'<text x="{x}" y="{row_height - 6}" '
                f'text-anchor="middle">{t}</text>'
            )
    for row, entry in enumerate(entries):
        y = (row + 1) * row_height
        parts.append(
            f'<text x="{label_width - 6}" y="{y + row_height - 7}" '
            f'text-anchor="end">{escape(entry.task.name)}</text>'
        )
        x = label_width + entry.start * cycle_width
        w = entry.task.duration * cycle_width
        color = colors[entry.task.name]
        parts.append(
            f'<rect x="{x}" y="{y + 2}" width="{w}" '
            f'height="{row_height - 4}" fill="{color}" stroke="#333333">'
            f"<title>{escape(str(entry))}</title></rect>"
        )
    parts.append(
        f'<text x="{label_width}" y="{height - 8}">'
        f"makespan {schedule.makespan} cycles on {escape(str(schedule.chip))}</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def schedule_floorplan_svg(
    schedule: ReconfigurationSchedule,
    cycles: Optional[Sequence[int]] = None,
    cell: float = 4.0,
    panel_gap: int = 24,
) -> str:
    """SVG floorplan panels of the chip at the given clock cycles.

    ``cycles`` defaults to every distinct task start time.
    """
    if cycles is None:
        cycles = sorted({e.start for e in schedule.entries})
    chip_w = schedule.chip.width * cell
    chip_h = schedule.chip.height * cell
    colors = _task_colors(schedule)
    width = int((chip_w + panel_gap) * len(cycles) + panel_gap)
    height = int(chip_h + 60)
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, cycle in enumerate(cycles):
        ox = panel_gap + i * (chip_w + panel_gap)
        oy = 30.0
        parts.append(
            f'<text x="{ox}" y="{oy - 8}">cycle {cycle}</text>'
        )
        parts.append(
            f'<rect x="{ox}" y="{oy}" width="{chip_w}" height="{chip_h}" '
            f'fill="#f8f8f8" stroke="#333333"/>'
        )
        for e in schedule.entries:
            if not e.start <= cycle < e.end:
                continue
            x = ox + e.x * cell
            # SVG's y axis points down; flip so y=0 is the chip's bottom.
            y = oy + chip_h - (e.y + e.task.height) * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{e.task.width * cell}" '
                f'height="{e.task.height * cell}" '
                f'fill="{colors[e.task.name]}" fill-opacity="0.85" '
                f'stroke="#222222">'
                f"<title>{escape(str(e))}</title></rect>"
            )
            if e.task.width * cell >= 30:
                parts.append(
                    f'<text x="{x + 3}" y="{y + 12}" fill="white">'
                    f"{escape(e.task.name)}</text>"
                )
    parts.append("</svg>")
    return "".join(parts)
