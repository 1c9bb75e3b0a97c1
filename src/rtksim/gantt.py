"""Gantt rendering of a completed trace, plain text and SVG.

Both renderers are deterministic functions of the record list, so repeated
runs produce byte-identical artifacts.  One row per thread, one column per
tick; execution contexts get distinct glyphs (text) or fill patterns (SVG),
and preemptions / interrupt entries / interrupt returns are marked at their
tick boundary.

The pattern-to-context legend is an arbitrary fixed choice, documented in
LEGEND below.

The SVG's elements are joined a batch of records at a time, as the trace
CSV's rows are (``trace.batches``), so its peak memory is about twice its
text.  Every text ends with its newline through an empty last line, not
a second copy of the text.
"""

from __future__ import annotations

from .errors import ValidationError
from .trace import (
    CTL_INT_ENTER,
    CTL_INT_RETURN,
    CTL_PREEMPT,
    batches,
    check_claims,
    is_int,
)

__all__ = ["LEGEND", "render_text_gantt", "render_svg_gantt"]

# context -> (text glyph, svg fill id, base color)
LEGEND = {
    "TASK": ("#", "ctx-task", "#4878a8"),
    "SVC": ("S", "ctx-svc", "#b05050"),
    "BFM": ("B", "ctx-bfm", "#50a070"),
    "ISR": ("I", "ctx-isr", "#c08030"),
    "CYC_HANDLER": ("C", "ctx-cyc", "#8060a8"),
    "ALM_HANDLER": ("A", "ctx-alm", "#a06088"),
    "IDLE": ("i", "ctx-idle", "#909090"),
    "STARTUP": ("#", "ctx-task", "#4878a8"),
}

# control label -> (marker glyph, display precedence: lower wins)
_MARKS = {
    CTL_INT_ENTER: ("^", 0),
    CTL_INT_RETURN: ("v", 1),
    CTL_PREEMPT: (">", 2),
}
_MARKS_BY_GLYPH = {g: rank for g, rank in _MARKS.values()}


def _threads_in(records):
    names = {}
    for r in records:
        if r.thread_id not in names:
            names[r.thread_id] = r.thread_name
    return sorted(names.items())


def _check_window(records, ticks) -> None:
    """A chart covers ticks 0 to ``ticks`` - 1, at least one, and no
    two segments in it claim the same tick."""
    if not is_int(ticks) or ticks < 1:
        raise ValidationError("a Gantt chart must cover at least 1 tick")
    check_claims(records, ticks)


def render_text_gantt(records, ticks: int) -> str:
    """One character per tick per thread; markers on a companion line."""
    _check_window(records, ticks)
    threads = _threads_in(records)
    rows = {tid: ["."] * ticks for tid, _ in threads}
    marks = {tid: [" "] * ticks for tid, _ in threads}
    any_marks = {tid: False for tid, _ in threads}

    for r in records:
        if r.label in _MARKS:
            glyph, rank = _MARKS[r.label]
            if r.tick_start < ticks:
                slot = marks[r.thread_id]
                old = slot[r.tick_start]
                if old == " " or _MARKS_BY_GLYPH[old] > rank:
                    slot[r.tick_start] = glyph
                    any_marks[r.thread_id] = True
        elif r.tick_end > r.tick_start:
            end = min(r.tick_end, ticks)
            rows[r.thread_id][r.tick_start:end] = (
                [LEGEND[r.context_kind][0]] * (end - r.tick_start))

    label_width = max((len(f"{tid} {name}") for tid, name in threads),
                      default=0)
    pad = " " * label_width
    tens = "".join(str((t // 10) % 10) if t % 10 == 0 else " "
                   for t in range(ticks))
    ones = "".join(str(t % 10) for t in range(ticks))

    out = [f"Execution Trace (ticks 0..{ticks - 1})",
           f"{pad}  {tens}",
           f"{pad}  {ones}"]
    for tid, name in threads:
        out.append(f"{f'{tid} {name}'.ljust(label_width)}  {''.join(rows[tid])}")
        if any_marks[tid]:
            out.append(f"{pad}  {''.join(marks[tid]).rstrip()}")
    legend = "legend: # task  S service  B bus  I isr  C cyclic  A alarm  " \
             "i idle  ^ int-enter  v int-return  > preempt"
    out += [legend, ""]
    return "\n".join(out)


_CELL_W = 8
_ROW_H = 22
_ROW_GAP = 6
_LEFT = 140
_TOP = 40
_BOTTOM = 30


_WHITE_LINE = '<path d="{}" stroke="#ffffff" stroke-width="1.5"/>'

# context -> (tile size, background, overlay) of its SVG fill pattern.  A
# None background is the context's color, and so is "{color}" in an
# overlay; the overlays tell contexts apart even in monochrome print.
_PATTERNS = {
    "TASK": (4, None, ""),
    "SVC": (6, None, _WHITE_LINE.format("M0 6 L6 0")),
    "BFM": (6, None, _WHITE_LINE.format("M0 0 L6 6")),
    "ISR": (6, None, '<circle cx="3" cy="3" r="1.2" fill="#ffffff"/>'),
    "CYC_HANDLER": (6, None, _WHITE_LINE.format("M0 3 L6 3")),
    "ALM_HANDLER": (6, None, _WHITE_LINE.format("M3 0 L3 6")),
    "IDLE": (8, "#f0f0f0",
             '<path d="M0 8 L8 0" stroke="{color}" stroke-width="1"/>'),
}


def _svg_patterns():
    defs = ['<defs>']
    for key, (size, background, overlay) in _PATTERNS.items():
        _g, fid, color = LEGEND[key]
        defs.append(
            f'<pattern id="{fid}" width="{size}" height="{size}" '
            f'patternUnits="userSpaceOnUse">'
            f'<rect width="{size}" height="{size}" '
            f'fill="{background or color}"/>'
            f'{overlay.format(color=color)}</pattern>')
    defs.append('</defs>')
    return defs


def render_svg_gantt(records, ticks: int) -> str:
    _check_window(records, ticks)
    threads = _threads_in(records)
    width = _LEFT + ticks * _CELL_W + 20
    height = _TOP + len(threads) * (_ROW_H + _ROW_GAP) + _BOTTOM

    def x_of(tick):
        return _LEFT + tick * _CELL_W

    rows_y = {tid: _TOP + i * (_ROW_H + _ROW_GAP)
              for i, (tid, _n) in enumerate(threads)}

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="12">',
    ]
    out.extend(_svg_patterns())
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    out.append(f'<text x="{_LEFT}" y="18" font-size="14">Execution Trace '
               f'(ticks 0..{ticks - 1})</text>')

    # tick grid every 10 ticks, labels every 50
    grid_bottom = height - _BOTTOM + 4
    for t in range(0, ticks + 1, 10):
        x = x_of(t)
        out.append(f'<line x1="{x}" y1="{_TOP - 6}" x2="{x}" '
                   f'y2="{grid_bottom}" stroke="#dddddd" stroke-width="1"/>')
        if t % 50 == 0:
            out.append(f'<text x="{x + 2}" y="{grid_bottom + 12}" '
                       f'fill="#555555">{t}</text>')

    for tid, name in threads:
        y = rows_y[tid]
        out.append(f'<text x="8" y="{y + 15}">{tid} {name}</text>')
        out.append(f'<line x1="{_LEFT}" y1="{y + _ROW_H}" '
                   f'x2="{x_of(ticks)}" y2="{y + _ROW_H}" '
                   f'stroke="#bbbbbb" stroke-width="1"/>')

    # the text of a segment's <rect> around its x, width and ticks, per
    # (thread, context, label): a trace repeats a few dozen of them
    pieces = {}
    chunks = []
    for batch in batches(records):
        for r in batch:
            label = r.label
            if label in _MARKS:
                if r.tick_start > ticks:
                    continue
                y = rows_y[r.thread_id]
                x = x_of(r.tick_start)
                if label == CTL_INT_ENTER:
                    out.append(f'<path d="M{x - 4} {y + 8} L{x + 4} {y + 8} '
                               f'L{x} {y}" fill="#202020"/>')
                elif label == CTL_INT_RETURN:
                    out.append(f'<path d="M{x - 4} {y} L{x + 4} {y} '
                               f'L{x} {y + 8}" fill="#202020"/>')
                else:  # PREEMPT
                    out.append(f'<path d="M{x - 4} {y - 2} L{x + 4} {y + 3} '
                               f'L{x - 4} {y + 8}" fill="#a02020"/>')
                continue
            start, end = r.tick_start, r.tick_end
            if end > start and start < ticks:
                key = (r.thread_id, r.thread_name, r.context_kind, label)
                try:
                    head, tail = pieces[key]
                except KeyError:
                    fid = LEGEND[r.context_kind][1]
                    head, tail = pieces[key] = (
                        f'" y="{rows_y[r.thread_id] + 4}" width="',
                        f'" height="{_ROW_H - 8}" fill="url(#{fid})" '
                        f'stroke="#404040" stroke-width="0.5">'
                        f'<title>{r.thread_name} {label} [')
                stop = end if end < ticks else ticks
                if r.repeat == 1:
                    out.append(f'<rect x="{_LEFT + start * _CELL_W}{head}'
                               f'{(stop - start) * _CELL_W}'
                               f'{tail}{start},{end})</title></rect>')
                else:
                    # one <rect> per row of a repeated record
                    etm = r.etm_ticks
                    out.extend([
                        f'<rect x="{_LEFT + t * _CELL_W}{head}'
                        f'{((t + etm if t + etm < stop else stop) - t) * _CELL_W}'
                        f'{tail}{t},{t + etm})</title></rect>'
                        for t in range(start, stop, etm)])
        out.append("")
        chunks.append("\n".join(out))
        out = []

    # legend strip
    lx = _LEFT
    ly = height - 14
    for key in ("TASK", "SVC", "BFM", "ISR", "CYC_HANDLER", "ALM_HANDLER",
                "IDLE"):
        fid = LEGEND[key][1]
        out.append(f'<rect x="{lx}" y="{ly - 10}" width="14" height="10" '
                   f'fill="url(#{fid})" stroke="#404040" stroke-width="0.5"/>')
        out.append(f'<text x="{lx + 18}" y="{ly}" fill="#333333">{key}</text>')
        lx += 22 + 8 * len(key)
    out += ['</svg>', ""]
    chunks.append("\n".join(out))
    return "".join(chunks)
