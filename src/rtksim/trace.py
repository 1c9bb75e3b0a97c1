"""Trace records and sinks.

A run produces a flat stream of TraceRecord rows.  Segment rows cover a
half-open tick interval [tick_start, tick_end) during which exactly one
activity held the CPU; control rows are zero-width and mark scheduling
boundaries (dispatch, preemption, handler entry/return, critical
sections, blocking, exit).

A record with ``repeat`` k > 1 stands for k consecutive segment rows
that differ only in their ticks: each is ``etm_ticks`` wide and carries
``eem_uj``, and together they cover [tick_start, tick_end).  The engine
writes the rows of an idle stretch after its first that way.  Every
consumer here reads it as its k rows, so the CSV, report and Gantt
bytes are those of the expanded trace; ``rows`` expands a record stream
for any other consumer.

A record whose ``section`` names a context stands for the three rows of
a kernel service's critical section: a ``CRIT_ENTER`` row at its start,
the service's segment itself, and a ``CRIT_EXIT`` row at its end, both
control rows in that context.  The engine writes each section nothing
else was written in that way.  ``records_to_csv``, ``csv_row`` and
``rows`` expand it to its three rows.  The Gantt charts and the report
read it as its segment: they skip a zero-width row that is not a mark,
and the two control rows carry no energy.

A repeated record's CSV lines come from one renderer, shared by
``records_to_csv`` and ``TraceRecord.csv_row``, that builds no
``TraceRecord`` per row.  One-tick rows go 100 at a time: tick
``100*q + d`` with ``q >= 1`` is written ``str(q)`` and then ``d`` in
two digits, so the rows of ticks ``100*q`` to ``100*q + 99`` are
``str(q).join(pieces) + str(q + 1) + last``, one C-level join, where
``pieces`` and ``last`` depend only on the text after the two ticks and
are built once per call for each such text.  The rows before the first
whole block and after the last, the ticks below 100, a stretch of fewer
than two blocks and rows wider than a tick are formatted one by one.

``records_to_csv`` and the SVG Gantt read their records a batch at a
time (``batches``): a batch's lines are joined into one chunk, ended by
an empty last line, before the next batch is read, and the text is the
chunks joined.  So at the peak a text is held about twice, as its
chunks and their join, and no more than one batch's row strings live
beside them.

Energy is carried internally as integer micro-joules so accounting is
exact; the CSV renders milli-joules with trailing zeros trimmed.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from decimal import Decimal, DecimalException, Inexact, localcontext
from itertools import islice

CSV_HEADER = "tick_start,tick_end,thread_id,thread_name,context_kind,label,etm_ticks,eem_mJ,event_kind"

# labels used by zero-width control rows
CTL_DISPATCH = "DISPATCH"
CTL_PREEMPT = "PREEMPT"
CTL_BLOCK = "BLOCK"
CTL_EXIT = "EXIT"
CTL_INT_ENTER = "INT_ENTER"
CTL_INT_RETURN = "INT_RETURN"
CTL_CRIT_ENTER = "CRIT_ENTER"
CTL_CRIT_EXIT = "CRIT_EXIT"

CONTROL_LABELS = frozenset({
    CTL_DISPATCH, CTL_PREEMPT, CTL_BLOCK, CTL_EXIT,
    CTL_INT_ENTER, CTL_INT_RETURN, CTL_CRIT_ENTER, CTL_CRIT_EXIT,
})

_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")


def valid_name(name) -> bool:
    """A thread, device, access or label name: letters, digits, '_', '.'
    and '-' only, the whole string, so a trace CSV cell holds it as is."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def is_int(value) -> bool:
    """An integer and not a bool: `True` is an `int` to Python, but no
    count, id, size or width."""
    return isinstance(value, int) and not isinstance(value, bool)


def format_mj(uj: int) -> str:
    """Render integer micro-joules as a milli-joule decimal string."""
    sign = "-" if uj < 0 else ""
    uj = abs(uj)
    whole, frac = divmod(uj, 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:03d}".rstrip("0")


# The largest energy figure an input may give, in micro-joules (1e15 mJ,
# about 2.8e8 Wh).  It is checked before a Decimal becomes an int, which
# takes time quadratic in the exponent.
MAX_UJ = 10 ** 18


def to_uj(value, uj_per_unit: int) -> int:
    """Parse a figure (int, float or string) in a unit of ``uj_per_unit``
    micro-joules to micro-joules.

    Raises ValueError for anything else: a bool, a negative or non-finite
    figure, one past MAX_UJ, or one finer than micro-joule resolution.
    The product is exact: a figure whose digits do not fit the context
    is refused, never rounded to a whole count.
    """
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            with localcontext() as ctx:
                ctx.traps[Inexact] = True
                uj = Decimal(str(value)) * uj_per_unit
        except DecimalException:
            uj = None
        if (uj is not None and uj.is_finite() and 0 <= uj <= MAX_UJ
                and uj == int(uj)):
            return int(uj)
    raise ValueError(f"bad energy value: {value!r}")


@dataclass(slots=True)
class TraceRecord:
    """One trace row, ``repeat`` equal rows back to back, or a service's
    segment between the control rows of its critical section, whose
    context ``section`` names ("" for none).  A plain slotted dataclass:
    the engine builds one per segment and control row, a frozen one cost
    ~4x as much to build, and slots make it smaller and cheaper still.
    Nothing mutates a record after it is emitted."""

    tick_start: int
    tick_end: int
    thread_id: int
    thread_name: str
    context_kind: str
    label: str
    etm_ticks: int
    eem_uj: int
    event_kind: str
    repeat: int = 1
    section: str = ""

    @property
    def is_control(self) -> bool:
        return self.label in CONTROL_LABELS and self.etm_ticks == 0

    def csv_row(self) -> str:
        """The record's CSV line, or its rows' lines joined by newlines."""
        if self.section:
            return "\n".join(r.csv_row() for r in rows((self,)))
        tail = _tail(self.thread_id, self.thread_name, self.context_kind,
                     self.label, self.etm_ticks, self.eem_uj, self.event_kind)
        if self.repeat == 1:
            return f"{self.tick_start},{self.tick_end},{tail}"
        lines = []
        _extend_rows(lines, self, tail, {})
        return "\n".join(lines)


def _tail(tid, name, context, label, etm, uj, event) -> str:
    """A row's CSV text after its two ticks."""
    return f"{tid},{name},{context},{label},{etm},{format_mj(uj)},{event}"


_BLOCK = 100                   # one-tick rows joined at a time
_MIN_BLOCK_ROWS = 2 * _BLOCK   # a shorter stretch is formatted row by row


def _block_pieces(tail: str):
    """``(pieces, last)`` for the rows ending in ``tail`` of ticks
    ``100*q`` to ``100*q + 99``: the text between the places where
    ``str(q)`` goes, and what follows ``str(q + 1)``."""
    pieces = [""]
    for d in range(_BLOCK - 1):
        pieces += (f"{d:02d},", f"{d + 1:02d},{tail}\n")
    pieces.append("99,")
    return pieces, f"00,{tail}"


def _extend_rows(lines: list, r: TraceRecord, tail: str, blocks: dict) -> None:
    """Append the CSV lines of repeated record ``r``'s rows, whose text
    after the ticks is ``tail``, to ``lines``: one-tick rows a whole
    block to an item, ``blocks`` caching each tail's pieces, and the
    others one row to an item."""
    start, end, etm = r.tick_start, r.tick_end, r.etm_ticks
    if etm == 1 and end - start >= _MIN_BLOCK_ROWS:
        first = max(-(-start // _BLOCK), 1)   # no block of ticks below 100
        stop = end // _BLOCK
        try:
            pieces, last = blocks[tail]
        except KeyError:
            pieces, last = blocks[tail] = _block_pieces(tail)
        lines.extend([f"{t},{t + 1},{tail}"
                      for t in range(start, first * _BLOCK)])
        lines.extend([f"{str(q).join(pieces)}{q + 1}{last}"
                      for q in range(first, stop)])
        start = stop * _BLOCK
    lines.extend([f"{t},{t + etm},{tail}" for t in range(start, end, etm)])


def rows(records):
    """The records with each repeated or section one expanded into its
    rows."""
    for r in records:
        if r.section:
            start, end, tid, name = (r.tick_start, r.tick_end, r.thread_id,
                                     r.thread_name)
            yield TraceRecord(start, start, tid, name, r.section,
                              CTL_CRIT_ENTER, 0, 0, "")
            yield TraceRecord(start, end, tid, name, r.context_kind, r.label,
                              r.etm_ticks, r.eem_uj, r.event_kind)
            yield TraceRecord(end, end, tid, name, r.section,
                              CTL_CRIT_EXIT, 0, 0, "")
        elif r.repeat == 1:
            yield r
        else:
            etm = r.etm_ticks
            for t in range(r.tick_start, r.tick_end, etm):
                yield TraceRecord(t, t + etm, r.thread_id, r.thread_name,
                                  r.context_kind, r.label, etm, r.eem_uj,
                                  r.event_kind)


class NullSink:
    def record(self, rec: TraceRecord) -> None:
        pass

    def close(self) -> None:
        pass


class ListSink:
    def __init__(self):
        self.records: list[TraceRecord] = []
        # the list's own append, so a buffered record costs no Python frame
        self.record = self.records.append

    def close(self) -> None:
        pass


class CsvFileSink:
    """Writes the records to a CSV file in ``records_to_csv``'s bytes: it
    holds a batch of ``BATCH`` records and writes it as one chunk of
    text when it is full, and the records it holds at ``close``."""

    def __init__(self, path):
        self._fh: io.TextIOBase = open(path, "w", newline="\n")
        self._caches = {}, {}, {}
        self._lines = [CSV_HEADER]
        # filled in place, so a record costs no list method call
        self._batch = [None] * BATCH
        self._held = 0

    def record(self, rec: TraceRecord) -> None:
        held = self._held
        self._batch[held] = rec
        self._held = held = held + 1
        if held == BATCH:
            self._write()

    def _write(self) -> None:
        self._fh.write(_csv_chunk(self._lines, self._batch[:self._held],
                                  *self._caches))
        self._lines, self._held = [], 0

    def close(self) -> None:
        if not self._fh.closed:
            self._write()
            self._fh.close()


# records rendered and joined to one chunk at a time.  Peak RSS moves
# with it through the allocator, not monotonically: of 256 to 16384, 2048
# gave the lowest on a trace of ~14k records
BATCH = 2048


def batches(records):
    """``records`` in lists of ``BATCH``, then one shorter list, which may
    be empty.  A renderer joins each list's lines into one chunk, ended by
    an empty last line, before it takes the next, so no more than a
    batch's row strings are alive beside the chunks."""
    it = iter(records)
    while True:
        batch = list(islice(it, BATCH))
        yield batch
        if len(batch) < BATCH:
            return


def records_to_csv(records) -> str:
    """The whole trace as CSV text: the header, then ``csv_row()`` of
    each record, each line ending in a newline.

    A trace repeats a few dozen (thread, context, label, length, energy,
    event) combinations over thousands of rows, so each combination's
    text after the two ticks, its block pieces and its section's rows'
    text are formatted once.  The rows are joined a batch of records at
    a time (``batches``).
    """
    caches = {}, {}, {}
    chunks = []
    lines = [CSV_HEADER]
    for batch in batches(records):
        chunks.append(_csv_chunk(lines, batch, *caches))
        lines = []
    return "".join(chunks)


def _csv_chunk(lines: list, batch, tails: dict, blocks: dict,
               sections: dict) -> str:
    """``lines`` and the CSV lines of ``batch``'s records after them,
    joined into one chunk with each line ended by a newline.  ``tails``,
    ``blocks`` and ``sections`` cache a combination's text across the
    batches of one trace."""
    append = lines.append
    for r in batch:
        key = (r.thread_id, r.thread_name, r.context_kind, r.label,
               r.etm_ticks, r.eem_uj, r.event_kind)
        try:
            tail = tails[key]
        except KeyError:
            tail = tails[key] = _tail(*key)
        if r.section:
            key = (r.thread_id, r.thread_name, r.section)
            try:
                enter, leave = sections[key]
            except KeyError:
                enter, leave = sections[key] = (
                    _tail(*key, CTL_CRIT_ENTER, 0, 0, ""),
                    _tail(*key, CTL_CRIT_EXIT, 0, 0, ""))
            start, end = r.tick_start, r.tick_end
            append(f"{start},{start},{enter}\n{start},{end},{tail}\n"
                   f"{end},{end},{leave}")
        elif r.repeat == 1:
            append(f"{r.tick_start},{r.tick_end},{tail}")
        else:
            _extend_rows(lines, r, tail, blocks)
    append("")
    return "\n".join(lines)


def check_claims(records, length: int) -> None:
    """Raise ConsistencyError exactly when ``running_vector(records,
    length)`` would, in O(records) when no two segments overlap.

    A trace lists its segments in time order, so each one starts at or
    after tick 0 and the end of every segment before it.  Only a trace
    where that fails is handed to ``running_vector``, which finds the
    tick two threads claim, if there is one.
    """
    high = 0
    for r in records:
        start, end = r.tick_start, r.tick_end
        if end > start:
            if start < high:
                running_vector(records, length)
                return
            high = end


def running_vector(records, length: int) -> list[int | None]:
    """Per-tick thread assignment derived purely from segment records.

    Raises ConsistencyError if two segments claim the same tick; ticks
    nobody claims stay None.  ``check_claims`` makes the same check
    without building the vector.
    """
    from .errors import ConsistencyError

    vec: list[int | None] = [None] * length
    for r in records:
        if r.tick_end <= r.tick_start:
            continue
        for t in range(r.tick_start, min(r.tick_end, length)):
            if vec[t] is not None and vec[t] != r.thread_id:
                raise ConsistencyError(
                    f"tick {t} claimed by threads {vec[t]} and {r.thread_id}"
                )
            vec[t] = r.thread_id
    return vec
