"""Consumed time/energy distribution and battery projection.

Everything here is a pure function over completed trace records, invoked
after a run.  All arithmetic is exact: energies are integer microjoules,
shares are Fractions, and rounding happens only at the final rendering
step (half-even, two decimal places for percentages).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .trace import format_mj, is_int

__all__ = [
    "ThreadUsage",
    "BatteryModel",
    "DistributionReport",
    "usage_from_records",
    "build_report",
    "render_text",
    "render_json",
]

UJ_PER_WH = 3_600_000_000
DEFAULT_CAPACITY_WH = 10


@dataclass(frozen=True)
class ThreadUsage:
    thread_id: int
    name: str
    cet: int      # consumed ticks
    cee_uj: int   # consumed microjoules


def usage_from_records(records) -> tuple:
    """Aggregate per-thread CET/CEE from a record stream.

    Control rows are zero-width and carry no energy, so summing over
    everything is safe.  A record with ``repeat`` k spans its k rows'
    ticks and carries k times their energy.
    """
    totals: dict[int, list] = {}   # thread id -> [name, cet, cee_uj]
    for r in records:
        try:
            acc = totals[r.thread_id]
        except KeyError:
            acc = totals[r.thread_id] = [r.thread_name, 0, 0]
        acc[1] += r.tick_end - r.tick_start
        acc[2] += r.eem_uj * r.repeat
    return tuple(
        ThreadUsage(tid, *totals[tid])
        for tid in sorted(totals)
    )


def round_fraction(fr: Fraction, places: int) -> str:
    """Exact fixed-point rendering with banker's rounding."""
    n, d = fr.numerator, fr.denominator
    sign = "-" if n < 0 else ""
    n = abs(n)
    q, r = divmod(n * 10 ** places, d)
    if 2 * r > d or (2 * r == d and q % 2 == 1):
        q += 1
    digits = str(q).rjust(places + 1, "0")
    if places == 0:
        return sign + digits if q else digits
    text = f"{digits[:-places]}.{digits[-places:]}"
    return sign + text if q else text


class BatteryModel:
    """Fixed energy budget drained by the observed consumption."""

    def __init__(self, capacity_uj: int):
        if not is_int(capacity_uj) or capacity_uj < 1:
            raise ValidationError("battery capacity must be at least 1 uJ")
        self.capacity_uj = capacity_uj

    @classmethod
    def from_wh(cls, wh: int = DEFAULT_CAPACITY_WH) -> "BatteryModel":
        return cls(wh * UJ_PER_WH)

    def remaining_fraction(self, consumed_uj: int) -> Fraction:
        return Fraction(self.capacity_uj - consumed_uj, self.capacity_uj)

    def lifespan_ticks(self, consumed_uj: int, elapsed_ticks: int):
        """Ticks until depletion at the window's average power.

        None means the window consumed nothing, so the projection is
        unbounded.
        """
        if elapsed_ticks < 1:
            raise ValidationError("projection window must cover at least 1 tick")
        if consumed_uj == 0:
            return None
        return Fraction(self.capacity_uj * elapsed_ticks, consumed_uj)


@dataclass(frozen=True)
class DistributionReport:
    run_ticks: int
    tick_us: int
    threads: tuple              # ThreadUsage rows, id-ascending
    total_cet: int
    total_cee_uj: int
    capacity_uj: int
    remaining: Fraction
    lifespan_ticks: Fraction | None   # None when nothing was consumed

    def time_share(self, usage: ThreadUsage) -> Fraction:
        if self.total_cet == 0:
            return Fraction(0)
        return Fraction(usage.cet * 100, self.total_cet)

    def energy_share(self, usage: ThreadUsage) -> Fraction:
        if self.total_cee_uj == 0:
            return Fraction(0)
        return Fraction(usage.cee_uj * 100, self.total_cee_uj)


def build_report(usages, *, run_ticks: int, tick_us: int = 1000,
                 battery_uj: int | None = None) -> DistributionReport:
    if not is_int(run_ticks) or run_ticks < 1:
        raise ValidationError("report window must cover at least 1 tick")
    if not is_int(tick_us) or tick_us < 1:
        raise ValidationError("a tick must last an integer >= 1 us")
    battery = (BatteryModel(battery_uj) if battery_uj is not None
               else BatteryModel.from_wh())
    usages = tuple(sorted(usages, key=lambda u: u.thread_id))
    total_cet = sum(u.cet for u in usages)
    total_cee = sum(u.cee_uj for u in usages)
    return DistributionReport(
        run_ticks=run_ticks,
        tick_us=tick_us,
        threads=usages,
        total_cet=total_cet,
        total_cee_uj=total_cee,
        capacity_uj=battery.capacity_uj,
        remaining=battery.remaining_fraction(total_cee),
        lifespan_ticks=battery.lifespan_ticks(total_cee, run_ticks),
    )


def _lifespan_str(lifespan) -> str:
    if lifespan is None:
        return "infinite"
    if lifespan.denominator == 1:
        return str(lifespan.numerator)
    return round_fraction(lifespan, 12)


def render_text(rep: DistributionReport) -> str:
    time_unit = "ms" if rep.tick_us == 1000 else "ticks"
    head = ["Consumed Time/Energy Distribution",
            f"Window : {rep.run_ticks} ticks (1 tick = {rep.tick_us} us)"]

    rows = [("Thread", f"CET({time_unit})", "CEE(mJ)", "Time%", "Energy%")]
    for u in rep.threads:
        rows.append((
            f"{u.thread_id} {u.name}",
            str(u.cet),
            format_mj(u.cee_uj),
            round_fraction(rep.time_share(u), 2),
            round_fraction(rep.energy_share(u), 2),
        ))
    rows.append(("Total", str(rep.total_cet), format_mj(rep.total_cee_uj),
                 "", ""))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    body = []
    for r in rows:
        line = r[0].ljust(widths[0])
        for i in range(1, 5):
            line += "  " + r[i].rjust(widths[i])
        body.append(line.rstrip())

    pct = round_fraction(rep.remaining * 100, 2)
    battery = [
        f"Battery : capacity {format_mj(rep.capacity_uj)} mJ, "
        f"consumed {format_mj(rep.total_cee_uj)} mJ",
        f"Remaining : {pct}% "
        f"({rep.remaining.numerator}/{rep.remaining.denominator} exact)",
        ("Projected lifespan : infinite" if rep.lifespan_ticks is None else
         f"Projected lifespan : {_lifespan_str(rep.lifespan_ticks)} ticks"),
    ]
    return "\n".join([*head, *body, *battery, ""])


def render_json(rep: DistributionReport) -> str:
    payload = {
        "run_ticks": rep.run_ticks,
        "tick_us": rep.tick_us,
        "threads": [
            {
                "id": u.thread_id,
                "name": u.name,
                "cet_ticks": u.cet,
                "cee_mj": format_mj(u.cee_uj),
                "time_pct": round_fraction(rep.time_share(u), 2),
                "energy_pct": round_fraction(rep.energy_share(u), 2),
            }
            for u in rep.threads
        ],
        "totals": {
            "cet_ticks": rep.total_cet,
            "cee_mj": format_mj(rep.total_cee_uj),
        },
        "battery": {
            "capacity_mj": format_mj(rep.capacity_uj),
            "consumed_mj": format_mj(rep.total_cee_uj),
            "remaining_pct": round_fraction(rep.remaining * 100, 2),
            "remaining_exact": [rep.remaining.numerator,
                                rep.remaining.denominator],
            "lifespan_ticks": _lifespan_str(rep.lifespan_ticks),
        },
    }
    return json.dumps(payload, indent=2) + "\n"
