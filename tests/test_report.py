"""Distribution reports: exact arithmetic, rounding, battery projection."""

import json
from fractions import Fraction

import pytest

from rtksim.engine import Annotation
from rtksim.errors import ValidationError
from rtksim.kernel import Kernel
from rtksim.report import (
    UJ_PER_WH,
    BatteryModel,
    ThreadUsage,
    build_report,
    render_json,
    render_text,
    round_fraction,
    usage_from_records,
)
from rtksim.trace import ListSink


def test_microjoules_per_watt_hour():
    assert UJ_PER_WH == 3_600_000_000


# ----------------------------------------------------------------------
# aggregation

def test_usage_matches_the_engine_accumulators():
    k = Kernel()
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)

    def body(ctx):
        yield from ctx.api.wait(Annotation("w", 3, 10))

    k.declare_task(1, "A", 5, body)
    k.boot()
    k.run(10)
    k.finish()     # flush the idle thread's still-open segment

    usages = {u.thread_id: u for u in usage_from_records(sink.records)}
    for tid in (1, k.idle_id):
        th = k.engine.thread(tid)
        assert usages[tid].cet == th.token.cet
        assert usages[tid].cee_uj == th.token.cee_uj
        assert usages[tid].name == th.name
    assert sum(u.cet for u in usages.values()) == 10


# ----------------------------------------------------------------------
# rounding

@pytest.mark.parametrize("fr,places,text", [
    (Fraction(1, 8), 2, "0.12"),      # 12.5 rounds to the even 12
    (Fraction(3, 8), 2, "0.38"),      # 37.5 rounds to the even 38
    (Fraction(1, 4), 2, "0.25"),
    (Fraction(-1, 8), 2, "-0.12"),
    (Fraction(1, 2), 0, "0"),
    (Fraction(3, 2), 0, "2"),
    (Fraction(100), 2, "100.00"),
    (Fraction(1000, 3), 12, "333.333333333333"),
])
def test_round_fraction_is_half_even(fr, places, text):
    assert round_fraction(fr, places) == text


# ----------------------------------------------------------------------
# battery model

def test_capacity_must_be_a_positive_integer():
    with pytest.raises(ValidationError):
        BatteryModel(0)
    with pytest.raises(ValidationError):
        BatteryModel("big")


@pytest.mark.parametrize("call", [
    lambda: BatteryModel(True),
    lambda: build_report((), run_ticks=True),
    lambda: build_report((), run_ticks=5, tick_us=True),
    lambda: build_report((), run_ticks=5, tick_us="x"),
    lambda: build_report((), run_ticks=5, tick_us=0),
    lambda: build_report((), run_ticks=5, tick_us=2.5),
    lambda: build_report((), run_ticks=5, battery_uj=True),
], ids=["capacity-bool", "window-bool", "tick-bool", "tick-str", "tick-0",
        "tick-float", "battery-bool"])
def test_the_report_takes_only_integers(call):
    # checked with trace.is_int, as the kernel checks its own: `True`
    # would render as "Window : True ticks (1 tick = True us)"
    with pytest.raises(ValidationError):
        call()


def test_default_capacity_is_ten_watt_hours():
    assert BatteryModel.from_wh().capacity_uj == 36_000_000_000


def test_lifespan_anchor_one_millijoule_per_tick():
    # 10 Wh drained at 1 mJ per 1 ms tick lasts exactly 36 000 000 ticks
    battery = BatteryModel.from_wh(10)
    for window in (1, 7, 1000):
        life = battery.lifespan_ticks(1000 * window, window)
        assert life == Fraction(36_000_000)
        assert life.denominator == 1


def test_lifespan_requires_a_window_and_handles_idle_runs():
    battery = BatteryModel.from_wh(10)
    assert battery.lifespan_ticks(0, 500) is None
    with pytest.raises(ValidationError, match="at least 1 tick"):
        battery.lifespan_ticks(5, 0)


def test_remaining_fraction_is_exact():
    battery = BatteryModel(1000)
    assert battery.remaining_fraction(3) == Fraction(997, 1000)


# ----------------------------------------------------------------------
# report building

USAGES = (
    ThreadUsage(2, "IDLE", 7, 0),
    ThreadUsage(1, "A", 3, 10_000),
)


def test_build_report_totals_and_ordering():
    rep = build_report(USAGES, run_ticks=10)
    assert [u.thread_id for u in rep.threads] == [1, 2]
    assert rep.total_cet == 10
    assert rep.total_cee_uj == 10_000
    assert rep.capacity_uj == 36_000_000_000
    assert rep.remaining == Fraction(3_599_999, 3_600_000)
    assert rep.lifespan_ticks == 36_000_000


def test_build_report_validates_the_window():
    with pytest.raises(ValidationError, match="at least 1 tick"):
        build_report(USAGES, run_ticks=0)


def test_shares_with_nothing_consumed():
    rep = build_report((), run_ticks=3)
    assert rep.total_cet == 0
    assert rep.lifespan_ticks is None
    u = ThreadUsage(1, "A", 0, 0)
    assert rep.time_share(u) == 0
    assert rep.energy_share(u) == 0


# ----------------------------------------------------------------------
# rendering

GOLDEN = """\
Consumed Time/Energy Distribution
Window : 10 ticks (1 tick = 1000 us)
Thread  CET(ms)  CEE(mJ)  Time%  Energy%
1 A           3       10  30.00   100.00
2 IDLE        7        0  70.00     0.00
Total        10       10
Battery : capacity 36000000 mJ, consumed 10 mJ
Remaining : 100.00% (3599999/3600000 exact)
Projected lifespan : 36000000 ticks
"""


def test_text_report_matches_golden():
    rep = build_report(USAGES, run_ticks=10)
    assert render_text(rep) == GOLDEN


def test_nondefault_tick_relabels_the_time_column():
    rep = build_report(USAGES, run_ticks=10, tick_us=250)
    text = render_text(rep)
    assert "CET(ticks)" in text
    assert "1 tick = 250 us" in text


def test_idle_only_run_projects_infinite_lifespan():
    rep = build_report((ThreadUsage(1, "IDLE", 5, 0),), run_ticks=5)
    text = render_text(rep)
    assert "Projected lifespan : infinite\n" in text
    assert "infinite ticks" not in text


def test_fractional_lifespan_is_rendered_to_twelve_places():
    rep = build_report((ThreadUsage(1, "A", 1, 3),), run_ticks=1,
                       battery_uj=1000)
    assert "Projected lifespan : 333.333333333333 ticks" in render_text(rep)


def test_json_report_shape():
    rep = build_report(USAGES, run_ticks=10)
    text = render_json(rep)
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["run_ticks"] == 10
    assert [t["id"] for t in data["threads"]] == [1, 2]
    assert data["threads"][0] == {
        "id": 1, "name": "A", "cet_ticks": 3, "cee_mj": "10",
        "time_pct": "30.00", "energy_pct": "100.00",
    }
    assert data["totals"] == {"cet_ticks": 10, "cee_mj": "10"}
    assert data["battery"]["remaining_exact"] == [3_599_999, 3_600_000]
    assert data["battery"]["lifespan_ticks"] == "36000000"
