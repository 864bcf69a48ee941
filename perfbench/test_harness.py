"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import random
import sys
import types
from fractions import Fraction

import layers
from tracer import Probe, Tracer, install
from verdicts import canonical_digest, check_verdict, finding_codes, series_digest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class FakeClock:
    def __init__(self, *times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
    t = Tracer(clock=FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    t.enter(("outer",))
    t.enter(("a",))
    t.exit()
    t.enter(("b",))
    t.enter(("c",))
    t.exit()
    t.exit()
    t.exit()
    assert t.total == {"outer": 10, "a": 2, "b": 4, "c": 1}
    assert t.self_time == {"outer": 4, "a": 2, "b": 3, "c": 1}
    assert t.calls == {"outer": 1, "a": 1, "b": 1, "c": 1}
    assert t.closed == 4


def test_nested_spans_of_one_key_count_time_once():
    # f [0, 10] calls f [2, 5]; the group key g covers both.
    t = Tracer(clock=FakeClock(0, 2, 5, 10), sampled=("f",))
    t.enter(("f", "g"))
    t.enter(("f", "g"))
    t.exit()
    t.exit()
    assert t.total["f"] == 10 and t.total["g"] == 10
    assert t.self_time["f"] == 10
    assert t.calls["f"] == 2
    assert t.samples["f"] == [3, 10]


def test_install_wraps_every_binding_once_and_reports_absent_names():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def f(x):
        return x + 1

    class Box:
        def get(self):
            return 7

        alias = get

    core.f, core.Box = f, Box
    user.f = f
    pkg.f = f
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    try:
        t = Tracer()
        absent = install(t, (
            Probe("fakepkg.core", "f", ("core.f",)),
            Probe("fakepkg.core", "Box.get", ("core.get",)),
            Probe("fakepkg.core", "gone", ("core.gone",)),
        ), "fakepkg")
        assert core.f(1) == user.f(1) == pkg.f(1) == 2
        assert Box().get() == Box().alias() == 7
    finally:
        for name in mods:
            del sys.modules[name]
    assert absent == ["fakepkg.core:gone"]
    assert t.calls["core.f"] == 3
    assert t.calls["core.get"] == 2
    assert "core.gone" not in t.installed


def test_digest_does_not_depend_on_dict_order_or_number_type():
    from baileyforge.series import EvalContext, QSeries

    ctx = EvalContext(1, 20)
    rows = [(0, {0: Fraction(1)}), (3, {-1: Fraction(-2, 3), 1: Fraction(5)}), (7, {0: Fraction(4)})]
    forward = QSeries(ctx, {qe: dict(zd) for qe, zd in rows})
    backward = QSeries(ctx, {qe: dict(reversed(list(zd.items()))) for qe, zd in reversed(rows)})
    assert series_digest(forward) == series_digest(backward)

    triples = [(qe, ze, c) for qe, zd in rows for ze, c in zd.items()]
    shuffled = list(triples)
    random.Random(3).shuffle(shuffled)
    as_ints = [(qe, ze, int(c) if c.denominator == 1 else c) for qe, ze, c in shuffled]
    assert canonical_digest(triples) == canonical_digest(shuffled) == canonical_digest(as_ints)
    assert canonical_digest(triples) == series_digest(forward)
    assert canonical_digest(triples + [(9, 0, 0)]) == canonical_digest(triples)
    assert canonical_digest(triples[1:]) != canonical_digest(triples)


def test_verdict_check_compares_codes_and_positions_not_messages():
    report = types.SimpleNamespace(
        status="fail", detail=None,
        mismatch={"q_exp_num": 17, "q_exp_den": 1, "z_exp": 0, "lhs": "297", "rhs": "298"})
    want = {"status": "fail", "mismatch": {"q_exp": "17", "z_exp": 0, "lhs": "297", "rhs": "298"},
            "digests": [["a", "b"]]}
    assert check_verdict(want, report, [("a", "b")]) == []
    assert check_verdict(want, report, [("a", "c")]) != []
    report.mismatch = dict(report.mismatch, q_exp_num=18)
    assert check_verdict(want, report, [("a", "b")]) != []

    assert finding_codes("chain-no-growth: needs growth; pole: at q^0") == ["chain-no-growth", "pole"]
    error = types.SimpleNamespace(status="error", detail="chain-no-growth: reworded", mismatch=None)
    assert check_verdict({"status": "error", "code": "chain-no-growth"}, error, []) == []
    assert check_verdict({"status": "error", "code": "pole"}, error, []) != []


def test_benchmark_json_declares_the_reported_per_layer_metrics():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as fh:
        declared = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == \
        layers.per_layer_units()


def test_pass_time_is_scaled_by_the_median_reference_time():
    import run
    from calibrate import REFERENCE_S

    fast = {"verdict_wall_s": 6.0, "reference_times": [REFERENCE_S, 9.0, REFERENCE_S / 2]}
    slow = {"verdict_wall_s": 12.0, "reference_times": [2 * REFERENCE_S, 18.0, REFERENCE_S]}
    assert run.at_reference_speed(fast, "verdict_wall_s") == 6.0
    assert run.at_reference_speed(slow, "verdict_wall_s") == 6.0
