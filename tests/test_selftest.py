"""The case runner that every law suite takes its counts from, the
levels the suites declare, and each failure report of every suite."""

import json
import random
from types import SimpleNamespace

import pytest

from tamebox import cli, selftest
from tamebox.errors import NotTame, ValidationError
from tamebox.injections import QuasiAffineInjection
from tamebox.iset import FlatnessReport, is_flat
from tamebox.mset import CanonicalTameMSet, MElement, box, injection_mset
from tamebox.selftest import SUITES, Skip, Tally


def cases_of(*outcomes):
    """A case that, on its i-th run, raises outcome i if it is an
    exception and returns it otherwise."""
    queue = iter(outcomes)

    def case():
        outcome = next(queue)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return case


def test_a_draw_that_always_skips_runs_short():
    def outside():
        raise Skip("outside the domain")

    tally = Tally()
    tally.draws(outside, 2)
    assert (tally.ran, tally.skipped) == (0, 20)
    assert tally.failures == [
        "ran 0 of 2 cases in 20 draws; skipped 20 outside the domain"
    ]


@pytest.mark.parametrize("cases", [0, -1])
def test_fewer_than_one_case_is_an_input_error(cases):
    with pytest.raises(ValidationError):
        Tally().draws(lambda: None, cases)


def test_an_error_in_a_draw_is_a_failed_case_not_a_skip():
    def broken():
        raise NotTame("forced")

    tally = Tally()
    tally.draws(broken, 2)
    assert (tally.ran, tally.skipped) == (2, 0)
    assert tally.failures == ["case 0: forced", "case 1: forced"]


def test_fixed_instances_and_draws_are_one_case_each():
    tally = Tally()
    assert list(tally.each("ab")) == ["a", "b"]
    tally.draws(cases_of(None, Skip("odd"), None), 2)
    assert (tally.ran, tally.skipped, tally.failures) == (4, 1, [])


def test_a_failed_case_stops_none_of_the_later_ones():
    tally = Tally()
    tally.draws(cases_of("first", None, NotTame("second"), "third"), 4)
    assert (tally.ran, tally.skipped) == (4, 0)
    assert tally.failures == ["case 0: first", "case 2: second",
                              "case 3: third"]


def test_a_failure_is_labelled_with_its_case_counted_without_skips():
    tally = Tally()
    tally.draws(cases_of(Skip("odd"), None, Skip("odd"), "broken"), 2,
                "instance 2: ")
    assert (tally.ran, tally.skipped) == (2, 2)
    assert tally.failures == ["instance 2: case 1: broken"]


# a level-1 action whose points all have one-value supports, and an
# action with no points
LINE, EMPTY = injection_mset(1), CanonicalTameMSet({})
SHIFT = QuasiAffineInjection.affine(1, 1)


def _drawing(mset):
    return lambda rng, **sizes: mset


def test_a_case_reports_only_its_first_failure(monkeypatch):
    # both orbit-products checks fail on every case
    for name, value in [("random_mset", _drawing(LINE)),
                        ("orbit_product_bijection", lambda *a: (None, False)),
                        ("box", lambda *a: EMPTY)]:
        monkeypatch.setattr(selftest, name, value)
    tally = selftest.suite_orbit_products(random.Random(0), cases=2)
    assert tally.failures == ["case 0: no bijection of orbit sets",
                              "case 1: no bijection of orbit sets"]


def test_a_library_error_in_a_drawn_case_fails_the_case_not_the_run(
        monkeypatch, capsys):
    def broken(*args):
        raise NotTame("forced")

    monkeypatch.setattr(selftest, "box", broken)
    code = cli.main(["--deterministic", "selftest", "--seed", "5",
                     "--cases", "1"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["outcome"]) == (1, "fail")
    failed = {s["name"]: s["failures"] for s in report["value"]["suites"]
              if s["failures"]}
    assert failed == {name: ["case 0: forced"] for name in
                      ("box-oracle", "day-vs-box", "orbit-products")}


# every failure report of every suite, forced by replacing names that
# `tamebox.selftest` imports: (suite, replacements, cases run, failures)


def _still_box(X, Y, degree_bound):
    """The box product with an action that moves nothing."""
    XY = box(X, Y, degree_bound)
    XY.act = lambda f, z: z
    return XY


def _flipped_flatness(X, mode):
    return FlatnessReport(not is_flat(X, mode).flat, None)


UNIT = "unit"


def _summing(add, act=LINE.act):
    """A stand-in for the sum-laws presentations: the level-1 points of
    `LINE`, of which the suite draws four distinct ones, never the
    unit, summed by `add`."""
    P = SimpleNamespace(
        carrier=SimpleNamespace(elements_up_to=LINE.elements_up_to, act=act),
        unit=UNIT, level_cap=4, add=add)
    return {"trivial_from_abelian": lambda *a: P,
            "infinite_symmetric_product": lambda *a: P}


def _unital(add):
    """`add` with `UNIT` as its two-sided unit."""
    return lambda a, b: b if a == UNIT else a if b == UNIT else add(a, b)


def _union(a, b):
    """The sum as the set of its summands: a commutative monoid."""
    def leaves(s):
        return s if isinstance(s, frozenset) else frozenset({s})
    return leaves(a) | leaves(b)


def _halves(a, b):
    """`_union`, except that a sum of two sums keeps its halves: it
    breaks interchange and no law the suite checks before it."""
    if isinstance(a, frozenset) and isinstance(b, frozenset):
        return frozenset({a, b})
    return _union(a, b)


_x1, _x2 = LINE.elements_up_to(6)[:2]
_C = MElement(1, (1,), ("a",))  # a point the probes' action moves
_LEVELS = [f"level {k} size 0 != {3 ** k}" for k in range(6)]
_TERNARY = [f"ternary case {i}: verification failed at 3: forced"
            for i in range(10)]

FORCED = {
    "decomposition": (
        "decomposition-round-trip",
        {"random_mset": _drawing(LINE), "mset_iso_equal": lambda *a: False},
        1, [f"case 0: reconstruction differs from {LINE!r}"]),
    "pairing not injective": (
        "box-oracle",
        {"random_mset": _drawing(LINE), "box_pair": lambda x, y: 0},
        1, ["case 0: pairing not injective"]),
    "pairing off the table": (
        "box-oracle",
        {"random_mset": _drawing(LINE), "box_pair": lambda x, y: (x, y)},
        1, ["case 0: pairing misses the product table"]),
    "projections": (
        "box-oracle",
        {"random_mset": _drawing(LINE), "box_split": lambda z: None},
        1, ["case 0: projections fail to invert"]),
    "pairing action": (
        "box-oracle",
        {"random_mset": _drawing(LINE), "box": _still_box},
        1, ["case 0: action does not commute"]),
    "split": (
        "injection-split", {"injection_split_iso": lambda *a: (None, False)},
        21, [f"split at ({m}, {n}) not bijective"
             for m in range(6) for n in range(6 - m)]),
    "day": (
        "day-vs-box", {"mset_iso_equal": lambda *a: False},
        1, ["case 0: convolution differs from box"]),
    "flatness modes": (
        "flatness-modes",
        {"is_flat": lambda X, mode: FlatnessReport(mode == "direct", None)},
        5, ["case 0: modes disagree",
            "designated counterexample reported flat"]
        + [f"representable {m} reported non-flat" for m in range(3)]),
    "flatness witness": (
        "flatness-modes",
        {"is_flat": lambda X, mode: FlatnessReport(False, (3,))},
        5, ["counterexample witness not at level two"]
        + [f"representable {m} reported non-flat" for m in range(3)]),
    "counit and unit": (
        "adjunction",
        {"random_mset": _drawing(LINE),
         "OmegaColimit": lambda X: SimpleNamespace(classes=[]),
         "n_iso_check": lambda eta: False},
        2, ["case 0: counit not a bijection",
            "case 0: unit not a colimit bijection"]),
    "unit against flatness": (
        "adjunction", {"is_flat": _flipped_flatness},
        2, ["case 0: unit bijectivity mismatches flatness"]),
    "pushout": (
        "mono-pushout", {"mono_pushout_injective": lambda f, n: False},
        1, ["case 0: pushout not injective at 0"]),
    "certificates": (
        "agreement-certificates",
        {"verify_certificate": lambda *a: (False, 3, "forced")},
        11, ["case 0: verification failed at 3: forced", *_TERNARY]),
    "monoid algebra": (
        "monoid-algebra-round-trip",
        {"algebra_to_monoid": lambda A: SimpleNamespace(table=None,
                                                        unit_point=None),
         "pointwise_action": lambda phi, funcs: None},
        6, [f"instance {i}: round trip changed the table" for i in range(5)]
        + ["case 0: derived action differs from pointwise"]),
    "section and coequalizer": (
        "operadic-box-comparison",
        {"random_mset": _drawing(LINE),
         "operadic_to_box": lambda *a: object()},
        101, [f"case 0: section fails at {_x1}, {_x2}"]
        + [f"probe case {i}: coequalized action not respected"
           for i in range(100)]),
    "operadic equivariance": (
        "operadic-box-comparison",
        {"random_mset": _drawing(EMPTY),
         "operadic_to_box": lambda *a: (_C, _C),
         "random_quasi_affine": lambda rng: SHIFT},
        101, [f"probe case {i}: not equivariant" for i in range(100)]),
    "unit law": (
        "sum-laws", _summing(lambda a, b: None),
        5, [f"instance {i}: case 0: unit law" for i in range(5)]),
    "commutativity": (
        "sum-laws", _summing(_unital(lambda a, b: a)),
        5, [f"instance {i}: case 0: commutativity" for i in range(5)]),
    "associativity": (
        "sum-laws", _summing(_unital(lambda a, b: frozenset({a, b}))),
        5, [f"instance {i}: case 0: associativity" for i in range(5)]),
    "interchange": (
        "sum-laws", _summing(_unital(_halves)),
        5, [f"instance {i}: case 0: interchange" for i in range(5)]),
    "equivariance": (
        "sum-laws", _summing(_unital(_union), act=lambda f, e: None),
        5, [f"instance {i}: case 0: equivariance" for i in range(5)]),
    "wedge": (
        "wedge-products", {"wedge_iso": lambda *a: ({}, False)},
        8, ["wedge: comparison not a levelwise bijection",
            "wedge with a point: comparison not a levelwise bijection",
            *_LEVELS]),
    "orbit bijection": (
        "orbit-products",
        {"random_mset": _drawing(LINE),
         "orbit_product_bijection": lambda *a: (None, False),
         "injection_mset": lambda m: EMPTY},
        7, ["case 0: no bijection of orbit sets"]
        + [f"injections on {m} letters not connected" for m in range(6)]),
    "orbit counts": (
        "orbit-products",
        {"random_mset": _drawing(LINE),
         "orbit_product_bijection": lambda *a: (None, True),
         "box": lambda *a: EMPTY},
        7, ["case 0: orbit counts do not multiply"]),
}


@pytest.mark.parametrize("forced", FORCED)
def test_each_failure_report_names_its_case(monkeypatch, forced):
    name, replacements, ran, failures = FORCED[forced]
    for imported, value in replacements.items():
        monkeypatch.setattr(selftest, imported, value)
    tally = dict(SUITES)[name](random.Random(0), cases=1)
    assert tally.failures == failures
    assert tally.ran == ran


# the suites that build levels under the degree bound
BUDGETED = {name: suite for name, suite in SUITES if suite.top_level}


@pytest.mark.parametrize("name", BUDGETED)
def test_a_suite_passes_at_its_declared_top_level(name):
    suite = BUDGETED[name]
    tally = suite(random.Random(f"5:{name}"), cases=3,
                  degree_bound=suite.top_level)
    assert tally.failures == []


def test_timing_is_reported_unless_left_out(monkeypatch):
    def empty(rng, degree_bound, cases=None):
        return Tally()

    empty.top_level = 0
    monkeypatch.setattr(selftest, "SUITES", [("empty", empty)])
    report = selftest.run_selftest()
    assert report["suites"] == [
        {"name": "empty", "cases": 0, "skipped": 0, "failures": []}]
    assert type(report["elapsedMs"]) is int
    assert "elapsedMs" not in selftest.run_selftest(include_timing=False)
