"""The case runner that every law suite takes its counts from, and the
levels the suites declare."""

import random

import pytest

from tamebox.errors import NotTame, ValidationError
from tamebox.selftest import SUITES, Skip, Tally


def test_a_draw_that_always_skips_runs_short():
    def outside():
        raise Skip("outside the domain")

    tally = Tally()
    assert list(tally.draws(outside, 2)) == []
    assert (tally.ran, tally.skipped) == (0, 20)
    assert tally.failures == [
        "ran 0 of 2 cases in 20 draws; skipped 20 outside the domain"
    ]


@pytest.mark.parametrize("cases", [0, -1])
def test_fewer_than_one_case_is_an_input_error(cases):
    with pytest.raises(ValidationError):
        list(Tally().draws(lambda: 1, cases))


def test_an_error_in_a_draw_is_a_failed_case_not_a_skip():
    def broken():
        raise NotTame("forced")

    tally = Tally()
    assert list(tally.draws(broken, 2)) == []
    assert (tally.ran, tally.skipped) == (2, 0)
    assert tally.failures == ["case 0: forced", "case 1: forced"]


def test_fixed_instances_and_draws_are_one_case_each():
    tally = Tally()
    draws = iter([1, Skip("odd"), 2])

    def draw():
        d = next(draws)
        if isinstance(d, Skip):
            raise d
        return d

    assert list(tally.each("ab")) + list(tally.draws(draw, 2)) == [
        "a", "b", 1, 2]
    assert (tally.ran, tally.skipped, tally.failures) == (4, 1, [])


# the suites that build levels under the degree bound
BUDGETED = {name: suite for name, suite in SUITES if suite.top_level}


@pytest.mark.parametrize("name", BUDGETED)
def test_a_suite_passes_at_its_declared_top_level(name):
    suite = BUDGETED[name]
    tally = suite(random.Random(f"5:{name}"), cases=3,
                  degree_bound=suite.top_level)
    assert tally.failures == []


def test_timing_is_reported_unless_left_out(monkeypatch):
    from tamebox import selftest

    def empty(rng, degree_bound, cases=None):
        return Tally()

    empty.top_level = 0
    monkeypatch.setattr(selftest, "SUITES", [("empty", empty)])
    report = selftest.run_selftest()
    assert report["suites"] == [
        {"name": "empty", "cases": 0, "skipped": 0, "failures": []}]
    assert type(report["elapsedMs"]) is int
    assert "elapsedMs" not in selftest.run_selftest(include_timing=False)
