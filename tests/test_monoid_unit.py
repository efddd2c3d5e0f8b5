"""Reduction 4 of tamebox.opalg.CommMonoidPresentation: the unit needs
no law checks and no sums.  The derived action, whose sum starts at the
first slot's image, against the unit-first action kept in
monoid_oracle: on the block-sum element of every pair that
`algebra_table` sums, and on random operad elements of arity 0-3, with
the class and message of any error compared as well."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoid_oracle as oracle
from test_monoid_kernel import instances
from tamebox.errors import TameboxError
from tamebox.injections import OperadElement, PartialInjection
from tamebox.opalg import algebra_table, monoid_to_algebra, std_element


def outcome(run):
    """The value of run(), or the class and message of its error."""
    try:
        return run()
    except TameboxError as e:
        return type(e), str(e)


def both_actions(P, phi, elements):
    A = monoid_to_algebra(P)
    return (outcome(lambda: A(phi, elements)),
            outcome(lambda: oracle.unit_first_action(P, phi, elements)))


@pytest.mark.parametrize("label", sorted(instances()))
def test_block_sums_match_unit_first_action(label):
    P = instances()[label]
    reps = P.carrier.orbit_set()
    count = 0
    for m, ra in reps:
        for n, rb in reps:
            if m + n > P.level_cap:
                continue
            phi = OperadElement([
                PartialInjection.identity_on(range(1, m + 1)),
                PartialInjection({j: m + j for j in range(1, n + 1)}),
            ])
            args = [std_element(m, ra), std_element(n, rb)]
            new, old = both_actions(P, phi, args)
            assert new == old == P.table[((m, ra), (n, rb))]
            count += 1
    assert count == len(P.table)
    assert algebra_table(monoid_to_algebra(P)) == (P.unit_point, P.table)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.integers(0, 10**6))
def test_random_operad_elements_match_unit_first_action(seed):
    # slots are injections of {1..3} into 1..12 with disjoint images;
    # levels may add up past the cap, where both must raise alike
    rng = random.Random(seed)
    P = instances()[rng.choice(sorted(instances()))]
    pool = P.carrier.elements_up_to(3)
    arity = rng.randint(0, 3)
    values = rng.sample(range(1, 13), 3 * arity)
    phi = OperadElement([
        PartialInjection({k + 1: v for k, v in enumerate(values[3 * i:3 * i + 3])})
        for i in range(arity)
    ])
    elements = [rng.choice(pool) for _ in range(arity)]
    new, old = both_actions(P, phi, elements)
    assert new == old
