"""Acceptance criteria, one test per criterion.

All checks are exact (tolerance zero): they compare finite structures
for equality or bijectivity.  Each test prints one pass/fail line; run
with -s to see them.  The underlying suites live in tamebox.selftest
so the command line exercises the identical checks.
"""

import random

from tamebox import selftest as st


def criterion(number, name, fn, rng_tag, declared, **kwargs):
    """Run the suite and check that it passed on exactly `declared`
    cases, the count its comment gives."""
    rng = random.Random(f"acceptance:{rng_tag}")
    tally = fn(rng, **kwargs)
    status = "PASS" if not tally.failures else "FAIL"
    print(f"{status} criterion {number}: {name} "
          f"({tally.ran} cases, {tally.skipped} skipped)")
    assert not tally.failures, tally.failures[:5]
    assert tally.ran == declared


def test_criterion_01_decomposition_round_trip():
    # 100 seeded actions with levels <= 4, window 8: decomposing the
    # element table recovers the same levelwise isomorphism type
    criterion(1, "decomposition round trip",
              st.suite_decomposition_round_trip, "decompose", 100,
              cases=100, window=8)


def test_criterion_02_box_oracle():
    # 50 pairs: the pairing bijects brute-force disjoint pairs at
    # window 6 onto the product table; 20 action probes per pair
    criterion(2, "box pairing against brute force",
              st.suite_box_oracle, "box", 50, cases=50, window=6)


def test_criterion_03_injection_split():
    # the 21 pairs with m+n <= 5, window 7
    criterion(3, "injection splitting bijection",
              st.suite_injection_split, "split", 21, window=7)


def test_criterion_04_day_vs_box():
    # 20 random truncated pairs at N=5
    criterion(4, "convolution matches box product",
              st.suite_day_vs_box, "day", 20, cases=20, window=5)


def test_criterion_05_flatness_modes():
    # 100 random diagrams at N=4 plus the designated counterexample
    # (witness at level 2) and the representables of degree 0, 1, 2
    criterion(5, "flatness criteria agree",
              st.suite_flatness_modes, "flat", 100 + 1 + 3,
              cases=100, window=4)


def test_criterion_05_flatness_modes_deep():
    # the same at N=8, where the direct route reads the count of the
    # generators tabulated with each level instead of trying every
    # pair of subsets
    criterion(5, "flatness criteria agree at depth",
              st.suite_flatness_modes, "flat", 100 + 1 + 3,
              cases=100, window=8)


def test_criterion_06_adjunction():
    # 50 counit bijections, 50 unit checks with flatness detection
    criterion(6, "colimit adjunction",
              st.suite_adjunction, "adjunction", 50 + 50,
              cases=50, window=4)


def test_criterion_07_mono_pushout():
    # 30 levelwise monomorphisms between flat diagrams, n <= 4
    criterion(7, "latching pushouts stay injective",
              st.suite_mono_pushout, "pushout", 30, cases=30, window=4)


def test_criterion_08_agreement_certificates():
    # 50 binary pairs with |A_i| <= 3, plus 10 ternary instances
    criterion(8, "agreement certificates verify",
              st.suite_agreement_certificates, "certs", 50 + 10, cases=50)


def test_criterion_09_monoid_algebra_round_trip():
    # cyclic tables for k in {2,3,4}, two symmetric products with at
    # most three letters, 100 random pointwise comparisons
    criterion(9, "monoid and algebra determine each other",
              st.suite_monoid_algebra_round_trip, "roundtrip", 3 + 2 + 100,
              cases=100)


def test_criterion_10_operadic_box_comparison():
    # sections over the full window-6 tables of 20 pairs, plus 100
    # equivariance and coequalization probes
    criterion(10, "operadic pairing inverts onto the box product",
              st.suite_operadic_box_comparison, "chi", 20 + 100,
              cases=20, window=6)


def test_criterion_11_sum_laws():
    # 200 random cases on each of five presentation instances
    criterion(11, "sum laws with interchange",
              st.suite_sum_laws, "sums", 5 * 200, cases=200)


def test_criterion_12_wedge_products():
    # the comparison up to level 5 for a two-point and a three-point
    # set, and for a three-point set and a point; the first has
    # (1+2)^k points at each level k <= 5
    criterion(12, "wedge of symmetric products",
              st.suite_wedge_products, "wedge", 2 + 6, window=5)


def test_criterion_13_orbit_products():
    # 50 pairs with an explicit orbit bijection; single orbits for the
    # injection actions up to degree 5
    criterion(13, "orbit sets multiply",
              st.suite_orbit_products, "orbits", 50 + 6, cases=50)
