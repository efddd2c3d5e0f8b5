"""The law suites: every headline property as a seeded, reproducible
check with its own independent oracle.

`@suite` enters each one in `SUITES`, in report order, as a function of
a random stream and case counts that returns its `Tally`: the cases it
ran, the draws it skipped and its failure descriptions.  Each instance
checked, drawn or fixed, is one case.  A drawn case draws, checks and
returns its failure or None; `Tally.draws` redraws it on `Skip` (a draw
outside the law's domain), takes a library error for its failure and
labels the failure.  Each suite declares the highest level that its
`box`, `decompose_table` and `canonicalize` calls build, so that
`run_selftest` refuses a degree bound below it before any suite runs;
it aggregates the tallies into a deterministic report keyed by suite
name.
"""

from __future__ import annotations

import functools
import inspect
import random
import time
from collections import Counter

from .errors import (
    DegreeTooLarge,
    TameboxError,
    TruncationExceeded,
    ValidationError,
    WindowTooSmall,
)
from .generators import (
    disjoint_lanes,
    random_agreeing_pair,
    random_iset,
    random_mset,
    random_prescribed_pair,
    random_quasi_affine,
    random_sub_mset,
)
from .injections import OperadElement, PartialInjection
from .iset import (
    ISetMorphism,
    OmegaColimit,
    canonicalize,
    day_convolution,
    flat_replacement,
    is_flat,
    mono_pushout_injective,
    n_iso_check,
    representable_iset,
    restriction_coequalizer,
    support_filtration,
)
from .mset import (
    DEFAULT_DEGREE_BOUND,
    box,
    box_pair,
    box_split,
    decompose_table,
    injection_mset,
    injection_split_iso,
    mset_iso_equal,
    orbit_product_bijection,
    support,
)
from .opalg import (
    algebra_to_monoid,
    box_to_operadic,
    certify_agreement,
    cyclic_monoid,
    element_to_function,
    function_to_element,
    infinite_symmetric_product,
    monoid_to_algebra,
    operadic_to_box,
    pointwise_action,
    trivial_from_abelian,
    verify_certificate,
    wedge_iso,
)


class Skip(Exception):
    """A draw outside the law's domain; the message names the reason."""


class Tally:
    """The cases a suite ran, the draws it skipped and its failures."""

    def __init__(self):
        self.ran, self.skipped, self.failures = 0, 0, []

    def fail(self, message):
        self.failures.append(message)

    def each(self, instances):
        """Yield fixed instances, one case each."""
        for instance in instances:
            self.ran += 1
            yield instance

    def draws(self, case, cases, label=""):
        """Run `cases` cases of `case()`, redrawing skips, in at most ten
        draws per case.  Record case i's failure or library error as
        `{label}case {i}: ...`, and running short as the skips by reason."""
        if cases < 1:
            raise ValidationError("at least one case per suite",
                                  f"cases={cases}")
        done, attempts, skips = 0, 0, Counter()
        while done < cases and attempts < 10 * cases:
            attempts += 1
            try:
                failure = case()
            except Skip as e:
                skips[str(e)] += 1
                self.skipped += 1
                continue
            except TameboxError as e:
                failure = str(e)
            if failure is not None:
                self.fail(f"{label}case {done}: {failure}")
            done += 1
            self.ran += 1
        if done < cases:
            named = " and ".join(f"{n} {why}" for why, n in skips.items())
            self.fail(f"{label}ran {done} of {cases} cases in {attempts} "
                      f"draws; skipped {named}")


SUITES = []  # (name, suite) pairs in report order

# given to a check only when its signature names them
SHARED = ("rng", "cases", "degree_bound")


def suite(name, top_level=0):
    """Enter the decorated `check(tally, ...)` in `SUITES` as the suite
    `name`, a function `(rng, **sizes) -> Tally` with `top_level` as an
    attribute: the highest level that the check's `box`,
    `decompose_table` and `canonicalize` calls build, 0 if none."""

    def register(check):
        named = inspect.signature(check).parameters

        @functools.wraps(check)
        def run(rng, **sizes):
            given = {"rng": rng, **sizes}
            tally = Tally()
            check(tally, **{k: v for k, v in given.items()
                            if k in named or k not in SHARED})
            return tally

        run.top_level = top_level
        SUITES.append((name, run))
        return run

    return register


def _random_partial(rng, domain, value_range):
    values = rng.sample(range(1, value_range + 1), len(domain))
    return PartialInjection(dict(zip(domain, values)))


def _msets(rng, levels, points):
    """Random actions, one per top level in `levels`."""
    return [random_mset(rng, max_level=m, max_points=points)
            for m in levels]


@suite("decomposition-round-trip", top_level=4)
def suite_decomposition_round_trip(tally, rng, cases=100, window=8,
                                   degree_bound=DEFAULT_DEGREE_BOUND):
    """Tables of window elements decompose back to the same form."""
    def case():
        X = random_mset(rng, max_level=4, max_points=5)
        Y = decompose_table(X, window, degree_bound=degree_bound)
        if not mset_iso_equal(X, Y):
            return f"reconstruction differs from {X!r}"

    tally.draws(case, cases)


@suite("box-oracle", top_level=2 + 3)
def suite_box_oracle(tally, rng, cases=50, window=6,
                     degree_bound=DEFAULT_DEGREE_BOUND):
    """The pairing bijects disjoint pairs onto the product table and
    commutes with the action through both projections."""
    def case():
        X, Y = _msets(rng, (2, 3), 3)
        XY = box(X, Y, degree_bound)
        pairs = [(x, y) for x in X.elements_up_to(window)
                 for y in Y.elements_up_to(window)
                 if not support(x) & support(y)]
        paired = [box_pair(x, y) for x, y in pairs]
        table = XY.elements_up_to(window)
        if len(set(paired)) != len(paired):
            return "pairing not injective"
        if set(paired) != set(table):
            return "pairing misses the product table"
        if any(box_split(z) != pair for pair, z in zip(pairs, paired)):
            return "projections fail to invert"
        for _ in range(20 if table else 0):
            z = rng.choice(table)
            f = _random_partial(rng, range(1, window + 1), window + 4)
            x, y = box_split(z)
            zx, zy = box_split(XY.act(f, z))
            if zx != X.act(f, x) or zy != Y.act(f, y):
                return "action does not commute"

    tally.draws(case, cases)


@suite("injection-split")
def suite_injection_split(tally, window=7):
    """Splitting an injection into two blocks is a bijection onto the
    disjointly supported pairs."""
    for m, n in tally.each((m, n) for m in range(6) for n in range(6 - m)):
        if not injection_split_iso(m, n, window)[1]:
            tally.fail(f"split at ({m}, {n}) not bijective")


@suite("day-vs-box", top_level=2)
def suite_day_vs_box(tally, rng, cases=20, window=5,
                     degree_bound=DEFAULT_DEGREE_BOUND):
    """Convolution then canonicalization agrees with the box product of
    the canonicalizations.  Draws that leave the window are skipped."""
    # stability levels summing to at most 2, the suite's top level
    shapes = [(0, 1), (1, 1), (1, 0), (2, 0), (0, 2), (0, 0)]

    def case():
        a, b = rng.choice(shapes)
        try:
            X = random_iset(rng, window, a)
            Y = random_iset(rng, window, b)
            XY = day_convolution(X, Y)
            if 2 * XY.stable_from > window:
                raise Skip("with product stability beyond half the window "
                           f"{window}")
            lhs = canonicalize(XY, degree_bound)
            rhs = box(canonicalize(X, degree_bound),
                      canonicalize(Y, degree_bound), degree_bound)
        except TruncationExceeded:
            raise Skip("past the truncation") from None
        if not mset_iso_equal(lhs, rhs):
            return "convolution differs from box"

    tally.draws(case, cases)


@suite("flatness-modes")
def suite_flatness_modes(tally, rng, cases=100, window=4):
    """Latching injectivity and the count of generators agree, with
    the designated counterexample failing at level two."""
    def case():
        X = random_iset(rng, window, 2)
        if is_flat(X, "latching").flat != is_flat(X, "direct").flat:
            return "modes disagree"

    tally.draws(case, cases)
    for Q in tally.each([restriction_coequalizer(window)]):
        lat, direct = is_flat(Q, "latching"), is_flat(Q, "direct")
        if lat.flat or direct.flat:
            tally.fail("designated counterexample reported flat")
        elif lat.witness[0] != 2:
            tally.fail("counterexample witness not at level two")
    for m in tally.each(range(3)):
        if not is_flat(representable_iset(m, window), "both").flat:
            tally.fail(f"representable {m} reported non-flat")


@suite("adjunction", top_level=2)
def suite_adjunction(tally, rng, cases=50, window=4,
                     degree_bound=DEFAULT_DEGREE_BOUND):
    """The counit identifies classes with window elements; the unit is
    a colimit bijection, levelwise bijective exactly on flat inputs."""
    def counit():
        W = random_mset(rng, max_level=2, max_points=4)
        classes = OmegaColimit(support_filtration(W, window)).classes
        # each window element is the point of exactly one class
        table = Counter(W.elements_up_to(window))
        if Counter(p for (_, p) in classes) != table:
            return "counit not a bijection"

    def unit():
        X = random_iset(rng, window, 2)
        _, eta = flat_replacement(X, degree_bound)
        if not n_iso_check(eta):
            return "unit not a colimit bijection"
        if eta.level_bijective() != is_flat(X, "latching").flat:
            return "unit bijectivity mismatches flatness"

    tally.draws(counit, cases)
    tally.draws(unit, cases)


@suite("mono-pushout")
def suite_mono_pushout(tally, rng, cases=30, window=4):
    """Latching pushouts of levelwise monomorphisms between flat
    diagrams inject into the target level."""
    def case():
        big = random_mset(rng, max_level=2, max_points=4)
        X = support_filtration(random_sub_mset(rng, big), window)
        Y = support_filtration(big, window)
        maps = [{e: e for e in X.levels[m]} for m in range(window + 1)]
        f = ISetMorphism(X, Y, maps)
        for n in range(window + 1):
            if not mono_pushout_injective(f, n):
                return f"pushout not injective at {n}"

    tally.draws(case, cases)


def agreement_instances(rng, cases=50):
    """The (phi, psi, constraints) triples the certificate suite
    certifies: `cases` binary pairs with |A_i| <= 3, then ten ternary
    ones with singleton sets.  Half the pairs arise from hidden moves,
    half share only their prescribed values, so both reachability
    directions are covered."""
    for i in range(cases):
        sizes = [rng.randint(0, 3), rng.randint(0, 3)]
        make = random_agreeing_pair if i % 2 == 0 else random_prescribed_pair
        yield make(rng, 2, sizes)
    for i in range(10):
        make = random_agreeing_pair if i % 2 == 0 else random_prescribed_pair
        yield make(rng, 3, [1, 1, 1])


@suite("agreement-certificates")
def suite_agreement_certificates(tally, rng, cases=50):
    """Certified chains exist for agreeing pairs and verify exactly."""
    instances = agreement_instances(rng, cases)

    def case():  # labelled by the runner
        phi, psi, constraints = next(instances)
        cert = certify_agreement(phi, psi, constraints)
        ok, at, reason = verify_certificate(cert, phi, psi)
        if not ok:
            return f"verification failed at {at}: {reason}"

    tally.draws(case, cases)
    tally.draws(case, 10, "ternary ")


@suite("monoid-algebra-round-trip")
def suite_monoid_algebra_round_trip(tally, rng, cases=100):
    """Presentations and algebra actions determine each other, and the
    derived action matches the pointwise evaluation."""
    instances = [trivial_from_abelian(*cyclic_monoid(k)) for k in (2, 3, 4)]
    instances += [infinite_symmetric_product(points, "*", 4)
                  for points in (["*", "a"], ["*", "a", "b"])]
    for idx, P in enumerate(tally.each(instances)):
        Q = algebra_to_monoid(monoid_to_algebra(P))
        if Q.table != P.table or Q.unit_point != P.unit_point:
            tally.fail(f"instance {idx}: round trip changed the table")
    A = monoid_to_algebra(infinite_symmetric_product(["*", "a", "b"], "*", 6))

    def case():
        # at most three functions of at most two points each
        n = rng.randint(1, 3)
        funcs = [
            {k: rng.choice(["a", "b"])
             for k in rng.sample(range(1, 7), rng.randint(0, 2))}
            for _ in range(n)
        ]
        phi = OperadElement([lane.compose(random_quasi_affine(rng))
                             for lane in disjoint_lanes(n)])
        direct = pointwise_action(phi, funcs)
        via = A(phi, [function_to_element(f) for f in funcs])
        if element_to_function(via) != direct:
            return "derived action differs from pointwise"

    tally.draws(case, cases)


@suite("operadic-box-comparison")
def suite_operadic_box_comparison(tally, rng, cases=20, window=6):
    """The slotwise evaluation against the box product: the section
    inverts it on the whole window table, equivariantly and
    independently of the coequalized presentation."""
    def section():
        X, Y = _msets(rng, (2, 2), 3)
        for x in X.elements_up_to(window):
            for y in Y.elements_up_to(window):
                if support(x) & support(y):
                    continue
                psi = box_to_operadic(x, y)
                if operadic_to_box(X, Y, psi, x, y) != (x, y):
                    return f"section fails at {x}, {y}"

    tally.draws(section, cases)
    Xc = infinite_symmetric_product(["*", "a", "b"], "*", 6).carrier
    psi = OperadElement(disjoint_lanes(2))

    def probe():
        x = Xc.canonical(1, (rng.randint(1, 3),), (rng.choice(["a", "b"]),))
        y = Xc.canonical(1, (rng.randint(1, 3),), (rng.choice(["a", "b"]),))
        u, v = random_quasi_affine(rng), random_quasi_affine(rng)
        moved = OperadElement([psi.slot(1).compose(u), psi.slot(2).compose(v)])
        lhs = operadic_to_box(Xc, Xc, moved, x, y)
        rhs = operadic_to_box(Xc, Xc, psi, Xc.act(u, x), Xc.act(v, y))
        if lhs != rhs:
            return "coequalized action not respected"
        f = random_quasi_affine(rng)
        gx, gy = operadic_to_box(Xc, Xc, psi, x, y)
        hx, hy = operadic_to_box(Xc, Xc, psi.postcompose(f), x, y)
        if hx != Xc.act(f, gx) or hy != Xc.act(f, gy):
            return "not equivariant"

    tally.draws(probe, 100, "probe ")


@suite("sum-laws")
def suite_sum_laws(tally, rng, cases=200):
    """Unit, commutativity, associativity, equivariance, interchange,
    on `cases` draws per instance.  Draws whose summands overlap or
    pass the level cap are skipped."""
    instances = [trivial_from_abelian(*cyclic_monoid(k)) for k in (2, 3, 4)]
    instances += [infinite_symmetric_product(points, "*", 5)
                  for points in (["*", "a"], ["*", "a", "b"])]
    for idx, P in enumerate(instances):
        table = [e for e in P.carrier.elements_up_to(5) if e.level <= 1]
        add, act = P.add, P.carrier.act

        def case():
            xs = rng.sample(table, min(4, len(table)))
            used = [v for e in xs for v in e.image]
            if len(set(used)) != len(used):
                raise Skip("with overlapping supports")
            if sum(e.level for e in xs) > P.level_cap:
                raise Skip(f"with levels beyond the cap {P.level_cap}")
            x, y, yp, z = (xs + [P.unit] * 4)[:4]
            if add(x, P.unit) != x or add(P.unit, x) != x:
                return "unit law"
            if add(x, y) != add(y, x):
                return "commutativity"
            if add(add(x, y), z) != add(x, add(y, z)):
                return "associativity"
            if add(add(x, y), add(yp, z)) != add(add(x, yp), add(y, z)):
                return "interchange"
            top = max(used, default=0)
            if top:
                f = _random_partial(rng, range(1, top + 1), top + 4)
                if act(f, add(x, y)) != add(act(f, x), act(f, y)):
                    return "equivariance"

        tally.draws(case, cases, f"instance {idx}: ")


@suite("wedge-products")
def suite_wedge_products(tally, window=5):
    """The symmetric product of a wedge against the box product of the
    symmetric products: both comparisons, and the level sizes."""
    maps, ok = wedge_iso(["*", "a"], "*", ["*", "b", "c"], "*", window)
    _, with_point = wedge_iso(["*", "a", "b"], "*", ["*"], "*", 3)
    for what, bijective in tally.each([("wedge", ok),
                                       ("wedge with a point", with_point)]):
        if not bijective:
            tally.fail(f"{what}: comparison not a levelwise bijection")
    for k in tally.each(range(window + 1)):  # (1 + 2)^k points at level k
        if len(maps.get(k, {})) != 3 ** k:
            tally.fail(f"level {k} size {len(maps.get(k, {}))} != {3 ** k}")


@suite("orbit-products", top_level=2 + 2)
def suite_orbit_products(tally, rng, cases=50,
                         degree_bound=DEFAULT_DEGREE_BOUND):
    """Orbit sets multiply along the box product."""
    def case():
        X, Y = _msets(rng, (2, 2), 4)
        XY = box(X, Y, degree_bound)
        if not orbit_product_bijection(X, Y, XY)[1]:
            return "no bijection of orbit sets"
        if len(XY.orbit_set()) != len(X.orbit_set()) * len(Y.orbit_set()):
            return "orbit counts do not multiply"

    tally.draws(case, cases)
    for m in tally.each(range(6)):
        if len(injection_mset(m).orbit_set()) != 1:
            tally.fail(f"injections on {m} letters not connected")


def run_selftest(seed=0, cases=None, window=None,
                 degree_bound=DEFAULT_DEGREE_BOUND, include_timing=True):
    """Run every suite with one seeded stream per suite.

    `cases` scales the principal draws of each suite when given; the
    defaults are the full law-suite sizes.  The degree bound must reach
    every suite's top level, and the window must hold the actions that
    the decomposition suite draws."""
    top = max(fn.top_level for _, fn in SUITES)
    if degree_bound < top:
        raise DegreeTooLarge(f"law suites build level {top}, beyond degree "
                             f"bound {degree_bound}")
    drawn = suite_decomposition_round_trip.top_level
    if window is not None and window < 2 * drawn:
        raise WindowTooSmall(f"window {window} below twice the top level "
                             f"{drawn}")
    started = time.monotonic()
    out = []
    for name, fn in SUITES:
        rng = random.Random(f"{seed}:{name}")
        kwargs = {"degree_bound": degree_bound}
        if cases is not None:
            kwargs["cases"] = cases
        if window is not None and fn is suite_decomposition_round_trip:
            kwargs["window"] = window
        tally = fn(rng, **kwargs)
        out.append({"name": name, "cases": tally.ran,
                    "skipped": tally.skipped, "failures": tally.failures})
    report = {"suites": out, "seed": seed}
    if include_timing:
        report["elapsedMs"] = int((time.monotonic() - started) * 1000)
    return report
