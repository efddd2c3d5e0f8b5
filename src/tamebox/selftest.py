"""The law suites: every headline property as a seeded, reproducible
check with its own independent oracle.

Each suite function takes a random stream and case counts and returns
(cases run, failure descriptions).  The runner aggregates them into a
deterministic report keyed by suite name.
"""

from __future__ import annotations

import random
import time

from .errors import (
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
    canonicalize,
    day_convolution,
    flat_replacement,
    is_flat,
    mono_pushout_injective,
    n_iso_check,
    omega_colimit,
    representable_iset,
    restriction_coequalizer,
    support_filtration,
)
from .mset import (
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


def _random_partial(rng, domain, value_range):
    values = rng.sample(range(1, value_range + 1), len(domain))
    return PartialInjection(dict(zip(domain, values)))


def suite_decomposition_round_trip(rng, cases=100, window=8, degree_bound=7):
    """Tables of window elements decompose back to the same form."""
    failures = []
    for i in range(cases):
        X = random_mset(rng, max_level=4, max_points=5,
                        degree_bound=degree_bound)
        try:
            table = X.elements_up_to(window)
            Y = decompose_table(table, X.act, window,
                                degree_bound=degree_bound)
            if not mset_iso_equal(X, Y):
                failures.append(f"case {i}: reconstruction differs from {X!r}")
        except TameboxError as e:
            failures.append(f"case {i}: {e}")
    return cases, failures


def suite_box_oracle(rng, cases=50, window=6, degree_bound=7):
    """The pairing bijects disjoint pairs onto the product table and
    commutes with the action through both projections."""
    failures = []
    for i in range(cases):
        X = random_mset(rng, max_level=2, max_points=3,
                        degree_bound=degree_bound)
        Y = random_mset(rng, max_level=3, max_points=3,
                        degree_bound=degree_bound)
        XY = box(X, Y, degree_bound)
        pairs = [
            (x, y)
            for x in X.elements_up_to(window)
            for y in Y.elements_up_to(window)
            if not support(x) & support(y)
        ]
        paired = [box_pair(x, y) for x, y in pairs]
        if len(set(paired)) != len(paired):
            failures.append(f"case {i}: pairing not injective")
            continue
        if set(paired) != set(XY.elements_up_to(window)):
            failures.append(f"case {i}: pairing misses the product table")
            continue
        if any(box_split(z) != pair for pair, z in zip(pairs, paired)):
            failures.append(f"case {i}: projections fail to invert")
            continue
        table = XY.elements_up_to(window)
        for _ in range(20):
            if not table:
                break
            z = rng.choice(table)
            f = _random_partial(rng, range(1, window + 1), window + 4)
            x, y = box_split(z)
            zx, zy = box_split(XY.act(f, z))
            if zx != X.act(f, x) or zy != Y.act(f, y):
                failures.append(f"case {i}: action does not commute")
                break
    return cases, failures


def suite_injection_split(rng, cases=None, window=7, degree_bound=7):
    """Splitting an injection into two blocks is a bijection onto the
    disjointly supported pairs."""
    failures = []
    ran = 0
    for m in range(0, 6):
        for n in range(0, 6 - m):
            ran += 1
            _, ok = injection_split_iso(m, n, window)
            if not ok:
                failures.append(f"split at ({m}, {n}) not bijective")
    return ran, failures


def suite_day_vs_box(rng, cases=20, window=5, degree_bound=7):
    """Convolution then canonicalization agrees with the box product of
    the canonicalizations.  Draws that leave the window are skipped and
    redrawn; running fewer than `cases` instances is a failure."""
    failures = []
    shapes = [(0, 1), (1, 1), (1, 0), (2, 0), (0, 2), (0, 0)]
    done = 0
    attempts = 0
    truncated = 0
    unstable = 0
    while done < cases and attempts < cases * 10:
        attempts += 1
        a, b = rng.choice(shapes)
        try:
            X = random_iset(rng, window, a, degree_bound)
            Y = random_iset(rng, window, b, degree_bound)
            XY = day_convolution(X, Y)
            if 2 * XY.stable_from > window:
                unstable += 1
                continue
            lhs = canonicalize(XY, degree_bound)
            rhs = box(canonicalize(X, degree_bound),
                      canonicalize(Y, degree_bound), degree_bound)
        except TruncationExceeded:
            truncated += 1
            continue
        except TameboxError as e:
            failures.append(f"case {done}: {e}")
            done += 1
            continue
        if not mset_iso_equal(lhs, rhs):
            failures.append(f"case {done}: convolution differs from box")
        done += 1
    if done < cases:
        failures.append(
            f"ran {done} of {cases} cases in {attempts} draws; skipped "
            f"{truncated} past the truncation and {unstable} with product "
            f"stability beyond half the window {window}"
        )
    return done, failures


def suite_flatness_modes(rng, cases=100, window=4, degree_bound=7):
    """Latching injectivity and the direct criterion agree, with the
    designated counterexample failing at level two."""
    failures = []
    for i in range(cases):
        X = random_iset(rng, window, 2, degree_bound)
        lat = is_flat(X, "latching")
        direct = is_flat(X, "direct")
        if lat.flat != direct.flat:
            failures.append(f"case {i}: modes disagree")
    Q = restriction_coequalizer(window)
    lat = is_flat(Q, "latching")
    direct = is_flat(Q, "direct")
    if lat.flat or direct.flat:
        failures.append("designated counterexample reported flat")
    elif lat.witness[0] != 2:
        failures.append("counterexample witness not at level two")
    for m in range(0, 3):
        if not is_flat(representable_iset(m, window), "both").flat:
            failures.append(f"representable {m} reported non-flat")
    return cases + 4, failures


def suite_adjunction(rng, cases=50, window=4, degree_bound=7):
    """The counit identifies classes with window elements; the unit is
    a colimit bijection, levelwise bijective exactly on flat inputs."""
    failures = []
    for i in range(cases):
        W = random_mset(rng, max_level=2, max_points=4,
                        degree_bound=degree_bound)
        X = support_filtration(W, window)
        colim = omega_colimit(X)
        elements = {p for (_, p) in colim.classes}
        if elements != set(W.elements_up_to(window)) or len(
            colim.classes
        ) != len(W.elements_up_to(window)):
            failures.append(f"case {i}: counit not a bijection")
    for i in range(cases):
        X = random_iset(rng, window, 2, degree_bound,
                        merge_cap=window - 2)
        try:
            _, eta = flat_replacement(X, degree_bound)
        except TameboxError as e:
            failures.append(f"case {i}: {e}")
            continue
        if not n_iso_check(eta):
            failures.append(f"case {i}: unit not a colimit bijection")
        if eta.level_bijective() != is_flat(X, "latching").flat:
            failures.append(f"case {i}: unit bijectivity mismatches flatness")
    return 2 * cases, failures


def suite_mono_pushout(rng, cases=30, window=4, degree_bound=7):
    """Latching pushouts of levelwise monomorphisms between flat
    diagrams inject into the target level."""
    failures = []
    for i in range(cases):
        big = random_mset(rng, max_level=2, max_points=4,
                          degree_bound=degree_bound)
        small = random_sub_mset(rng, big)
        X = support_filtration(small, window)
        Y = support_filtration(big, window)
        maps = [{e: e for e in X.levels[m]} for m in range(window + 1)]
        f = ISetMorphism(X, Y, maps)
        for n in range(window + 1):
            if not mono_pushout_injective(f, n):
                failures.append(f"case {i}: pushout not injective at {n}")
                break
    return cases, failures


def agreement_instances(rng, cases=50):
    """The labelled (phi, psi, constraints) triples the certificate suite
    certifies: `cases` binary pairs with |A_i| <= 3, then ten ternary
    ones with singleton sets.  Half the pairs arise from hidden moves,
    half share only their prescribed values, so both reachability
    directions are covered."""
    for i in range(cases):
        sizes = [rng.randint(0, 3), rng.randint(0, 3)]
        make = random_agreeing_pair if i % 2 == 0 else random_prescribed_pair
        yield f"case {i}", make(rng, 2, sizes)
    for i in range(10):
        make = random_agreeing_pair if i % 2 == 0 else random_prescribed_pair
        yield f"ternary case {i}", make(rng, 3, [1, 1, 1])


def suite_agreement_certificates(rng, cases=50, window=None, degree_bound=7):
    """Certified chains exist for agreeing pairs and verify exactly."""
    failures = []
    for label, (phi, psi, constraints) in agreement_instances(rng, cases):
        try:
            cert = certify_agreement(phi, psi, constraints)
        except TameboxError as e:
            failures.append(f"{label}: {e}")
            continue
        ok, at, reason = verify_certificate(cert, phi, psi)
        if not ok:
            failures.append(f"{label}: verification failed at {at}: {reason}")
    return cases + 10, failures


def suite_monoid_algebra_round_trip(rng, cases=100, window=None,
                                    degree_bound=7):
    """Presentations and algebra actions determine each other, and the
    derived action matches the pointwise evaluation."""
    failures = []
    instances = [trivial_from_abelian(*cyclic_monoid(k)) for k in (2, 3, 4)]
    instances += [
        infinite_symmetric_product(["*", "a"], "*", 4),
        infinite_symmetric_product(["*", "a", "b"], "*", 4),
    ]
    for idx, P in enumerate(instances):
        Q = algebra_to_monoid(monoid_to_algebra(P))
        if Q.table != P.table or Q.unit_point != P.unit_point:
            failures.append(f"instance {idx}: round trip changed the table")
    P = infinite_symmetric_product(["*", "a", "b"], "*", 6)
    A = monoid_to_algebra(P)
    for i in range(cases):
        n = rng.randint(1, 3)
        funcs = [
            {k: rng.choice(["a", "b"])
             for k in rng.sample(range(1, 7), rng.randint(0, 2))}
            for _ in range(n)
        ]
        phi = OperadElement(
            [lane.compose(random_quasi_affine(rng))
             for lane in disjoint_lanes(n)]
        )
        if sum(len(f) for f in funcs) > 6:
            continue
        direct = pointwise_action(phi, funcs)
        via = A(phi, [function_to_element(f) for f in funcs])
        if element_to_function(via) != direct:
            failures.append(f"case {i}: derived action differs from pointwise")
    return len(instances) + cases, failures


def suite_operadic_box_comparison(rng, cases=20, window=6, degree_bound=7):
    """The slotwise evaluation against the box product: the section
    inverts it on the whole window table, equivariantly and
    independently of the coequalized presentation."""
    failures = []
    for i in range(cases):
        X = random_mset(rng, max_level=2, max_points=3,
                        degree_bound=degree_bound)
        Y = random_mset(rng, max_level=2, max_points=3,
                        degree_bound=degree_bound)
        for x in X.elements_up_to(window):
            for y in Y.elements_up_to(window):
                if support(x) & support(y):
                    continue
                psi = box_to_operadic(x, y)
                if operadic_to_box(X, Y, psi, x, y) != (x, y):
                    failures.append(f"case {i}: section fails at {x}, {y}")
                    break
    P = infinite_symmetric_product(["*", "a", "b"], "*", 6)
    Xc = P.carrier
    lanes = disjoint_lanes(2)
    for i in range(100):
        x = Xc.canonical(1, (rng.randint(1, 3),), (rng.choice(["a", "b"]),))
        y = Xc.canonical(1, (rng.randint(1, 3),), (rng.choice(["a", "b"]),))
        psi = OperadElement(lanes)
        u = random_quasi_affine(rng)
        v = random_quasi_affine(rng)
        lhs = operadic_to_box(
            Xc, Xc,
            OperadElement([psi.slot(1).compose(u), psi.slot(2).compose(v)]),
            x, y,
        )
        rhs = operadic_to_box(Xc, Xc, psi, Xc.act(u, x), Xc.act(v, y))
        if lhs != rhs:
            failures.append(f"probe {i}: coequalized action not respected")
            continue
        f = random_quasi_affine(rng)
        gx, gy = operadic_to_box(Xc, Xc, psi, x, y)
        hx, hy = operadic_to_box(Xc, Xc, psi.postcompose(f), x, y)
        if hx != Xc.act(f, gx) or hy != Xc.act(f, gy):
            failures.append(f"probe {i}: not equivariant")
    return cases + 100, failures


def suite_sum_laws(rng, cases=200, window=None, degree_bound=7):
    """Unit, commutativity, associativity, equivariance, interchange.
    Draws whose summands overlap or pass the level cap are skipped and
    redrawn; running fewer than `cases` per instance is a failure."""
    failures = []
    instances = [trivial_from_abelian(*cyclic_monoid(k)) for k in (2, 3, 4)]
    instances += [
        infinite_symmetric_product(["*", "a"], "*", 5),
        infinite_symmetric_product(["*", "a", "b"], "*", 5),
    ]
    ran = 0
    for idx, P in enumerate(instances):
        table = [e for e in P.carrier.elements_up_to(5) if e.level <= 1]
        cap = P.level_cap
        i = attempts = 0
        while i < cases and attempts < cases * 10:
            attempts += 1
            xs = rng.sample(table, min(4, len(table)))
            used = [v for e in xs for v in e.image]
            if len(set(used)) != len(used):
                continue
            if sum(e.level for e in xs) > cap:
                continue
            i += 1
            x, y, yp, z = (xs + [P.unit] * 4)[:4]
            if P.add(x, P.unit) != x or P.add(P.unit, x) != x:
                failures.append(f"instance {idx}, case {i}: unit law")
                break
            if P.add(x, y) != P.add(y, x):
                failures.append(f"instance {idx}, case {i}: commutativity")
                break
            if P.add(P.add(x, y), z) != P.add(x, P.add(y, z)):
                failures.append(f"instance {idx}, case {i}: associativity")
                break
            if P.add(P.add(x, y), P.add(yp, z)) != P.add(
                P.add(x, yp), P.add(y, z)
            ):
                failures.append(f"instance {idx}, case {i}: interchange")
                break
            top = max([v for e in xs for v in e.image], default=0)
            if top:
                f = _random_partial(rng, range(1, top + 1), top + 4)
                if P.carrier.act(f, P.add(x, y)) != P.add(
                    P.carrier.act(f, x), P.carrier.act(f, y)
                ):
                    failures.append(f"instance {idx}, case {i}: equivariance")
                    break
        else:
            # reached only when no law failed, so a short count is the
            # attempt budget running out
            if i < cases:
                failures.append(
                    f"instance {idx}: ran {i} of {cases} cases in {attempts} "
                    f"draws; skipped {attempts - i} with overlapping supports "
                    f"or levels beyond the cap {cap}"
                )
        ran += i
    return ran, failures


def suite_wedge_products(rng, cases=None, window=5, degree_bound=7):
    """The symmetric product of a wedge against the box product of the
    symmetric products, levelwise."""
    failures = []
    maps, ok = wedge_iso(["*", "a"], "*", ["*", "b", "c"], "*", window)
    if not ok:
        failures.append("comparison not a levelwise bijection")
    for k in range(window + 1):
        expect = 3 ** k
        if len(maps.get(k, {})) != expect:
            failures.append(f"level {k} size {len(maps.get(k, {}))} != {expect}")
    if len(maps.get(2, {})) != 9:
        failures.append("level 2 should have 9 points")
    _, ok2 = wedge_iso(["*", "a", "b"], "*", ["*"], "*", 3)
    if not ok2:
        failures.append("wedge with a point is not the identity shape")
    return window + 3, failures


def suite_orbit_products(rng, cases=50, window=None, degree_bound=7):
    """Orbit sets multiply along the box product."""
    failures = []
    for i in range(cases):
        X = random_mset(rng, max_level=2, max_points=4,
                        degree_bound=degree_bound)
        Y = random_mset(rng, max_level=2, max_points=4,
                        degree_bound=degree_bound)
        XY = box(X, Y, degree_bound)
        mapping, ok = orbit_product_bijection(X, Y, XY)
        if not ok:
            failures.append(f"case {i}: no bijection of orbit sets")
        if len(XY.orbit_set()) != len(X.orbit_set()) * len(Y.orbit_set()):
            failures.append(f"case {i}: orbit counts do not multiply")
    for m in range(6):
        if len(injection_mset(m).orbit_set()) != 1:
            failures.append(f"injections on {m} letters not connected")
    return cases + 6, failures


SUITES = [
    ("decomposition-round-trip", suite_decomposition_round_trip),
    ("box-oracle", suite_box_oracle),
    ("injection-split", suite_injection_split),
    ("day-vs-box", suite_day_vs_box),
    ("flatness-modes", suite_flatness_modes),
    ("adjunction", suite_adjunction),
    ("mono-pushout", suite_mono_pushout),
    ("agreement-certificates", suite_agreement_certificates),
    ("monoid-algebra-round-trip", suite_monoid_algebra_round_trip),
    ("operadic-box-comparison", suite_operadic_box_comparison),
    ("sum-laws", suite_sum_laws),
    ("wedge-products", suite_wedge_products),
    ("orbit-products", suite_orbit_products),
]


def run_selftest(seed=0, cases=None, window=None, degree_bound=7,
                 include_timing=True):
    """Run every suite with one seeded stream per suite.

    `cases` scales the principal loop of each suite when given; the
    defaults are the full law-suite sizes.  No suite runs on zero
    cases, and the window must hold the level-4 actions that the
    decomposition suite draws."""
    if cases is not None and cases < 1:
        raise ValidationError("at least one case per suite", f"cases={cases}")
    if window is not None and window < 8:
        raise WindowTooSmall(f"window {window} below twice the top level 4")
    started = time.monotonic()
    out = []
    for name, fn in SUITES:
        rng = random.Random(f"{seed}:{name}")
        kwargs = {"degree_bound": degree_bound}
        if cases is not None:
            kwargs["cases"] = cases
        if window is not None and fn in (
            suite_decomposition_round_trip,
        ):
            kwargs["window"] = window
        ran, failures = fn(rng, **kwargs)
        out.append({"name": name, "cases": ran, "failures": failures})
    report = {"suites": out, "seed": seed}
    if include_timing:
        report["elapsedMs"] = int((time.monotonic() - started) * 1000)
    return report
