import json
import os
import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cert_oracle
import tamebox.opalg as opalg
from conftest import rows_of
from monoid_oracle import OraclePresentation
from tamebox.documents import parse_document, serialize_document
from tamebox.errors import (
    ArityMismatch,
    NotAMonoid,
    NotInjective,
    OverlappingSupports,
    PreconditionViolated,
    SupportNotCovered,
    ValidationFailed,
)
from tamebox.generators import (
    disjoint_lanes,
    random_agreeing_pair,
    random_prescribed_pair,
)
from tamebox.injections import (
    OperadElement,
    PartialInjection,
    Piece,
    QuasiAffineInjection,
    _transported,
    order_embed_avoiding,
)
from tamebox.mset import CanonicalTameMSet, MElement, support
from tamebox.opalg import (
    Certificate,
    CertificateStep,
    CommMonoidPresentation,
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
from tamebox.selftest import agreement_instances
from tamebox.sigma import trivial_sigma_set


def random_qa(rng):
    atoms = [
        QuasiAffineInjection.identity(),
        QuasiAffineInjection.affine(2, 0),
        QuasiAffineInjection.affine(2, -1),
        QuasiAffineInjection.affine(3, 2),
        QuasiAffineInjection.affine(1, rng.randint(0, 4)),
        order_embed_avoiding(set(rng.sample(range(1, 9), rng.randint(0, 3)))),
    ]
    f = atoms[rng.randrange(len(atoms))]
    for _ in range(rng.randint(0, 2)):
        f = f.compose(atoms[rng.randrange(len(atoms))])
    return f


def random_pair_agreeing(rng, n, constraint_sizes):
    """phi arbitrary; psi reached from it by hidden moves fixing the
    constraint sets, so the pair agrees there by construction."""
    s = OperadElement(disjoint_lanes(2))
    base_slots = []
    lanes = disjoint_lanes(n)
    for i in range(n):
        base_slots.append(lanes[i].compose(random_qa(rng)))
    phi = OperadElement(base_slots)
    constraints = [
        frozenset(rng.sample(range(1, 8), size)) for size in constraint_sizes
    ]
    psi = phi
    for _ in range(rng.randint(1, 3)):
        moves = []
        for i in range(n):
            g = random_qa(rng)
            A = constraints[i]
            # a move fixing the set: identity there, conjugated elsewhere
            moves.append(_transported(g, sorted(A), {a: a for a in A}))
        psi = psi.precompose(tuple(moves))
    return phi, psi, constraints


class TestPresentations:
    def test_cyclic_carriers(self):
        for k in (2, 3, 4):
            P = trivial_from_abelian(*cyclic_monoid(k))
            assert len(P.carrier.levels[0]) == k
            a = MElement(0, (), 1 % k)
            b = MElement(0, (), (k - 1))
            assert P.add(a, b) == MElement(0, (), k % k and (1 + k - 1) % k)

    def test_rejects_non_monoid(self):
        elements = [0, 1]
        addition = {(a, b): min(a + b, 1) for a in elements for b in elements}
        addition[(1, 1)] = 0  # break associativity against (0,1),(1,0)? keep comm
        # 1+(1+1)=1+0=1 vs (1+1)+1=0+1=1: still fine; break unit instead
        addition[(0, 1)] = 0
        with pytest.raises(NotAMonoid):
            trivial_from_abelian(elements, addition, 0)

    @pytest.mark.parametrize("sums,unit", [
        ({(1, 2): 1, (2, 1): 2, (1, 1): 1, (2, 2): 2}, 0),
        ({(1, 2): 0, (2, 1): 0, (1, 1): 1, (2, 2): 2}, 0),
        ({(1, 2): 0, (2, 1): 0, (1, 1): 5, (2, 2): 1}, 0),
        ({(1, 2): 0, (2, 1): 0, (2, 2): 1}, 0),
        ({(1, 2): 0, (2, 1): 0, (1, 1): 2, (2, 2): 1}, 3),
    ], ids=["commutativity", "associativity", "closure", "missing-sum",
            "missing-unit"])
    def test_each_law_is_checked(self, sums, unit):
        # {0, 1, 2} with unit 0 and the given sums of 1 and 2; the laws
        # are the presentation's checks, reported as NotAMonoid
        addition = {(0, a): a for a in range(3)} | {(a, 0): a for a in range(3)}
        with pytest.raises(NotAMonoid):
            trivial_from_abelian([0, 1, 2], addition | sums, unit)
        ok = {(1, 2): 0, (2, 1): 0, (1, 1): 2, (2, 2): 1}
        assert trivial_from_abelian([0, 1, 2], addition | ok, 0)

    @pytest.mark.parametrize("key,value", [
        # level-1 stabilizers are trivial: only commutativity compares it
        (((1, ("a",)), (1, ("b",))), MElement(2, (1, 1), ("a", "b"))),
        # the swap of aa moves it: equivariance sorts its image
        (((2, ("a", "a")), (1, ("b",))),
         MElement(3, (1, 1, 2), ("a", "a", "b"))),
    ], ids=["commutativity", "equivariance"])
    def test_refuses_a_sum_with_a_repeated_image_entry(self, key, value):
        # a repeated entry is its own sorted form but no injection; read
        # as an element it failed a later law, or sorting raised
        # ValueError, instead of being refused as no element
        P = infinite_symmetric_product(["*", "a", "b"], "*", 3)
        table = {**P.table, key: value}
        for build in (CommMonoidPresentation, OraclePresentation):
            with pytest.raises(ValidationFailed,
                               match=r"sum of .* invalid"):
                build(P.carrier, P.unit_point, table, P.level_cap)

    def test_symmetric_product_level_sizes(self):
        P2 = infinite_symmetric_product(["*", "a"], "*", 4)
        assert [len(P2.carrier.levels[m]) for m in range(5)] == [1, 1, 1, 1, 1]
        P3 = infinite_symmetric_product(["*", "a", "b"], "*", 4)
        assert [len(P3.carrier.levels[m]) for m in range(5)] == [1, 2, 4, 8, 16]

    def test_singleton_gives_unit_presentation(self):
        P = infinite_symmetric_product(["*"], "*", 3)
        assert set(P.carrier.levels) == {0}

    def test_sum_unit_laws(self):
        P = infinite_symmetric_product(["*", "a", "b"], "*", 4)
        x = P.carrier.canonical(2, (1, 3), ("a", "b"))
        assert P.add(x, P.unit) == x
        assert P.add(P.unit, x) == x

    def test_sum_commutative_random(self):
        rng = random.Random(5)
        P = infinite_symmetric_product(["*", "a", "b"], "*", 5)
        table = P.carrier.elements_up_to(5)
        for _ in range(100):
            x = rng.choice(table)
            y = rng.choice(table)
            if support(x) & support(y) or x.level + y.level > 5:
                continue
            assert P.add(x, y) == P.add(y, x)

    def test_sum_overlap_rejected(self):
        P = infinite_symmetric_product(["*", "a"], "*", 3)
        x = P.carrier.canonical(1, (1,), ("a",))
        with pytest.raises(OverlappingSupports):
            P.add(x, x)

    def test_sum_associative_and_interchange(self):
        rng = random.Random(7)
        P = infinite_symmetric_product(["*", "a", "b"], "*", 5)
        table = [e for e in P.carrier.elements_up_to(5) if e.level <= 1]
        for _ in range(60):
            xs = rng.sample(table, 4)
            if len({v for e in xs for v in e.image}) != sum(e.level for e in xs):
                continue
            x, y, yp, z = xs
            lhs = P.add(P.add(x, y), P.add(yp, z))
            rhs = P.add(P.add(x, yp), P.add(y, z))
            assert lhs == rhs
            assert P.add(P.add(x, y), z) == P.add(x, P.add(y, z))

    def test_sum_equivariant(self):
        rng = random.Random(9)
        P = infinite_symmetric_product(["*", "a", "b"], "*", 5)
        table = P.carrier.elements_up_to(4)
        for _ in range(50):
            x = rng.choice(table)
            y = rng.choice(table)
            if support(x) & support(y) or x.level + y.level > 5:
                continue
            vals = rng.sample(range(1, 10), 4)
            f = PartialInjection(dict(zip(range(1, 5), vals)))
            assert P.carrier.act(f, P.add(x, y)) == P.add(
                P.carrier.act(f, x), P.carrier.act(f, y)
            )


class TestAlgebraRoundTrip:
    def test_trivial_action_independent_of_element(self):
        P = trivial_from_abelian(*cyclic_monoid(3))
        A = monoid_to_algebra(P)
        x = MElement(0, (), 1)
        y = MElement(0, (), 2)
        phi = OperadElement(
            [QuasiAffineInjection.affine(2, -1), QuasiAffineInjection.affine(2, 0)]
        )
        psi = OperadElement(
            [QuasiAffineInjection.affine(3, -2), QuasiAffineInjection.affine(3, 0)]
        )
        assert A(phi, [x, y]) == A(psi, [x, y]) == MElement(0, (), 0)

    def test_arity_one_recovers_action(self):
        P = infinite_symmetric_product(["*", "a", "b"], "*", 4)
        A = monoid_to_algebra(P)
        x = P.carrier.canonical(2, (1, 2), ("a", "b"))
        f = QuasiAffineInjection.affine(2, 0)
        assert A(OperadElement([f]), [x]) == P.carrier.act(f, x)

    def test_round_trip_on_cyclic(self):
        for k in (2, 3, 4):
            P = trivial_from_abelian(*cyclic_monoid(k))
            Q = algebra_to_monoid(monoid_to_algebra(P))
            assert Q.table == P.table and Q.unit_point == P.unit_point

    def test_round_trip_on_symmetric_products(self):
        for pts in (["*", "a"], ["*", "a", "b"]):
            P = infinite_symmetric_product(pts, "*", 4)
            Q = algebra_to_monoid(monoid_to_algebra(P))
            assert Q.table == P.table and Q.unit_point == P.unit_point

    def test_action_matches_pointwise_formula(self):
        rng = random.Random(13)
        P = infinite_symmetric_product(["*", "a", "b"], "*", 6)
        A = monoid_to_algebra(P)
        for _ in range(100):
            n = rng.randint(1, 3)
            funcs = []
            used = set()
            for _ in range(n):
                keys = set(rng.sample(range(1, 7), rng.randint(0, 2)))
                funcs.append({k: rng.choice(["a", "b"]) for k in keys})
            lanes = disjoint_lanes(n)
            phi = OperadElement(lanes)
            direct = pointwise_action(phi, funcs)
            via_algebra = A(phi, [function_to_element(f) for f in funcs])
            assert element_to_function(via_algebra) == direct

    def test_support_bound(self):
        P = infinite_symmetric_product(["*", "a"], "*", 6)
        A = monoid_to_algebra(P)
        x = function_to_element({1: "a", 3: "a"})
        y = function_to_element({2: "a"})
        phi = OperadElement(
            [QuasiAffineInjection.affine(2, -1), QuasiAffineInjection.affine(2, 0)]
        )
        out = A(phi, [x, y])
        allowed = {phi.slot(1)(v) for v in (1, 3)} | {phi.slot(2)(2)}
        assert support(out) <= allowed

    def test_action_depends_only_on_support_values(self):
        # two operations agreeing on the supports act identically; the
        # agreeing pairs come from hidden certificate-style moves
        from tamebox.generators import random_agreeing_pair

        rng = random.Random(37)
        P = infinite_symmetric_product(["*", "a", "b"], "*", 6)
        A = monoid_to_algebra(P)
        for _ in range(30):
            x = function_to_element(
                {k: rng.choice(["a", "b"])
                 for k in rng.sample(range(1, 7), rng.randint(0, 2))}
            )
            y = function_to_element(
                {k: rng.choice(["a", "b"])
                 for k in rng.sample(range(1, 7), rng.randint(0, 2))}
            )
            phi, psi, _ = random_agreeing_pair(
                rng, 2, [len(x.image), len(y.image)]
            )
            # overwrite the constraint sets with the actual supports
            moves = []
            for e in (x, y):
                g = QuasiAffineInjection.affine(1, rng.randint(1, 3))
                moves.append(_transported(g, sorted(e.image),
                                          {a: a for a in e.image}))
            psi = phi.precompose(tuple(moves))
            if A(phi, [x, y]) != A(psi, [x, y]):
                raise AssertionError("agreeing operations acted differently")


class TestChi:
    def setup_method(self):
        self.P = infinite_symmetric_product(["*", "a", "b"], "*", 6)
        self.X = self.P.carrier

    def test_section_round_trip(self):
        x = self.X.canonical(2, (1, 4), ("a", "b"))
        y = self.X.canonical(1, (2,), ("a",))
        psi = box_to_operadic(x, y)
        assert operadic_to_box(self.X, self.X, psi, x, y) == (x, y)

    def test_equivariance(self):
        rng = random.Random(3)
        x = self.X.canonical(2, (1, 3), ("a", "a"))
        y = self.X.canonical(1, (2,), ("b",))
        psi = box_to_operadic(x, y)
        for _ in range(20):
            vals = rng.sample(range(1, 12), 4)
            f = PartialInjection(dict(zip(range(1, 5), vals)))
            fx, fy = operadic_to_box(
                self.X, self.X, psi.postcompose(f), x, y
            )
            gx, gy = operadic_to_box(self.X, self.X, psi, x, y)
            assert fx == self.X.act(f, gx) and fy == self.X.act(f, gy)

    def test_coequalized_action(self):
        # [psi (u+v), x, y] and [psi, ux, vy] map to the same pair
        rng = random.Random(11)
        for _ in range(20):
            x = self.X.canonical(1, (rng.randint(1, 3),), ("a",))
            y = self.X.canonical(1, (rng.randint(4, 6),), ("b",))
            psi = OperadElement(
                [QuasiAffineInjection.affine(2, -1),
                 QuasiAffineInjection.affine(2, 0)]
            )
            u = random_qa(rng)
            v = random_qa(rng)
            lhs = operadic_to_box(
                self.X, self.X,
                OperadElement([psi.slot(1).compose(u), psi.slot(2).compose(v)]),
                x, y,
            )
            rhs = operadic_to_box(
                self.X, self.X, psi, self.X.act(u, x), self.X.act(v, y)
            )
            assert lhs == rhs


class TestWedge:
    def test_counts_two_three(self):
        maps, ok = wedge_iso(["*", "a"], "*", ["*", "b", "c"], "*", 3)
        assert ok
        assert len(maps[2]) == 9

    def test_point_factor_is_identityish(self):
        maps, ok = wedge_iso(["*", "a", "b"], "*", ["*"], "*", 3)
        assert ok

    def test_levels_up_to_bound(self):
        maps, ok = wedge_iso(["*", "a"], "*", ["*", "b"], "*", 4)
        assert ok
        for k in range(5):
            assert len(maps.get(k, {})) == 2 ** k

    def test_builds_carriers_only(self, monkeypatch):
        # the comparison reads the carriers, never a validated sum table
        def refuse(*args, **kwargs):
            raise AssertionError("wedge_iso built a presentation")

        monkeypatch.setattr(opalg.CommMonoidPresentation, "__init__", refuse)
        maps, ok = wedge_iso(["*", "a"], "*", ["*", "b"], "*", 4)
        assert ok
        with pytest.raises(ValidationFailed, match="basepoint missing"):
            wedge_iso(["a"], "*", ["*", "b"], "*", 2)


class TestCertificates:
    def test_equal_pair_empty_chain(self):
        s = OperadElement(disjoint_lanes(2))
        cert = certify_agreement(s, s, [set(), set()])
        assert len(cert) == 0
        ok, _, _ = verify_certificate(cert, s, s)
        assert ok

    def test_arbitrary_to_interleave(self):
        rng = random.Random(17)
        s = OperadElement(disjoint_lanes(2))
        for _ in range(25):
            phi = OperadElement(
                [s.slot(1).compose(random_qa(rng)),
                 s.slot(2).compose(random_qa(rng))]
            )
            cert = certify_agreement(phi, s, [set(), set()])
            ok, at, reason = verify_certificate(cert, phi, s)
            assert ok, (at, reason)
            assert len(cert) > 0

    def test_constrained_pairs(self):
        rng = random.Random(19)
        for _ in range(25):
            phi, psi, constraints = random_pair_agreeing(rng, 2, [2, 1])
            cert = certify_agreement(phi, psi, constraints)
            ok, at, reason = verify_certificate(cert, phi, psi)
            assert ok, (at, reason)
            for step in cert.steps:
                for f, A in zip(step.move, constraints):
                    assert f.fixes_pointwise(A)

    def test_arity_three(self):
        rng = random.Random(23)
        for _ in range(8):
            phi, psi, constraints = random_pair_agreeing(rng, 3, [1, 1, 1])
            cert = certify_agreement(phi, psi, constraints)
            ok, at, reason = verify_certificate(cert, phi, psi)
            assert ok, (at, reason)

    def test_independently_prescribed_pairs(self):
        # the second element shares nothing with the first beyond the
        # prescribed values, so the chain cannot shortcut
        rng = random.Random(41)
        for _ in range(15):
            phi, psi, constraints = random_prescribed_pair(rng, 2, [2, 2])
            for i in range(2):
                for a in constraints[i]:
                    assert phi.slot(i + 1)(a) == psi.slot(i + 1)(a)
            cert = certify_agreement(phi, psi, constraints)
            ok, at, reason = verify_certificate(cert, phi, psi)
            assert ok, (at, reason)
            for step in cert.steps:
                for f, A in zip(step.move, constraints):
                    assert f.fixes_pointwise(A)

    @pytest.mark.unchecked_construction
    def test_trusted_builds_give_the_checked_certificates(self, monkeypatch):
        """The certificates of acceptance criterion 8, built as shipped
        and with the trusted constructors replaced by the public ones
        (on the rows of the spans, for an injection), are the same
        bytes."""
        def certificates():
            rng = random.Random("acceptance:certs")
            return [serialize_document("certificate",
                                       certify_agreement(phi, psi, A))
                    for _, (phi, psi, A) in agreement_instances(rng, 50)]

        shipped = certificates()
        monkeypatch.setattr(QuasiAffineInjection, "_built", classmethod(
            lambda cls, spans: cls(rows_of(spans))))
        monkeypatch.setattr(OperadElement, "_built",
                            classmethod(lambda cls, slots: cls(slots)))
        assert certificates() == shipped
        assert len(shipped) == 60

    def test_disagreement_rejected(self):
        s = OperadElement(disjoint_lanes(2))
        other = OperadElement(
            [QuasiAffineInjection.affine(2, 1), QuasiAffineInjection.affine(2, 0)]
        )
        with pytest.raises(PreconditionViolated):
            certify_agreement(s, other, [{1}, set()])

    @pytest.mark.parametrize("value", [2.5, "3", True, 0, -1])
    def test_constraint_values_must_be_positive_integers(self, value):
        # read through int(), 2.5, "3" and True once stood for 2, 3 and 1
        s = OperadElement(disjoint_lanes(2))
        with pytest.raises(PreconditionViolated, match="positive integer"):
            certify_agreement(s, s, [{value}, set()])

    def test_tampered_move_detected(self):
        rng = random.Random(29)
        phi, psi, constraints = random_pair_agreeing(rng, 2, [1, 1])
        cert = certify_agreement(phi, psi, constraints)
        if not cert.steps:
            return
        bad_move = (QuasiAffineInjection.affine(1, 5), cert.steps[0].move[1])
        tampered = Certificate(
            cert.n,
            cert.constraints,
            [CertificateStep(cert.steps[0].element, bad_move,
                             cert.steps[0].direction)]
            + cert.steps[1:],
            cert.final,
        )
        ok, at, _ = verify_certificate(tampered, phi, psi)
        assert not ok and at == 0

    def test_swapped_endpoints_detected(self):
        rng = random.Random(31)
        phi, psi, constraints = random_pair_agreeing(rng, 2, [1, 1])
        cert = certify_agreement(phi, psi, constraints)
        ok, _, reason = verify_certificate(cert, psi, phi)
        if phi != psi:
            assert not ok

    def test_only_library_errors_fail_a_step(self, monkeypatch):
        """A library error while a step is evaluated fails that step;
        any other exception is a fault of the program and propagates."""
        rng = random.Random(29)
        phi, psi, constraints = random_pair_agreeing(rng, 2, [1, 1])
        cert = certify_agreement(phi, psi, constraints)
        assert cert.steps

        def raising(error):
            def reaches(source, moves, target):
                raise error
            return reaches

        monkeypatch.setattr(opalg, "_reaches",
                            raising(NotInjective("slots 1 and 2 share image values")))
        assert verify_certificate(cert, phi, psi) == \
            (False, 0, "step evaluation failed")
        monkeypatch.setattr(opalg, "_reaches",
                            raising(RuntimeError("a fault in evaluation")))
        with pytest.raises(RuntimeError, match="a fault in evaluation"):
            verify_certificate(cert, phi, psi)


GOLDEN_CERTIFICATE = os.path.join(os.path.dirname(__file__), "data",
                                  "parent_golden_certificate.json")


def _one_step(source_slot, target_slot):
    """A binary certificate of one forward identity step from
    [source_slot, 2i] to [target_slot, 2i], with no constraints."""
    even = QuasiAffineInjection.affine(2, 0)
    source = OperadElement([source_slot, even])
    target = OperadElement([target_slot, even])
    step = CertificateStep(source, (QuasiAffineInjection.identity(),) * 2,
                           "fwd")
    return Certificate(2, [set(), set()], [step], target)


# one-step certificates whose two sides agree where one of the mutant
# verifiers below looks and differ elsewhere: 2i-1 and 4i-3 agree at 1;
# the map 1 -> 3, 2 -> 1, i -> 2i-1 (threshold 3) and 2i-1 agree from 3
# on; and 2i-1 and the map that is 4i-1 on the multiples of 3 (period
# 3) and 2i-1 elsewhere agree at 1 and 2
CRAFTED = [
    _one_step(QuasiAffineInjection.affine(2, -1),
              QuasiAffineInjection.affine(4, -3)),
    _one_step(QuasiAffineInjection([Piece(1, 1, 1, 0, 1, 2),
                                    Piece(2, 2, 1, 0, 1, -1),
                                    Piece(3, None, 1, 0, 2, -1)]),
              QuasiAffineInjection.affine(2, -1)),
    _one_step(QuasiAffineInjection.affine(2, -1),
              QuasiAffineInjection([Piece(1, None, 3, 1, 2, -1),
                                    Piece(1, None, 3, 2, 2, -1),
                                    Piece(1, None, 3, 0, 4, -1)])),
]


def _mutant(periods=2, below_k0=True, target_period=True):
    """`opalg._reaches` with its window cut: `periods` periods past k0,
    the points below k0 skipped, or L computed without g's period."""
    def reaches(source, moves, target):
        for s, f, g in zip(source.slots, moves, target.slots):
            ps, pg = s.spans[-1][2], g.spans[-1][2]
            ts, tg = len(s.spans) - ps + 1, len(g.spans) - pg + 1
            for first, last, mod, v0, step in f.spans:
                k0 = max(0, -((v0 - ts) // step), -((first - tg) // mod))
                period = ps // gcd(step, ps)
                if target_period:
                    period = lcm(period, pg // gcd(mod, pg))
                top = k0 + periods * period
                if last is not None:
                    top = min(top, (last - first) // mod + 1)
                for k in range(0 if below_k0 else k0, top):
                    if s(v0 + k * step) != g(first + k * mod):
                        return False
        return True
    return reaches


def _disagreements(certs):
    """The (certificate, endpoints) cases on which the verifier and the
    normal-form oracle return different triples."""
    return [(cert, ends) for cert, ends in certs
            if verify_certificate(cert, *ends)
            != cert_oracle.verify_certificate(cert, *ends)]


def _tier1_certificates():
    """The certificates of acceptance criterion 8 with their endpoints,
    and the stored golden certificate without endpoints."""
    rng = random.Random("acceptance:certs")
    certs = [(certify_agreement(phi, psi, constraints), (phi, psi))
             for _, (phi, psi, constraints) in agreement_instances(rng, 50)]
    with open(GOLDEN_CERTIFICATE, encoding="utf-8") as fh:
        certs.append((parse_document(fh.read()).value, (None, None)))
    return certs


def _replaced(cert, idx, **changes):
    """cert with step idx changed (element, move or direction)."""
    steps = list(cert.steps)
    steps[idx] = steps[idx]._replace(**changes)
    return Certificate(cert.n, cert.constraints, steps, cert.final)


class TestEvaluationVerifier:
    """`verify_certificate` decides each step by evaluation; the oracle
    rebuilds the next element and compares normal forms.  They return
    the same triple on every certificate."""

    def test_tier1_certificates_agree_with_oracle(self):
        certs = _tier1_certificates()
        assert len(certs) == 61
        assert not _disagreements(certs)
        assert all(verify_certificate(cert, *ends)[0] for cert, ends in certs)

    def test_golden_certificate_with_another_offset_fails(self):
        with open(GOLDEN_CERTIFICATE, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["payload"]["chain"][0]["move"][1]["pieces"][0]["b"] = 3
        cert = parse_document(json.dumps(doc)).value
        assert verify_certificate(cert) == cert_oracle.verify_certificate(cert) \
            == (False, 0, "backward step does not recover this element")

    def test_builds_no_normal_form_and_no_element(self, monkeypatch):
        certs = _tier1_certificates()
        built = []

        def counted(cls):
            # the public constructor and the trusted one
            init, trusted = cls.__init__, cls._built

            def counting(self, *args, **kwargs):
                built.append(f"{cls.__name__}.__init__")
                init(self, *args, **kwargs)

            def counting_built(*args, **kwargs):
                built.append(f"{cls.__name__}._built")
                return trusted(*args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
            monkeypatch.setattr(cls, "_built", counting_built)

        counted(QuasiAffineInjection)
        counted(OperadElement)
        for cert, ends in certs:
            verify_certificate(cert, *ends)
        assert built == []
        # the counters count: the oracle builds both through the public
        # constructors, the chain builder through the trusted ones
        cert, ends = next((cert, ends) for cert, ends in certs if cert.steps)
        cert_oracle.verify_certificate(cert, *ends)
        assert {"QuasiAffineInjection.__init__",
                "OperadElement.__init__"} <= set(built)
        certify_agreement(*ends, cert.constraints)
        assert {"QuasiAffineInjection._built",
                "OperadElement._built"} <= set(built)

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=100)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 4),
           prescribed=st.booleans(), data=st.data())
    def test_agrees_with_oracle_on_drawn_and_tampered(self, seed, n,
                                                      prescribed, data):
        sizes = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        make = random_prescribed_pair if prescribed else random_agreeing_pair
        phi, psi, constraints = make(random.Random(seed), n, sizes)
        cert = certify_agreement(phi, psi, constraints)
        cases = [(cert, (phi, psi))]
        steps = cert.steps
        if steps:
            # one move replaced by another that fixes the same set: a
            # move of that slot elsewhere in the chain, or a drawn one
            idx = data.draw(st.integers(0, len(steps) - 1))
            i = data.draw(st.integers(0, n - 1))
            A = constraints[i]
            drawn = _transported(random_qa(random.Random(seed)), sorted(A),
                                 {a: a for a in A})
            other = data.draw(st.sampled_from(
                [s.move[i] for s in steps] + [drawn]))
            move = steps[idx].move[:i] + (other,) + steps[idx].move[i + 1:]
            cases.append((_replaced(cert, idx, move=move), (phi, psi)))
            # one direction flipped
            idx = data.draw(st.integers(0, len(steps) - 1))
            flipped = {"fwd": "bwd", "bwd": "fwd"}[steps[idx].direction]
            cases.append((_replaced(cert, idx, direction=flipped), (phi, psi)))
        if len(steps) >= 2:
            # a middle element replaced by its neighbour
            chain = cert.chain()
            j = data.draw(st.integers(1, len(steps) - 1))
            neighbour = chain[j + data.draw(st.sampled_from([-1, 1]))]
            cases.append((_replaced(cert, j, element=neighbour), (phi, psi)))
        assert verify_certificate(cert, phi, psi) == (True, None, "ok")
        assert not _disagreements(cases)

    def test_crafted_steps_agree_with_oracle(self):
        cases = [(cert, (None, None)) for cert in CRAFTED]
        assert not _disagreements(cases)
        assert not any(verify_certificate(cert)[0] for cert in CRAFTED)
        # the unmutated copy of the helper is the library's
        assert all(_mutant()(cert.steps[0].element, cert.steps[0].move,
                             cert.final) is False for cert in CRAFTED)

    @pytest.mark.parametrize("mutant", [
        _mutant(periods=1), _mutant(below_k0=False),
        _mutant(target_period=False),
    ], ids=["one-period-window", "points-below-k0-skipped",
            "period-without-target"])
    def test_mutant_windows_fail(self, monkeypatch, mutant):
        monkeypatch.setattr(opalg, "_reaches", mutant)
        with pytest.raises(AssertionError):
            self.test_crafted_steps_agree_with_oracle()


class TestChainBound:
    """Every certificate has at most six steps, whatever the arity: two
    widening moves and at most two merge bridges."""

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=120)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 5),
           prescribed=st.booleans(), data=st.data())
    def test_six_steps_in_every_arity(self, seed, n, prescribed, data):
        sizes = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        make = random_prescribed_pair if prescribed else random_agreeing_pair
        phi, psi, constraints = make(random.Random(seed), n, sizes)
        cert = certify_agreement(phi, psi, constraints)
        ok, at, reason = verify_certificate(cert, phi, psi)
        assert ok, (at, reason)
        assert len(cert) <= 6
        for e in cert.chain()[1:-1]:
            assert all(len(s.spans) <= 64 for s in e.slots)

    def test_criterion_8_step_counts(self):
        rng = random.Random("acceptance:certs")
        lengths = [len(certify_agreement(phi, psi, constraints))
                   for _, (phi, psi, constraints)
                   in agreement_instances(rng, 50)]
        assert len(lengths) == 60
        assert max(lengths) <= 6
        assert sum(lengths) <= 360


class TestSumLawsGate:
    def test_short_count_fails_and_names_the_shortfall(self, monkeypatch):
        from tamebox import selftest

        real = selftest.infinite_symmetric_product

        def cut_at_one(points, basepoint, level_bound):
            # four summands drawn from levels <= 1 always pass cap 1
            return real(points, basepoint, 1)

        monkeypatch.setattr(selftest, "infinite_symmetric_product", cut_at_one)
        tally = selftest.suite_sum_laws(random.Random(0), cases=3)
        assert (tally.ran, tally.skipped) == (9, 60)
        assert tally.failures == [
            "instance 3: ran 0 of 3 cases in 30 draws; skipped 30 with "
            "levels beyond the cap 1",
            "instance 4: ran 0 of 3 cases in 30 draws; skipped 18 with "
            "levels beyond the cap 1 and 12 with overlapping supports",
        ]


# ---------------------------------------------------------------------
# the verifier's refusals, each on one certificate built directly


_ID = QuasiAffineInjection.identity()
_PARTIAL_ELEMENT = OperadElement([PartialInjection({1: 1}),
                                  PartialInjection({1: 2})])


def _one_step_certificate():
    """A verified certificate of one forward step: the interleaving, then
    the interleaving after a move that fixes nothing in particular."""
    s = OperadElement(disjoint_lanes(2))
    move = (QuasiAffineInjection.affine(3, 0), _ID)
    cert = Certificate(2, [set(), set()],
                       [CertificateStep(s, move, "fwd")], s.precompose(move))
    assert verify_certificate(cert) == (True, None, "ok")
    return cert


def _with_step(cert, **changes):
    return Certificate(cert.n, cert.constraints,
                       [cert.steps[0]._replace(**changes)], cert.final)


# each refusal the verifier returns, with the failing step (None for the
# whole chain), from one change to the certificate above
VERIFIER_REFUSALS = {
    "arity mismatch in chain": lambda c: Certificate(
        3, [set()] * 3, c.steps, c.final),
    "chain element with inexact slots": lambda c: Certificate(
        c.n, c.constraints, c.steps, _PARTIAL_ELEMENT),
    "move arity mismatch": lambda c: _with_step(c, move=(_ID,)),
    "inexact move": lambda c: _with_step(
        c, move=(PartialInjection({1: 1}), _ID)),
    "unknown direction": lambda c: _with_step(c, direction="sideways"),
}


@pytest.mark.parametrize("reason", VERIFIER_REFUSALS)
def test_verifier_refuses_each_malformed_certificate(reason):
    cert = VERIFIER_REFUSALS[reason](_one_step_certificate())
    at = None if "chain" in reason else 0
    assert verify_certificate(cert) == (False, at, reason)
    assert cert_oracle.verify_certificate(cert) == (False, at, reason)


# ---------------------------------------------------------------------
# the refusals of algebras, actions and the pairing


def test_algebra_action_refuses_a_moving_nullary_or_unary_action():
    P = infinite_symmetric_product(["*", "a"], "*", 2)
    A = monoid_to_algebra(P)
    moved = MElement(1, (1,), ("a",))
    with pytest.raises(ValidationFailed,
                       match="nullary action must give a fixed element"):
        opalg.AlgebraAction(P.carrier, lambda phi, xs: moved)
    with pytest.raises(ValidationFailed,
                       match="unary identity does not act trivially"):
        opalg.AlgebraAction(P.carrier, lambda phi, xs: (
            A(phi, xs) if phi.arity != 1 else A.zero))


def test_actions_and_pairings_refuse_the_wrong_arity():
    P = infinite_symmetric_product(["*", "a"], "*", 2)
    X = P.carrier
    x = MElement(1, (1,), ("a",))
    with pytest.raises(ArityMismatch, match="arity 1 applied to 2 elements"):
        monoid_to_algebra(P)(OperadElement([_ID]), [x, x])
    with pytest.raises(ArityMismatch, match="one function per slot"):
        pointwise_action(OperadElement(disjoint_lanes(2)), [{1: "a"}])
    with pytest.raises(ArityMismatch, match="binary pairing expected"):
        operadic_to_box(X, X, OperadElement(disjoint_lanes(3)), x, x)


def test_pointwise_action_and_section_refuse_overlapping_supports():
    # slots with one image, built past the public constructor's check
    overlapping = OperadElement._built.__wrapped__(OperadElement, [_ID, _ID])
    with pytest.raises(SupportNotCovered, match="slots overlap on supports"):
        pointwise_action(overlapping, [{1: "a"}, {1: "b"}])
    with pytest.raises(OverlappingSupports, match="supports meet"):
        box_to_operadic(MElement(1, (1,), ("a",)), MElement(1, (1,), ("b",)))


def _wedge_carrier_replaced(monkeypatch, replace):
    """wedge_iso with the carrier of the wedge's symmetric product, the
    one whose points include tagged pairs, replaced."""
    real = opalg.symmetric_product_carrier

    def carrier(points, basepoint, level_bound):
        got = real(points, basepoint, level_bound)
        return replace(got) if any(isinstance(p, tuple) for p in points) \
            else got

    monkeypatch.setattr(opalg, "symmetric_product_carrier", carrier)


# without its top level the comparison is no bijection there; with
# every permutation acting trivially it is one but not equivariant
WEDGE_FAULTS = {
    "level-missing": lambda W: CanonicalTameMSet(
        {k: ss for k, ss in W.levels.items() if k < 2}),
    "trivial-action": lambda W: CanonicalTameMSet(
        {k: trivial_sigma_set(k, ss.points) for k, ss in W.levels.items()}),
}


@pytest.mark.parametrize("fault", WEDGE_FAULTS)
def test_wedge_comparison_fails_on_a_wrong_wedge_carrier(monkeypatch, fault):
    assert wedge_iso(["*", "a"], "*", ["*", "b", "c"], "*", 2)[1]
    _wedge_carrier_replaced(monkeypatch, WEDGE_FAULTS[fault])
    maps, ok = wedge_iso(["*", "a"], "*", ["*", "b", "c"], "*", 2)
    assert not ok and sorted(maps) == [0, 1, 2]
