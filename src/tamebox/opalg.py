"""Operad algebras on tame actions and certificate-producing rewriting.

A commutative box-monoid is presented by a shifted-sum table on orbit
representatives; validation makes the partially defined sum total on
disjointly supported pairs within the level cap.  Presentations and
operad algebra actions determine each other, and both directions are
implemented, together with the infinite-symmetric-product family and
its wedge decomposition.

The rewriting part connects two multi-slot injections that agree on
prescribed finite sets through a chain of at most six elementary moves,
each a slotwise precomposition fixing the constraint sets pointwise.  The
chain is emitted as a certificate whose verification is exact: every
step is checked by evaluating both sides at two points per progression
on which they are affine.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    ArityMismatch,
    DegreeTooLarge,
    NotAMonoid,
    OverlappingSupports,
    PreconditionViolated,
    SearchExhausted,
    SupportNotCovered,
    TameboxError,
    ValidationFailed,
)
from .injections import (
    OperadElement,
    PartialInjection,
    QuasiAffineInjection,
    _reindex,
    _transported,
)
from .mset import (DEFAULT_DEGREE_BOUND, CanonicalTameMSet, MElement, box,
                   support)
from .sigma import point_key, trivial_sigma_set, word_sigma_set


_ID = QuasiAffineInjection.identity()


def std_element(level, point):
    """The element placing a level point at the initial segment."""
    return MElement(level, tuple(range(1, level + 1)), point)


def _permuted(carrier, g, c):
    """g_* c for a permutation g of the blocks of c.  If c fills them,
    sorting g's values back into its image moves its point by g."""
    if len(c.image) == len(g):
        return MElement(c.level, c.image,
                        carrier.levels[c.level].act_perm(g, c.point))
    return carrier.place(g, c)


class CommMonoidPresentation:
    """A commutative box-monoid: carrier, unit, and the sums of orbit
    representatives with the second summand shifted past the first.

    Write [g, r] for the element placing the level-m point r by the
    injection g of {1..m}, T[a, b] for the table entry of the
    representatives a = (m, ra) and b = (n, rb), and g + h for the
    injection of {1..m+n} that is g on the first block and h, shifted
    past it, on the second.  `add` sums [g, ra] and [h, rb] as
    (g + h)_* T[a, b], with g and h read off the orbit transversals.

    Validation checks that the table covers exactly the representative
    pairs within the cap, with values supported inside their blocks,
    then equivariance, the unit law, commutativity and associativity.
    The last three are checked on representatives in standard blocks
    only; commutativity on pairs a <= b (in `orbit_set` order), and
    associativity on the rotations (a, b, c) and (b, c, a) of each
    multiset a <= b <= c.  No case is lost:

    1. Equivariance: (s + t)_* T[a, b] = T[a, b] for s fixing ra and t
       fixing rb.  The pairs (s, 1) and (1, t), with s and t running
       over Schreier generators of the two stabilizers, generate all
       pairs, so only they are checked.  Now [g, r] = [g', r] exactly when
       g' = g s with s fixing r, and then (g s + h t)_* T =
       (g + h)_* (s + t)_* T = (g + h)_* T: `add` does not depend on the
       placement, so it is natural, f_*(x + y) = f_* x + f_* y for every
       injection f defined on both supports.
    2. Positions: disjoint x = [g, ra], y = [h, rb], z = [k, rc] are
       the images under f = g + h + k of the representatives in
       standard blocks, and a sum stays inside the blocks of its
       summands.  By naturality a law holds at x, y, z once it holds in
       standard blocks.  The same holds for every order of a, b, c: the
       law at (y, x) is the image of the law at (x, y) under a block
       swap, so commutativity at a <= b covers every pair.
    3. Rotations: under commutativity let L_z = (x + y) + z = (y + x) +
       z, and L_x, L_y alike.  Associativity at (x, y, z) is (x + y) +
       z = x + (y + z) = (y + z) + x, that is L_z = L_x.  Over the six
       orders it reads L_z = L_x at (x, y, z) and (z, y, x), L_x = L_y
       at (y, z, x) and (x, z, y), L_y = L_z at (z, x, y) and (y, x, z):
       three equations, any two of which imply the third.  The
       rotations (a, b, c) and (b, c, a) give the first two.  When
       a = b, the swap of their blocks fixes L_z and exchanges L_x and
       L_y, so L_z = L_x alone gives all three; when b = c, the swap of
       theirs fixes L_x and exchanges L_y and L_z, likewise.  Then
       (a, b, c) alone is checked.
    4. Unit: the unit u = [(), e] is placed by the empty injection, so
       u + x = (() + g)_* T[u, r] = g_* [1..m, r] = x for x = [g, r]
       once the unit law T[u, r] = [1..m, r] holds, and x + u = x
       likewise.  Then every law with u as a summand holds, so
       commutativity and associativity run over the other
       representatives only, and the first failing check and its error
       stay those of the full check.  `monoid_to_algebra` uses the same
       identity: its sum starts at the first slot's image, not at u.

    In these checks the inner sums are table reads, T[a, b] or T[b, c]
    shifted by m, and the outer sum of commutativity is T[b, a] moved
    by the block swap; the others go through `add`.  They run at the
    boundary; `_built` trusts a table the library built to satisfy them.
    """

    def __init__(self, carrier: CanonicalTameMSet, unit_point, table,
                 level_cap=None):
        self._take(carrier, unit_point, dict(table), level_cap)
        cap, T = self.level_cap, self.table
        if 0 not in carrier.levels:
            raise ValidationFailed("no level-0 part to hold the unit")
        if unit_point not in carrier.levels[0].point_set:
            raise ValidationFailed("unit point missing from level 0")

        std = {a: std_element(*a) for a in carrier.orbit_set()}
        reps = list(std)
        wanted = {(a, b) for a in reps for b in reps if a[0] + b[0] <= cap}
        if set(T) != wanted:
            raise ValidationFailed(
                "sum table must cover exactly the representative pairs "
                "within the level cap"
            )
        stabilizers = {(m, r): carrier.levels[m].stabilizer_generators(r)
                       for m, r in reps}
        # the second of two blocks; the first is the standard image
        seconds = {(m, n): tuple(range(m + 1, m + n + 1))
                   for m in carrier.levels for n in carrier.levels}
        for (a, b), c in T.items():
            m, n = a[0], b[0]
            if not carrier.has_element(c):
                raise ValidationFailed(f"sum of {a} and {b} invalid")
            # the image is strictly increasing, so its ends bound it
            if c.image and not 1 <= c.image[0] <= c.image[-1] <= m + n:
                raise ValidationFailed("sum not supported inside the blocks")
            first, second = std[a].image, seconds[m, n]
            moves = [s + second for s in stabilizers[a]]
            moves += [first + tuple([m + k for k in t]) for t in stabilizers[b]]
            if any(_permuted(carrier, g, c) != c for g in moves):
                raise ValidationFailed(f"sum of {a} and {b} not equivariant")

        u = (0, unit_point)
        for a, e in std.items():
            if a[0] > cap:
                raise DegreeTooLarge(
                    f"sum at level {a[0]} beyond the cap {cap}"
                )
            if T[(u, a)] != e or T[(a, u)] != e:
                raise ValidationFailed(f"unit law fails at {a}")
        reps = [a for a in reps if a != u]  # reduction 4
        # reps run by level, so each loop can stop at the first rep
        # past the cap
        for i, a in enumerate(reps):
            for b in reps[i:]:
                if a[0] + b[0] > cap:
                    break
                swap = seconds[a[0], b[0]] + std[a].image
                if T[(a, b)] != _permuted(carrier, swap, T[(b, a)]):
                    raise ValidationFailed(f"commutativity fails at {a}, {b}")
        for i, a in enumerate(reps):
            for j, b in enumerate(reps[i:], start=i):
                for c in reps[j:]:
                    if a[0] + b[0] + c[0] > cap:
                        break
                    rotations = [(a, b, c)]
                    if b not in (a, c):
                        rotations.append((b, c, a))
                    # (x + y) + z = x + (y + z) in standard blocks
                    for p, q, r in rotations:
                        z = self._shift(std[r], p[0] + q[0])
                        yz = self._shift(T[(q, r)], p[0])
                        if self.add(T[(p, q)], z) != self.add(std[p], yz):
                            raise ValidationFailed(
                                f"associativity fails at {p}, {q}, {r}"
                            )

    @classmethod
    def _built(cls, carrier, unit_point, table, level_cap):
        """The presentation of a table the library built to satisfy the
        monoid laws."""
        out = object.__new__(cls)
        out._take(carrier, unit_point, table, level_cap)
        return out

    def _take(self, carrier, unit_point, table, level_cap):
        self.carrier = carrier
        self.level_cap = DEFAULT_DEGREE_BOUND if level_cap is None else level_cap
        self.unit_point = unit_point
        self.unit = MElement(0, (), unit_point)
        self.table = table

    def _shift(self, e: MElement, offset):
        if offset == 0 or e.level == 0:
            return e
        return MElement(e.level, tuple(v + offset for v in e.image), e.point)

    def add(self, x: MElement, y: MElement) -> MElement:
        """The sum of two disjointly supported elements."""
        if not set(x.image).isdisjoint(y.image):
            raise OverlappingSupports(
                f"supports {set(x.image)} and {set(y.image)} meet"
            )
        m, n = x.level, y.level
        if m + n > self.level_cap:
            raise DegreeTooLarge(
                f"sum at level {m + n} beyond the cap {self.level_cap}"
            )
        levels = self.carrier.levels
        ra, g = levels[m].rooted_transversal()[x.point]
        rb, h = levels[n].rooted_transversal()[y.point]
        values = [x.image[k - 1] for k in g] + [y.image[k - 1] for k in h]
        return self.carrier.place(values, self.table[((m, ra), (n, rb))])


class AlgebraAction:
    """An operad algebra: a carrier with an n-ary action callable."""

    def __init__(self, carrier: CanonicalTameMSet, action, level_cap=None):
        self.carrier = carrier
        self.action = action
        self.level_cap = DEFAULT_DEGREE_BOUND if level_cap is None else level_cap
        zero = action(OperadElement([]), [])
        if zero.level != 0 or not carrier.has_element(zero):
            raise ValidationFailed("nullary action must give a fixed element")
        self.zero = zero
        ident = OperadElement([_ID])
        for m, ss in carrier.levels.items():
            for rep, _ in ss.orbits():
                e = std_element(m, rep)
                if action(ident, [e]) != e:
                    raise ValidationFailed("unary identity does not act trivially")

    def __call__(self, phi: OperadElement, elements):
        return self.action(phi, list(elements))


def monoid_to_algebra(P: CommMonoidPresentation) -> AlgebraAction:
    """Derive the operadic action: apply each slot to its argument and
    sum the disjointly supported results."""

    def action(phi: OperadElement, elements):
        if phi.arity != len(elements):
            raise ArityMismatch(
                f"arity {phi.arity} applied to {len(elements)} elements"
            )
        images = map(P.carrier.act, phi.slots, elements)
        return reduce(P.add, images, next(images, P.unit))  # reduction 4

    return AlgebraAction(P.carrier, action, P.level_cap)


def algebra_to_monoid(A: AlgebraAction) -> CommMonoidPresentation:
    """Read off the presentation (see `algebra_table`)."""
    unit, table = algebra_table(A)
    return CommMonoidPresentation(A.carrier, unit, table, A.level_cap)


def algebra_table(A: AlgebraAction):
    """The unit point and sum table of the presentation, unvalidated:
    the unit is the nullary value and a representative pair is summed
    by the two-slot element that keeps the first block in place and
    shifts the second past it."""
    unit = A(OperadElement([]), [])
    blocks = {
        (m, n): OperadElement([
            PartialInjection.identity_on(range(1, m + 1)),
            PartialInjection({j: m + j for j in range(1, n + 1)}),
        ])
        for m in A.carrier.levels for n in A.carrier.levels
        if m + n <= A.level_cap
    }
    std = {a: std_element(*a) for a in A.carrier.orbit_set()}
    table = {(a, b): A(blocks[(a[0], b[0])], [x, y])
             for a, x in std.items() for b, y in std.items()
             if a[0] + b[0] <= A.level_cap}
    return unit.point, table


def trivial_from_abelian(elements, addition, unit):
    """The presentation of an abelian monoid as a carrier concentrated
    at level zero, where every support is empty.  The monoid laws are
    the presentation's own checks; a failure is reported as NotAMonoid."""
    elements = list(elements)
    if unit not in set(elements):
        raise NotAMonoid("unit missing")

    def add(a, b):
        key = (a, b)
        if key not in addition:
            raise NotAMonoid(f"no sum for {key}")
        return addition[key]

    carrier = CanonicalTameMSet({0: trivial_sigma_set(0, elements)})
    table = {
        ((0, a), (0, b)): MElement(0, (), add(a, b))
        for a in elements
        for b in elements
    }
    try:
        return CommMonoidPresentation(carrier, unit, table)
    except ValidationFailed as exc:
        raise NotAMonoid(str(exc)) from exc


def cyclic_monoid(k):
    """Addition mod k, as plain table data."""
    elements = list(range(k))
    addition = {(a, b): (a + b) % k for a in elements for b in elements}
    return elements, addition, 0


def infinite_symmetric_product(points, basepoint, level_bound):
    """The free commutative box-monoid on a finite pointed set, cut off
    at the given level: level m holds the tuples of non-base values.
    The sum places one word after the other: concatenation, which is
    associative, commutative up to the swap of the blocks, has the
    empty word as unit, and is equivariant, since permuting the letters
    of either word permutes those of the concatenation."""
    carrier = symmetric_product_carrier(points, basepoint, level_bound)
    reps = carrier.orbit_set()
    table = {(a, b): std_element(a[0] + b[0], a[1] + b[1])
             for a in reps for b in reps if a[0] + b[0] <= level_bound}
    return CommMonoidPresentation._built(carrier, (), table, level_bound)


def symmetric_product_carrier(points, basepoint, level_bound):
    """The carrier of `infinite_symmetric_product`, without the sum."""
    if basepoint not in set(points):
        raise ValidationFailed("basepoint missing")
    letters = sorted((p for p in points if p != basepoint),
                     key=lambda p: point_key(p)[1])
    levels = {m: word_sigma_set(m, letters) for m in range(level_bound + 1)}
    return CanonicalTameMSet(levels)


def function_to_element(func) -> MElement:
    """A finitely supported function, given as position -> non-base
    value, as a canonical element of the symmetric-product carrier."""
    positions = tuple(sorted(func))
    return MElement(len(positions), positions, tuple(func[p] for p in positions))


def element_to_function(e: MElement):
    return {pos: e.point[i] for i, pos in enumerate(e.image)}


def pointwise_action(phi: OperadElement, funcs):
    """The direct action on finitely supported functions: value at
    phi(i, k) is the i-th function's value at k, base elsewhere."""
    out = {}
    if phi.arity != len(funcs):
        raise ArityMismatch("one function per slot")
    for slot, f in zip(phi.slots, funcs):
        for pos, val in f.items():
            target = slot(pos)
            if target in out:
                raise SupportNotCovered("slots overlap on supports")
            out[target] = val
    return out


def wedge_iso(points_x, base_x, points_y, base_y, level_bound):
    """The levelwise comparison between the box product of two
    symmetric products and the symmetric product of the wedge.

    Returns (per-level maps, bijective-and-equivariant flag)."""
    PX = symmetric_product_carrier(points_x, base_x, level_bound)
    PY = symmetric_product_carrier(points_y, base_y, level_bound)
    wedge_points = ["*"] + [
        ("x", p) for p in points_x if p != base_x
    ] + [("y", q) for q in points_y if q != base_y]
    PW = symmetric_product_carrier(wedge_points, "*", level_bound)
    B = box(PX, PY, degree_bound=level_bound, level_cap=level_bound)

    maps = {}
    ok = True
    for k in sorted(B.levels):
        src = B.levels[k]
        tgt = PW.levels.get(k)
        table = {}
        for p in src.points:
            _, (positions, za, wb) = p
            # the positions, in increasing order, read za; the rest read wb
            xs, ys = iter(za), iter(wb)
            table[p] = tuple(("x", next(xs)) if j in positions
                             else ("y", next(ys)) for j in range(1, k + 1))
        maps[k] = table
        values = list(table.values())
        if (tgt is None or len(set(values)) != len(values)
                or set(values) != tgt.point_set):
            ok = False
            continue
        for i in range(1, k):
            s_src = src.transpositions[i - 1]
            s_tgt = tgt.transpositions[i - 1]
            for p in src.points:
                if table[s_src[p]] != s_tgt[table[p]]:
                    ok = False
    return maps, ok


def operadic_to_box(X: CanonicalTameMSet, Y: CanonicalTameMSet,
                    psi: OperadElement, x: MElement, y: MElement):
    """Evaluate the comparison from the operadic pairing to the box
    product: apply the two slots and pair the results."""
    if psi.arity != 2:
        raise ArityMismatch("binary pairing expected")
    xs = X.act(psi.slot(1), x)
    ys = Y.act(psi.slot(2), y)
    return xs, ys


def box_to_operadic(x: MElement, y: MElement) -> OperadElement:
    """The section: identity slots on the two disjoint supports."""
    if support(x) & support(y):
        raise OverlappingSupports("supports meet")
    return OperadElement(
        [
            PartialInjection.identity_on(support(x)),
            PartialInjection.identity_on(support(y)),
        ]
    )


# ---------------------------------------------------------------------------
# certificates


class CertificateStep(NamedTuple):
    element: OperadElement
    move: tuple
    direction: str


class Certificate:
    """A chain of elementary moves between multi-slot injections.  Each
    step records the earlier chain element, the move, and whether the
    move produces the next element (fwd) or recovers this one (bwd)."""

    def __init__(self, n, constraints, steps, final):
        self.n = n
        self.constraints = tuple(frozenset(A) for A in constraints)
        self.steps = list(steps)
        self.final = final

    def chain(self):
        return [s.element for s in self.steps] + [self.final]

    def __len__(self):
        return len(self.steps)


def _reaches(source: OperadElement, moves, target: OperadElement):
    """Whether source after (f_1 + ... + f_n) is target, decided slot by
    slot by evaluation at finitely many points; builds no normal form.

    Let s and g be slot i of source and of target, with thresholds t_s,
    t_g and periods p_s, p_g: from t on, a normal form is affine on each
    residue class mod p.  s after f_i is g exactly when s(v0 + k*step)
    = g(first + k*mod) for every span (first, last, mod, v0, step) of
    f_i and every k with first + k*mod <= last.  From k0 = max(0,
    ceil((t_s - v0)/step), ceil((t_g - first)/mod)) on, both arguments
    are past their thresholds.  The class of v0 + k*step mod p_s
    depends only on k mod p_s/gcd(step, p_s), and that of first + k*mod
    mod p_g only on k mod p_g/gcd(mod, p_g); so on each class of k mod L,
    their lcm, both sides are affine in k.  (Along k = c + jL, each
    argument moves by L*step or L*mod, a multiple of its period.)  Two
    affine maps that agree at two points agree everywhere, and the
    first two k >= k0 of every class lie below k0 + 2L.  So the points
    k < k0 + 2L, capped at `last`, decide the span: those below k0 one
    by one, the rest two per progression."""
    for s, f, g in zip(source.slots, moves, target.slots):
        ps, pg = s.spans[-1][2], g.spans[-1][2]
        ts, tg = len(s.spans) - ps + 1, len(g.spans) - pg + 1
        for first, last, mod, v0, step in f.spans:
            if first == last:
                top = 1
            else:
                k0 = max(0, -((v0 - ts) // step), -((first - tg) // mod))
                top = k0 + 2 * lcm(ps // gcd(step, ps), pg // gcd(mod, pg))
                if last is not None:
                    top = min(top, (last - first) // mod + 1)
            for k in range(top):
                if s(v0 + k * step) != g(first + k * mod):
                    return False
    return True


def verify_certificate(cert: Certificate, phi=None, psi=None):
    """Exact verification: one constraint set per slot, every move
    fixes its constraint set, every step joins consecutive elements
    (`_reaches`), endpoints match when given.

    Returns (ok, failing step index or None, reason)."""
    if len(cert.constraints) != cert.n:
        return False, None, "constraint count mismatch"
    chain = cert.chain()
    for e in chain:
        if e.arity != cert.n:
            return False, None, "arity mismatch in chain"
        if not all(isinstance(s, QuasiAffineInjection) for s in e.slots):
            return False, None, "chain element with inexact slots"
    for idx, step in enumerate(cert.steps):
        cur, nxt = chain[idx], chain[idx + 1]
        if len(step.move) != cert.n:
            return False, idx, "move arity mismatch"
        for f, A in zip(step.move, cert.constraints):
            if not isinstance(f, QuasiAffineInjection):
                return False, idx, "inexact move"
            if not f.fixes_pointwise(A):
                return False, idx, "move fails to fix a constraint set"
        try:
            if step.direction == "fwd":
                if not _reaches(cur, step.move, nxt):
                    return False, idx, "forward step does not reach the next element"
            elif step.direction == "bwd":
                if not _reaches(nxt, step.move, cur):
                    return False, idx, "backward step does not recover this element"
            else:
                return False, idx, "unknown direction"
        except TameboxError:
            return False, idx, "step evaluation failed"
    if phi is not None and chain[0] != phi:
        return False, None, "start does not match"
    if psi is not None and chain[-1] != psi:
        return False, None, "end does not match"
    return True, None, "ok"


_DOUBLE = QuasiAffineInjection.affine(2, 0)
_DOUBLE_ODD = QuasiAffineInjection.affine(2, -1)


def _merge_even_odd(even_part: QuasiAffineInjection,
                    odd_part: QuasiAffineInjection):
    """The map sending 2i to even_part(i) and 2i-1 to odd_part(i); an
    injection when the images of the two parts are disjoint, as they are
    in each slot of the elements chi of `_connect`."""
    spans = []
    for part, shift in ((even_part, 0), (odd_part, 1)):
        for f, l, m, v, s in part.spans:
            spans.append((2 * f - shift, None if l is None else 2 * l - shift,
                          2 * m, v, s))
    return QuasiAffineInjection._built(spans)


def _widen(u: QuasiAffineInjection, M):
    """The move w(i) = first + (i-1)*mod*M through the first unbounded
    span of u, and u after w: affine with a slope divisible by M.  The
    move is the identity when u has that form already."""
    first, _, mod, v0, step = u.spans[-u.spans[-1][2]]
    if len(u.spans) == 1 and step % M == 0:
        return _ID, u
    return (QuasiAffineInjection.affine(mod * M, first - mod * M),
            QuasiAffineInjection.affine(step * M, v0 - step * M))


def _connect(phi: OperadElement, psi: OperadElement):
    """A chain of at most six steps between two slotwise exact elements
    of equal arity n with no constraints; M = n(2n+1).

    Widen phi to a and psi to b (`_widen`), so that every slot is
    affine and lies in one residue class mod M.  When the classes of a
    and of b are disjoint, a <-bwd(2i) chi ->fwd(2i-1) b, where chi
    merges the slots of a (even positions) with those of b (odd ones).
    Otherwise both bridges pass through sigma, whose slot k has slope M
    and the least class = k (mod n) that neither a nor b uses.

    a and b are elements: slot k of a is slot k of phi after a move,
    so its image lies in that of slot k of phi, and likewise for b.
    The proofs for sigma and chi are in `certify_agreement`."""
    n = phi.arity
    M = n * (2 * n + 1)
    widen_a = [_widen(s, M) for s in phi.slots]
    widen_b = [_widen(s, M) for s in psi.slots]
    a = OperadElement._built([u for _, u in widen_a])
    b = OperadElement._built([u for _, u in widen_b])
    elems, steps = [phi], []
    if a != phi:
        steps.append(CertificateStep(phi, tuple(w for w, _ in widen_a), "fwd"))
        elems.append(a)
    if a != b:
        classes_a = {s.spans[0][3] % M for s in a.slots}
        classes_b = {s.spans[0][3] % M for s in b.slots}
        stops = [b]
        if classes_a & classes_b:
            used = classes_a | classes_b
            free = [next(r for r in range(k, M + 1, n) if r % M not in used)
                    for k in range(1, n + 1)]
            sigma = OperadElement._built(
                [QuasiAffineInjection.affine(M, r - M) for r in free]
            )
            stops = [sigma, b]
        for stop in stops:
            chi = OperadElement._built([_merge_even_odd(x, y) for x, y
                                        in zip(elems[-1].slots, stop.slots)])
            steps += [CertificateStep(elems[-1], (_DOUBLE,) * n, "bwd"),
                      CertificateStep(chi, (_DOUBLE_ODD,) * n, "fwd")]
            elems += [chi, stop]
    if b != psi:
        steps.append(CertificateStep(b, tuple(w for w, _ in widen_b), "bwd"))
        elems.append(psi)
    return elems, steps


def certify_agreement(phi: OperadElement, psi: OperadElement, constraints):
    """Produce a verified chain between two elements that agree on the
    prescribed sets; every move fixes those sets pointwise.

    One kernel cuts the constraint sets away and one puts them back,
    and no order embedding is built.  With e_i the one of omega onto
    omega minus A_i, and e the one onto omega minus the values P that
    phi takes on the constraint sets, slot i of phi' is e^-1 after
    phi_i after e_i (`_reindex`); psi' likewise.  `_connect` joins
    them in at most six steps, and `_transported`, which the pair
    generators share, takes the chain back: slot i of an element x
    becomes e after x_i after e_i^-1 off A_i and phi_i on A_i, and a
    move f of slot i, once per distinct move, e_i after f after e_i^-1
    off A_i and the identity on A_i.

    The library builds these maps and elements itself, unchecked, as
    they are valid by construction; `verify_certificate` checks the
    chain at the end.  phi' is an element: slot i of phi after e_i
    misses the pinned values of slot i, as phi_i is injective, and
    those of every other slot, as the slots of phi have disjoint
    images; so e^-1 is defined on it, and as an order bijection of
    omega minus P onto omega it keeps the images disjoint.  psi'
    likewise, as psi agrees with phi on the constraint sets.  A
    transported element is one: off the constraint sets its slots are
    e after those of x, with disjoint images that avoid P, as e is
    injective and misses P; on them they take the values P, pairwise
    distinct.  A transported move is injective: off A_i its values are
    values of e_i, which avoid A_i, where it is the identity.  phi'
    and psi' are transported back to phi and psi.

    Let n be the arity and M = n(2n+1).  The widened a = phi' after
    (w_1 + ... + w_n) has affine slots a_k(i) = v_k + (i-1)*M*s_k, all
    of whose values lie in the class v_k mod M; b is widened from psi'
    the same way.

    chi is an operad element.  Slot k of chi = merge(x, y) sends 2i to
    x_k(i) and 2i-1 to y_k(i); its image is the union of x_k(omega) and
    y_k(omega), and it is injective when these two are disjoint.  So chi
    is an element exactly when the 2n images x_1(omega), ...,
    x_n(omega), y_1(omega), ..., y_n(omega) are pairwise disjoint.  Those of x are, as x is an element; so are those
    of y; and x_k(omega) and y_j(omega) lie in distinct residue classes
    mod M when no class of x is a class of y.  That is the direct case
    (x, y) = (a, b), and it holds for (a, sigma) and (sigma, b).

    sigma is an operad element.  Its slot k is i -> r_k + (i-1)*M with
    r_k = k (mod n); as n divides M every value of slot k is k mod n,
    so distinct slots have disjoint images.  Equivalently sigma is the
    n-ary interleaving s_n(k)(i) = n(i-1) + k after the affine moves
    i -> j_k + 1 + (2n+1)(i-1), where r_k = k + n*j_k.

    A free class exists.  Mod M there are exactly M/n = 2n+1 classes
    = k (mod n), namely k, k+n, ..., k+2n*n.  a and b have n slots
    each and so use at most 2n classes between them, which leaves one
    class = k (mod n) unused for every k; sigma takes the least.  Its
    classes then avoid those of a and of b, and each bridge through it
    is a direct case.

    The chain is phi' -> a <- chi -> b <- psi', or with a <- chi_a ->
    sigma <- chi_b -> b in the middle: at most six steps, and fewer
    when phi' = a, a = b or b = psi'."""
    n = phi.arity
    if n < 2:
        raise PreconditionViolated("arity must be at least two")
    if psi.arity != n or len(constraints) != n:
        raise PreconditionViolated("arities and constraint count must agree")
    for A in constraints:
        for a in A:
            if type(a) is not int or a < 1:
                raise PreconditionViolated(
                    f"constraint value {a!r} is not a positive integer")
    constraints = [frozenset(A) for A in constraints]
    for e in (phi, psi):
        if not all(isinstance(s, QuasiAffineInjection) for s in e.slots):
            raise PreconditionViolated("slots must be quasi-affine")
    for i in range(n):
        for a in constraints[i]:
            if phi.slot(i + 1)(a) != psi.slot(i + 1)(a):
                raise PreconditionViolated(
                    f"elements disagree at slot {i + 1}, point {a}"
                )

    if phi == psi:
        cert = Certificate(n, constraints, [], phi)
    else:
        cuts = [sorted(A) for A in constraints]
        pinned_slots = [
            {a: phi.slot(i + 1)(a) for a in constraints[i]} for i in range(n)
        ]
        # the pinned values are cut from the target; the connecting
        # chain then cannot run into them
        taken = sorted(v for pin in pinned_slots for v in pin.values())
        inner_phi, inner_psi = (
            OperadElement._built([QuasiAffineInjection._built(_reindex(
                _reindex(s.spans, A, values=False, collapse=True),
                taken, values=True, collapse=True))
                for s, A in zip(e.slots, cuts)])
            for e in (phi, psi)
        )
        elems, steps = _connect(inner_phi, inner_psi)
        moves = {}  # (slot, move) -> the move transported back

        def transport_move(i, f):
            if (i, f) not in moves:
                moves[i, f] = _transported(f, cuts[i], {a: a for a in cuts[i]})
            return moves[i, f]

        # transporting phi' and psi' back gives phi and psi themselves
        out_elems = [phi, *(
            OperadElement._built([_transported(s, taken, pinned_slots[i])
                                  for i, s in enumerate(e.slots)])
            for e in elems[1:-1]
        ), psi]
        out_steps = [
            CertificateStep(
                out_elems[idx],
                tuple(transport_move(i, f) for i, f in enumerate(step.move)),
                step.direction,
            )
            for idx, step in enumerate(steps)
        ]
        cert = Certificate(n, constraints, out_steps, out_elems[-1])

    ok, at, reason = verify_certificate(cert, phi, psi)
    if not ok:
        raise SearchExhausted(f"construction failed verification: {reason} ({at})")
    return cert
