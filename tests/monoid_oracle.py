"""The commutative box-monoid kernel before it was table-driven, kept
as a test oracle for tamebox.opalg.CommMonoidPresentation.

`OraclePresentation` validates a sum table the old way: the unit law,
commutativity on every ordered pair and associativity on every ordered
triple of orbit representatives, each side summed through `add`, and
equivariance under every pair of stabilizer permutations.  Its `add`
places the summands with a `PartialInjection` and `carrier.act`.

Beside it: `is_element`, the membership test it decides sums with, so
that it shares no check with the carrier; `generators`, the generating
set the library once built for the equivariance checks from the
stabilizer by enumerating the symmetric group, with `closure`, the
group some permutations generate; and `unit_first_action`, the derived
operadic action as it was before its sum started at the first slot's
image instead of at the unit."""

from tamebox.errors import DegreeTooLarge, OverlappingSupports, ValidationFailed
from tamebox.injections import PartialInjection
from tamebox.mset import CanonicalTameMSet, MElement, support
from tamebox.opalg import std_element
from tamebox.sigma import identity_perm, perm_compose

from sigma_oracle import stabilizer


def closure(gens, m):
    """The subgroup of the degree-m symmetric group that the
    permutations generate."""
    span = {identity_perm(m)}
    frontier = span
    while frontier:
        frontier = {q for p in frontier for h in gens
                    if (q := perm_compose(h, p)) not in span}
        span |= frontier
    return span


def generators(group):
    """A generating set of a finite permutation group: its elements in
    order, each kept unless those kept before already generate it."""
    m = len(next(iter(group)))
    kept = []
    for g in sorted(group):
        if g not in closure(kept, m):
            kept.append(g)
    return kept


def is_element(carrier, c):
    """Membership decided here, not by the carrier: the level is in the
    carrier, the point in that level, and the image is as long as the
    level and strictly increasing."""
    ss = carrier.levels.get(c.level)
    return (ss is not None and c.point in set(ss.points)
            and len(c.image) == c.level
            and all(i < j for i, j in zip(c.image, c.image[1:])))


def unit_first_action(P, phi, elements):
    """The derived action of phi: the unit plus the slot images, summed
    from the left."""
    total = P.unit
    for slot, e in zip(phi.slots, elements):
        total = P.add(total, P.carrier.act(slot, e))
    return total


class OraclePresentation:
    """The presentation as it was validated before the table-driven
    kernel: every sum through a transversal, a PartialInjection and
    carrier.act, and every law on all ordered pairs and triples."""

    def __init__(self, carrier: CanonicalTameMSet, unit_point, table,
                 level_cap=None):
        self.carrier = carrier
        self.level_cap = 7 if level_cap is None else level_cap
        if 0 not in carrier.levels:
            raise ValidationFailed("no level-0 part to hold the unit")
        if unit_point not in set(carrier.levels[0].points):
            raise ValidationFailed("unit point missing from level 0")
        self.unit_point = unit_point
        self.table = dict(table)
        reps = [
            (m, rep)
            for m, ss in sorted(carrier.levels.items())
            for rep, _ in ss.orbits()
        ]
        wanted = {
            (a, b) for a in reps for b in reps if a[0] + b[0] <= self.level_cap
        }
        if set(self.table) != wanted:
            raise ValidationFailed(
                "sum table must cover exactly the representative pairs "
                "within the level cap"
            )
        for (m, ra), (n, rb) in self.table:
            c = self.table[((m, ra), (n, rb))]
            if not is_element(carrier, c):
                raise ValidationFailed(f"sum of {(m, ra)} and {(n, rb)} invalid")
            if not set(c.image) <= set(range(1, m + n + 1)):
                raise ValidationFailed("sum not supported inside the blocks")
            stab_a = stabilizer(carrier.levels[m], ra) if m else [()]
            stab_b = stabilizer(carrier.levels[n], rb) if n else [()]
            for sa in stab_a:
                for sb in stab_b:
                    f = {k: sa[k - 1] for k in range(1, m + 1)}
                    f.update({m + k: m + sb[k - 1] for k in range(1, n + 1)})
                    if carrier.act(PartialInjection(f), c) != c:
                        raise ValidationFailed(
                            f"sum of {(m, ra)} and {(n, rb)} not equivariant"
                        )

        self.unit = MElement(0, (), unit_point)
        for m, r in reps:
            e = std_element(m, r)
            if self.add(self.unit, e) != e or self.add(e, self.unit) != e:
                raise ValidationFailed(f"unit law fails at {(m, r)}")
        for a in reps:
            for b in reps:
                if a[0] + b[0] > self.level_cap:
                    continue
                x = std_element(*a)
                y = self._shift(std_element(*b), a[0])
                if self.add(x, y) != self.add(y, x):
                    raise ValidationFailed(f"commutativity fails at {a}, {b}")
        for a in reps:
            for b in reps:
                for c in reps:
                    if a[0] + b[0] + c[0] > self.level_cap:
                        continue
                    x = std_element(*a)
                    y = self._shift(std_element(*b), a[0])
                    z = self._shift(std_element(*c), a[0] + b[0])
                    if self.add(self.add(x, y), z) != self.add(x, self.add(y, z)):
                        raise ValidationFailed(
                            f"associativity fails at {a}, {b}, {c}"
                        )

    def _shift(self, e: MElement, offset):
        if offset == 0 or e.level == 0:
            return e
        return MElement(e.level, tuple(v + offset for v in e.image), e.point)

    def add(self, x: MElement, y: MElement) -> MElement:
        """The sum of two disjointly supported elements."""
        if support(x) & support(y):
            raise OverlappingSupports(
                f"supports {set(x.image)} and {set(y.image)} meet"
            )
        m, n = x.level, y.level
        if m + n > self.level_cap:
            raise DegreeTooLarge(
                f"sum at level {m + n} beyond the cap {self.level_cap}"
            )
        carrier = self.carrier
        placements = {}
        parts = []
        for offset, e in ((0, x), (m, y)):
            if e.level == 0:
                parts.append(e.point)
                continue
            rep, sigma = carrier.levels[e.level].rooted_transversal()[e.point]
            parts.append(rep)
            for k in range(1, e.level + 1):
                placements[offset + k] = e.image[sigma[k - 1] - 1]
        c = self.table[((m, parts[0]), (n, parts[1]))]
        if not placements:
            return c
        return carrier.act(PartialInjection(placements), c)
