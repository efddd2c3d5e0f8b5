"""The table-driven commutative box-monoid kernel of
tamebox.opalg.CommMonoidPresentation against the kernel kept in
monoid_oracle.

Compared: `add` on every disjointly supported pair inside the window
{1..6}, and the validator's verdict (accepted, or the class and message
of its error) on the instances the law suites and the benchmark build,
on every single-entry change of the small tables, and on random
single-entry changes of the larger ones.  Negative cases at positive
levels check each law on its own, including a commutative table whose
associativity fails, where the proof in the class docstring says at
least two of the three rotations of a failing triple fail."""

import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoid_oracle as oracle
from tamebox.errors import (
    DegreeTooLarge,
    OverlappingSupports,
    TameboxError,
    ValidationFailed,
)
from tamebox.mset import MElement
from tamebox.opalg import (
    CommMonoidPresentation,
    cyclic_monoid,
    infinite_symmetric_product,
    std_element,
    trivial_from_abelian,
)

WINDOW = 6


def wedge_presentations(x, y, level):
    """The symmetric-product presentations on the three carriers that
    wedge_iso builds for `wedge-iso --x X --y Y --level L`: both
    factors and the wedge."""
    xs = ["*"] + [f"a{i}" for i in range(1, x)]
    ys = ["*"] + [f"b{i}" for i in range(1, y)]
    wedge = ["*"] + [("x", p) for p in xs[1:]] + [("y", q) for q in ys[1:]]
    return [infinite_symmetric_product(pts, "*", level)
            for pts in (xs, ys, wedge)]


@cache
def instances():
    """Labelled presentations: the cyclic monoids, the symmetric
    products with 2-4 points up to level 4 and those of the law suites,
    and the carriers of the benchmark's three wedge-iso commands."""
    out = {f"cyclic {k}": trivial_from_abelian(*cyclic_monoid(k))
           for k in (2, 3, 4)}
    letters = ["a", "b", "c"]
    for n in (1, 2, 3):
        for level in (1, 2, 3, 4):
            out[f"xinf {n + 1} {level}"] = infinite_symmetric_product(
                ["*"] + letters[:n], "*", level)
    for n, level in ((1, 5), (2, 5), (2, 6)):
        out[f"xinf {n + 1} {level}"] = infinite_symmetric_product(
            ["*"] + letters[:n], "*", level)
    for x, y in ((2, 2), (2, 3), (3, 2)):
        for side, P in zip(("x", "y", "wedge"), wedge_presentations(x, y, 4)):
            out[f"wedge-iso {x} {y} 4 {side}"] = P
    return out


def verdict(build):
    """What a validator says: None when it accepts, else the class and
    message of its error.  Only the triple an associativity failure
    names may differ between the two kernels, so that message is cut
    to its first words."""
    try:
        build()
    except TameboxError as e:
        msg = str(e)
        if msg.startswith("associativity fails"):
            msg = "associativity fails"
        return type(e), msg
    return None


def both_verdicts(P, table):
    args = (P.carrier, P.unit_point, table, P.level_cap)
    return (verdict(lambda: CommMonoidPresentation(*args)),
            verdict(lambda: oracle.OraclePresentation(*args)))


def disjoint_pairs(P):
    """Every disjointly supported pair inside the window whose levels
    add up to at most the cap."""
    by_level = {}
    for e in P.carrier.elements_up_to(WINDOW):
        by_level.setdefault(e.level, []).append(e)
    for m, xs in by_level.items():
        for n, ys in by_level.items():
            if m + n > P.level_cap:
                continue
            for x in xs:
                sx = set(x.image)
                for y in ys:
                    if sx.isdisjoint(y.image):
                        yield x, y


@pytest.mark.parametrize("label", sorted(instances()))
def test_add_matches_oracle(label):
    P = instances()[label]
    O = oracle.OraclePresentation(P.carrier, P.unit_point, P.table,
                                  P.level_cap)
    count = 0
    for x, y in disjoint_pairs(P):
        assert P.add(x, y) == O.add(x, y), (x, y)
        count += 1
    assert count > 0


def test_add_errors_match_oracle():
    P = instances()["xinf 3 2"]
    O = oracle.OraclePresentation(P.carrier, P.unit_point, P.table,
                                  P.level_cap)
    x = P.carrier.canonical(1, (2,), ("a",))
    y = P.carrier.canonical(2, (2, 5), ("a", "b"))
    for kernel in (P, O):
        with pytest.raises(OverlappingSupports):
            kernel.add(x, y)
        with pytest.raises(DegreeTooLarge):
            kernel.add(x, P.carrier.canonical(2, (1, 3), ("b", "b")))


def test_wedge_presentations_are_what_wedge_iso_sums():
    # the level sizes of the benchmark's wedge carriers, for 1-3 letters
    for P, letters in zip(wedge_presentations(2, 3, 4), (1, 2, 3)):
        assert [len(P.carrier.levels[m]) for m in range(5)] == [
            letters ** m for m in range(5)]


def test_carrier_above_the_cap_judged_as_oracle():
    # the unit law cannot be summed for a representative above the cap
    P = instances()["xinf 3 3"]
    table = {k: v for k, v in P.table.items() if k[0][0] + k[1][0] <= 2}
    for build in (CommMonoidPresentation, oracle.OraclePresentation):
        with pytest.raises(DegreeTooLarge, match="level 3 beyond the cap 2"):
            build(P.carrier, P.unit_point, table, 2)


@pytest.mark.parametrize("label", sorted(instances()))
def test_validator_accepts_with_oracle(label):
    P = instances()[label]
    assert both_verdicts(P, P.table) == (None, None)


def single_entry_changes(P):
    """Every table with one entry replaced by another element supported
    inside its two blocks."""
    elements = P.carrier.elements_up_to(P.level_cap)
    for key in P.table:
        (m, _), (n, _) = key
        for c in elements:
            if c != P.table[key] and (not c.image or c.image[-1] <= m + n):
                yield {**P.table, key: c}


LAWS = ("invalid", "blocks", "equivariant", "unit law", "commutativity",
        "associativity")


def law(v):
    """The check a rejection names."""
    return next(kw for kw in LAWS if kw in v[1])


@pytest.mark.parametrize("label", ["cyclic 2", "cyclic 3", "cyclic 4",
                                   "xinf 2 3", "xinf 3 2", "xinf 4 1"])
def test_every_single_entry_change_judged_as_oracle(label):
    P = instances()[label]
    for table in single_entry_changes(P):
        new, old = both_verdicts(P, table)
        assert new == old


def test_single_entry_changes_reach_every_law():
    seen = set()
    for label in ("cyclic 3", "xinf 3 2"):
        P = instances()[label]
        for table in single_entry_changes(P):
            new = verdict(lambda: CommMonoidPresentation(
                P.carrier, P.unit_point, table, P.level_cap))
            if new is not None:
                seen.add(law(new))
    assert {"equivariant", "unit law", "commutativity",
            "associativity"} <= seen


def top_sum_changes(P):
    """Every table with one sum w + l at the cap, for w above l, moved
    to another point of its orbit, and l + w moved with it so that
    commutativity still holds: what is left to fail is equivariance
    or associativity at one multiset."""
    cap = P.level_cap
    top = [e for e in P.carrier.elements_up_to(cap) if e.level == cap]
    root = P.carrier.levels[cap].orbit_root
    for (a, b), value in P.table.items():
        m, n = a[0], b[0]
        if m + n != cap or not n or m < n:
            continue
        swap = tuple(range(n + 1, n + m + 1)) + tuple(range(1, n + 1))
        for c in top:
            if c != value and root(c.point) == root(value.point):
                yield {**P.table, (a, b): c, (b, a): P.carrier.place(swap, c)}


def test_changed_top_sums_judged_as_oracle():
    # three distinct letters need both rotations: a change of (a + c) + b
    # keeps (a, b, c) and fails only (b, c, a)
    P = instances()["xinf 4 3"]
    seen = set()
    for table in top_sum_changes(P):
        new, old = both_verdicts(P, table)
        assert new == old
        seen.add(new if new is None else law(new))
    assert {"equivariant", "associativity"} <= seen


MUTABLE = ["xinf 2 4", "xinf 3 3", "xinf 4 2", "xinf 2 5",
           "wedge-iso 2 2 4 y"]


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.integers(0, 10**6))
def test_random_single_entry_change_judged_as_oracle(seed):
    rng = random.Random(seed)
    P = instances()[rng.choice(MUTABLE)]
    key = rng.choice(list(P.table))
    (m, _), (n, _) = key
    kind = rng.random()
    if kind < 0.1:
        # an element whose support reaches past the two blocks
        pool = [e for e in P.carrier.elements_up_to(m + n + 1)
                if m + n + 1 in e.image]
    else:
        pool = P.carrier.elements_up_to(m + n)
    if not pool:
        return
    c = rng.choice(pool)
    if kind > 0.9 and c.level > 1:
        # not a canonical element: its image is not sorted
        c = MElement(c.level, c.image[::-1], c.point)
    table = {**P.table, key: c}
    new, old = both_verdicts(P, table)
    assert new == old


# -- negative cases at positive levels ---------------------------------------


def two_letters():
    return infinite_symmetric_product(["*", "a", "b"], "*", 3)


def rejected(P, table, match):
    args = (P.carrier, P.unit_point, table, P.level_cap)
    with pytest.raises(ValidationFailed, match=match):
        CommMonoidPresentation(*args)
    with pytest.raises(ValidationFailed, match=match):
        oracle.OraclePresentation(*args)


def test_broken_unit_at_level_one():
    P = two_letters()
    unit, a = (0, ()), (1, ("a",))
    rejected(P, {**P.table, (unit, a): std_element(1, ("b",))},
             "unit law fails at")


def test_broken_commutativity_at_level_two():
    # a + b written as the word ba: still equivariant (the level-1
    # stabilizers are trivial) and unital, but b + a is the word ab
    P = two_letters()
    a, b = (1, ("a",)), (1, ("b",))
    rejected(P, {**P.table, (a, b): std_element(2, ("b", "a"))},
             "commutativity fails at")


def test_broken_equivariance_at_level_three():
    # aa + b must be fixed by swapping the two places of aa
    P = two_letters()
    aa, b = (2, ("a", "a")), (1, ("b",))
    rejected(P, {**P.table, (aa, b): std_element(3, ("a", "b", "b"))},
             "not equivariant")


def letter_cancelling_table(carrier, cap):
    """Sums of words: the unit adds nothing, a sum of one letter
    repeated is the concatenation, and any other sum is the unit.
    Commutative and equivariant, since each value is fixed by every
    permutation of its support, but (a + b) + c = c and a + (b + c) = a
    sit at different places."""
    unit = std_element(0, ())
    table = {}
    reps = carrier.orbit_set()
    for a in reps:
        for b in reps:
            if a[0] + b[0] > cap:
                continue
            word = a[1] + b[1]
            if not a[0] or not b[0] or len(set(word)) == 1:
                table[(a, b)] = std_element(len(word), word)
            else:
                table[(a, b)] = unit
    return table


def unchecked(carrier, table, cap):
    """A presentation whose `add` reads the table, built without
    validation."""
    P = object.__new__(CommMonoidPresentation)
    P.carrier, P.table, P.level_cap = carrier, table, cap
    return P


def test_commutative_non_associative_table():
    P = infinite_symmetric_product(["*", "a", "b", "c"], "*", 3)
    table = letter_cancelling_table(P.carrier, 3)
    rejected(P, table, "associativity fails at")

    # the three sums (x + y) + z, (y + z) + x, (z + x) + y of the
    # letters a, b, c in the blocks 1, 2, 3: associativity at the three
    # rotations reads L_z = L_x, L_x = L_y, L_y = L_z, and at least two
    # of them fail, so checking two rotations catches the failure
    U = unchecked(P.carrier, table, 3)
    x, y, z = (U.carrier.canonical(1, (i,), (v,))
               for i, v in ((1, "a"), (2, "b"), (3, "c")))
    L = {"z": U.add(U.add(x, y), z), "x": U.add(U.add(y, z), x),
         "y": U.add(U.add(z, x), y)}
    failing = [(p, q) for p, q in (("z", "x"), ("x", "y"), ("y", "z"))
               if L[p] != L[q]]
    assert len(failing) >= 2
    # commutativity holds for every pair, so the failure is associativity
    for u, v in ((x, y), (y, z), (x, z)):
        assert U.add(u, v) == U.add(v, u)

