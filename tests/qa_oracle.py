"""The rational quasi-affine kernel, kept as a test oracle.

This is the kernel `tamebox.injections` used before pieces were stored
as integer spans: every piece carries rational coefficients (a, b),
normalization tests domain and image overlaps pair by pair with the
Chinese remainder theorem, and composition intersects every inner piece
with every outer one.  It is slow and serves only to cross-check the
integer kernel.  Pieces are `tamebox.injections.Piece` tuples; a normal
form is a tuple of `Piece`s with Fraction coefficients.  The slot check
of `OperadElement` is kept here as it was, pair by pair.
"""

import math
from fractions import Fraction
from math import gcd, lcm

from tamebox.errors import NotCovering, NotInjective
from tamebox.injections import Piece, QuasiAffineInjection


def _mod_inverse(a, m):
    return pow(a % m, -1, m) if m > 1 else 0


def _crt(r1, m1, r2, m2):
    g = gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    l = lcm(m1, m2)
    t = ((r2 - r1) // g * _mod_inverse(m1 // g, m2 // g)) % (m2 // g)
    return ((r1 + m1 * t) % l, l)


def progressions_intersect(p1, p2):
    """Whether two progressions (start, step, count) meet; count None
    means unbounded."""
    s1, d1, n1 = p1
    s2, d2, n2 = p2
    e1 = None if n1 is None else s1 + d1 * (n1 - 1)
    e2 = None if n2 is None else s2 + d2 * (n2 - 1)
    sol = _crt(s1 % d1, d1, s2 % d2, d2)
    if sol is None:
        return False
    r, m = sol
    low = max(s1, s2)
    x = low + ((r - low) % m)
    if e1 is not None and x > e1:
        return False
    if e2 is not None and x > e2:
        return False
    return True


def first(p):
    f = p.lo + ((p.res - p.lo) % p.mod)
    if p.hi is not None and f > p.hi:
        return None
    return f


def count(p):
    f = first(p)
    if f is None:
        return 0
    if p.hi is None:
        return None
    return (p.hi - f) // p.mod + 1


def contains(p, i):
    if i < p.lo or (p.hi is not None and i > p.hi):
        return False
    return i % p.mod == p.res % p.mod


def value(p, i):
    v = p.a * i + p.b
    if v.denominator != 1:
        raise NotInjective(f"non-integral value at {i}")
    return int(v)


def image_progression(p):
    """(start, step, count); a one-point piece reports step 1."""
    f = first(p)
    if f is None:
        return None
    if count(p) == 1:
        return (value(p, f), 1, 1)
    step = p.a * p.mod
    assert step.denominator == 1
    return (value(p, f), int(step), count(p))


def coerce_piece(p):
    lo, hi, mod, res, a, b = p
    lo = int(lo)
    hi = None if hi is None else int(hi)
    mod = int(mod)
    res = int(res) % mod
    a = Fraction(a)
    b = Fraction(b)
    if lo < 1 or mod < 1:
        raise ValueError("piece bounds must be positive")
    if hi is not None and hi < lo:
        raise ValueError("piece has hi < lo")
    if a <= 0:
        raise NotInjective("pieces must be strictly increasing (a > 0)")
    return Piece(lo, hi, mod, res, a, b)


def normalize(pieces):
    """The canonical normal form of the map the pieces describe, after
    the checks of the rational kernel, in the same order."""
    pieces = [coerce_piece(p) for p in pieces]
    pieces = [p for p in pieces if first(p) is not None]
    if not any(p.hi is None for p in pieces):
        raise NotCovering("no unbounded piece; omega cannot be covered")

    for p in pieces:
        if count(p) != 1 and (p.a * p.mod).denominator != 1:
            raise NotInjective(f"non-integral step on {p}")
        v0 = p.a * first(p) + p.b
        if v0.denominator != 1:
            raise NotInjective(f"non-integral value on {p}")
        if v0 < 1:
            raise NotInjective(f"value below 1 on {p}")

    doms = [(first(p), p.mod, count(p)) for p in pieces]
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if progressions_intersect(doms[i], doms[j]):
                raise NotCovering(
                    f"domains of {pieces[i]} and {pieces[j]} overlap"
                )
    unbounded = [p for p in pieces if p.hi is None]
    if sum(Fraction(1, p.mod) for p in unbounded) != 1:
        raise NotCovering("unbounded pieces do not have full density")
    tail_start = max(first(p) for p in unbounded)
    below = tail_start - 1
    covered = 0
    for p in pieces:
        f = first(p)
        if f is None or f > below:
            continue
        top = below if p.hi is None else min(p.hi, below)
        if top >= f:
            covered += (top - f) // p.mod + 1
    if covered != below:
        raise NotCovering(f"gap below {tail_start}")
    bound = 1
    for p in pieces:
        bound = max(bound, p.lo)
        if p.hi is not None:
            bound = max(bound, p.hi + 1)
    period = 1
    for p in unbounded:
        period = lcm(period, p.mod)

    progs = [image_progression(p) for p in pieces]
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if progressions_intersect(progs[i], progs[j]):
                raise NotInjective(
                    f"images of pieces {pieces[i]} and {pieces[j]} overlap"
                )

    def evaluate(i):
        for p in pieces:
            if contains(p, i):
                return value(p, i)
        raise AssertionError("unreachable: coverage validated")

    tail_of_res = {}
    for c in range(period):
        x = bound + ((c - bound) % period)
        for p in pieces:
            if p.hi is None and contains(p, x):
                tail_of_res[c] = (p.a, p.b)
                break

    best = period
    for cand in range(1, period):
        g = gcd(cand, period)
        ok = all(
            len({tail_of_res[c] for c in range(period) if c % g == r}) == 1
            for r in range(g)
        )
        if ok:
            best = cand
            break
    g = gcd(best, period)
    tail_maps = {
        r: tail_of_res[next(c for c in range(period) if c % g == r % g)]
        for r in range(best)
    }

    start = bound
    while start > 1:
        i = start - 1
        a, b = tail_maps[i % best]
        v = a * i + b
        if v.denominator == 1 and int(v) == evaluate(i):
            start = i
        else:
            break

    normal = [
        Piece(i, i, 1, 0, Fraction(1), Fraction(evaluate(i) - i))
        for i in range(1, start)
    ]
    for r in range(best):
        lo = start + ((r - start) % best)
        a, b = tail_maps[r]
        normal.append(Piece(lo, None, best, lo % best, a, b))
    normal.sort(key=lambda p: p.lo)
    return tuple(normal)


def evaluate(normal, i):
    for p in normal:
        if contains(p, i):
            return value(p, i)
    raise AssertionError("pieces cover omega")


def compose(outer, inner):
    """The normal form of outer after inner, both normal forms."""
    pieces = []
    for pf in inner:
        f0 = first(pf)
        if count(pf) == 1:
            v = evaluate(outer, value(pf, f0))
            pieces.append(Piece(f0, f0, 1, 0, Fraction(1), Fraction(v - f0)))
            continue
        kmax = None if count(pf) is None else count(pf) - 1
        v0 = value(pf, f0)
        step = int(pf.a * pf.mod)
        for pg in outer:
            g = gcd(step, pg.mod)
            if (v0 - pg.res) % g != 0:
                continue
            mk = pg.mod // g
            k0 = ((pg.res - v0) // g * _mod_inverse(step // g, mk)) % mk if mk > 1 else 0
            if v0 + k0 * step >= pg.lo:
                klo = k0
            else:
                klo = k0 + mk * -((v0 + k0 * step - pg.lo) // (step * mk))
            khi = kmax
            if pg.hi is not None:
                top = (pg.hi - v0) // step
                khi = top if khi is None else min(khi, top)
            if khi is not None and klo > khi:
                continue
            lo_i = f0 + klo * pf.mod
            hi_i = None if khi is None else f0 + khi * pf.mod
            mod_i = pf.mod * mk
            a = pg.a * pf.a
            b = pg.a * pf.b + pg.b
            pieces.append(Piece(lo_i, hi_i, mod_i, lo_i % mod_i, a, b))
    return normalize(pieces)


def image_contains(normal, v):
    for p in normal:
        x = (Fraction(v) - p.b) / p.a
        if x.denominator == 1 and contains(p, int(x)):
            return True
    return False


def progressions_contain(f, v):
    """Whether v is a value of the integer-kernel injection f, read off
    its image progressions; `image_contains` is the reference."""
    return any(first <= v and (last is None or v <= last)
               and (v - first) % step == 0
               for first, last, step in f.image_progressions())


def images_disjoint(s, t):
    """Whether two normal forms have disjoint images, pair by pair."""
    t_images = [image_progression(q) for q in t]
    for p in s:
        image = image_progression(p)
        for q in t_images:
            if progressions_intersect(image, q):
                return False
    return True


# -- the certificate helpers of tamebox.opalg, on rational pieces ---------------


def merge_even_odd(even_part, odd_part):
    pieces = [
        Piece(2 * p.lo, None if p.hi is None else 2 * p.hi,
              2 * p.mod, (2 * p.res) % (2 * p.mod), p.a / 2, p.b)
        for p in even_part
    ]
    pieces += [
        Piece(2 * p.lo - 1, None if p.hi is None else 2 * p.hi - 1,
              2 * p.mod, (2 * p.res - 1) % (2 * p.mod), p.a / 2, p.b + p.a / 2)
        for p in odd_part
    ]
    return normalize(pieces)


def drop_values(u, avoid):
    if not avoid:
        return u
    cuts = sorted(avoid)
    windows = list(zip([0] + cuts, cuts + [None]))
    pieces = []
    for p in u:
        for j, (lo_v, hi_v) in enumerate(windows):
            lo = max(p.lo, math.ceil((lo_v + 1 - p.b) / p.a))
            hi = p.hi
            if hi_v is not None:
                top = math.floor((hi_v - 1 - p.b) / p.a)
                hi = top if hi is None else min(hi, top)
            if hi is not None and lo > hi:
                continue
            pieces.append(Piece(lo, hi, p.mod, p.res, p.a, p.b - j))
    return normalize(pieces)


def _meet_progressions(lo1, hi1, mod1, res1, lo2, hi2, mod2, res2):
    sol = _crt(res1, mod1, res2, mod2)
    if sol is None:
        return None
    r, m = sol
    lo = max(lo1, lo2)
    hi = hi1 if hi2 is None else hi2 if hi1 is None else min(hi1, hi2)
    first = lo + ((r - lo) % m)
    if hi is not None and first > hi:
        return None
    return first, hi, m, r


def inflate_along(c, t, pinned):
    pieces = [Piece(a, a, 1, 0, Fraction(1), Fraction(v - a))
              for a, v in pinned.items()]
    for pc in c:
        assert pc.a == 1
        shift = int(pc.b)
        for pt in t:
            met = _meet_progressions(pc.lo, pc.hi, pc.mod, pc.res,
                                     pt.lo, pt.hi, pt.mod, pt.res)
            if met is None:
                continue
            lo, hi, mod, res = met
            pieces.append(
                Piece(lo + shift, None if hi is None else hi + shift,
                      mod, (res + shift) % mod, pt.a, pt.b - pt.a * shift)
            )
    return normalize(pieces)


# -- the slot check of tamebox.injections.OperadElement, pair by pair -----------


def slots_clash(slots):
    """The error `OperadElement(slots)` raises, as (class, message), or
    None: the slots are tested pair by pair, (1, 2), (1, 3), ..., and
    the first pair whose images meet is named.  Two partial injections
    meet when their value sets do, a partial and a quasi-affine one
    when a value of the first is in the image of the second."""
    def disjoint(s, t):
        s_qa, t_qa = (isinstance(x, QuasiAffineInjection) for x in (s, t))
        if s_qa and t_qa:
            return images_disjoint(s.pieces, t.pieces)
        if not s_qa and not t_qa:
            return set(s.mapping.values()).isdisjoint(t.mapping.values())
        qa, part = (s, t) if s_qa else (t, s)
        return not any(image_contains(qa.pieces, v)
                       for v in part.mapping.values())

    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            if not disjoint(slots[i], slots[j]):
                return NotInjective, f"slots {i + 1} and {j + 1} share image values"
    return None
