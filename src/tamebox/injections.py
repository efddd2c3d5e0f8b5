"""Exact calculus for injective maps of the positive naturals.

Three representations coexist.  A PartialInjection is a finite
injective map, enough whenever it acts on something with bounded
support.  A QuasiAffineInjection is a total injection of omega that is
affine on finitely many arithmetic progressions partitioning omega;
this class is closed under composition and admits a canonical normal
form, so equality of total injections is decided structurally.  An
OperadElement bundles n pairwise disjoint injections into one n-ary
operation.

Quasi-affine pieces are stored in integers, as *spans*
``(first, last, mod, v0, step)``: the piece sends ``first + k*mod`` to
``v0 + k*step`` for ``first <= first + k*mod <= last`` (``last`` None
when unbounded), so its domain and its image are both integer
progressions.  The rational slope ``a = step/mod`` and offset
``b = v0 - a*first`` appear only at the boundary: pieces are written
as rows ``(lo, hi, mod, res, a, b)`` -- `Piece` tuples, or with a and
b as integer pairs ``(p, q)`` as documents read them -- and a piece
may send ``i`` to ``(i+1)/2`` on the odd numbers, integral on its
progression though its slope is not.  `_spans_of_rows` is the one
place where rows become spans, and the public constructor reads rows
only; it rejects non-integral steps and values.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence, Union

from .errors import (
    ArityMismatch,
    DomainMismatch,
    IndexOutOfRange,
    NotCovering,
    NotInjective,
)


def _meet(p, q):
    """The values two progressions (first, last, step) share, as such a
    progression, or None.  last is None when unbounded and equals first
    for a single value; steps are >= 1."""
    f1, l1, d1 = p
    f2, l2, d2 = q
    g = gcd(d1, d2)
    if (f2 - f1) % g:
        return None
    m = d2 // g
    d = d1 * m
    x = f1 + d1 * ((f2 - f1) // g * pow(d1 // g, -1, m) % m)
    lo = max(f1, f2)
    first = lo + (x - lo) % d
    last = l1 if l2 is None else l2 if l1 is None else min(l1, l2)
    if last is None:
        return first, None, d
    if first > last:
        return None
    return first, first + (last - first) // d * d, d


def _first_overlap(progs):
    """Indices (i, j), i < j, of two progressions (first, last, step)
    that share a value, or None.

    Single values are found by lookup.  Longer progressions can only
    meet when they agree modulo the gcd of all their steps, so they are
    bucketed by that residue and tested exactly (`_meet`) only against
    progressions and single values of their own bucket."""
    if len(progs) < 2:
        return None
    points = {}
    runs = []
    g = 0
    for i, p in enumerate(progs):
        if p[0] == p[1]:
            j = points.setdefault(p[0], i)
            if j != i:
                return j, i
        else:
            runs.append(i)
            g = gcd(g, p[2])
    if not runs:
        return None
    buckets = {}
    for i in runs:
        bucket = buckets.setdefault(progs[i][0] % g, [])
        for j in bucket:
            if _meet(progs[j], progs[i]) is not None:
                return j, i
        bucket.append(i)
    for v, i in points.items():
        for j in buckets.get(v % g, ()):
            f, l, d = progs[j]
            if f <= v and (l is None or v <= l) and (v - f) % d == 0:
                return min(i, j), max(i, j)
    return None


class PartialInjection:
    """A finite injective map between sets of positive naturals."""

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        m = {}
        seen = {}
        for k, v in mapping.items():
            if type(k) is not int or type(v) is not int:
                raise ValueError(f"{k!r} -> {v!r} is not a map of integers")
            if k < 1 or v < 1:
                raise ValueError("keys and values must be >= 1")
            if v in seen:
                raise NotInjective(f"both {seen[v]} and {k} map to {v}")
            seen[v] = k
            m[k] = v
        self.mapping = m

    @classmethod
    def identity_on(cls, keys):
        return cls({k: k for k in keys})

    def __call__(self, i):
        try:
            return self.mapping[i]
        except KeyError:
            raise DomainMismatch(f"{i} not in domain") from None

    def __contains__(self, i):
        return i in self.mapping

    def compose(self, inner: "PartialInjection") -> "PartialInjection":
        """self after inner, defined on the keys of inner."""
        out = {}
        for k, v in inner.mapping.items():
            if v not in self.mapping:
                raise DomainMismatch(f"inner value {v} outside outer domain")
            out[k] = self.mapping[v]
        return PartialInjection(out)

    def __eq__(self, other):
        return isinstance(other, PartialInjection) and self.mapping == other.mapping

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))

    def __repr__(self):
        inner = ", ".join(f"{k}->{v}" for k, v in sorted(self.mapping.items()))
        return f"PartialInjection({{{inner}}})"


class Piece(NamedTuple):
    """A piece as documents write it: i -> a*i + b on the progression
    {i : lo <= i <= hi, i = res (mod mod)}, hi None when unbounded, with
    rational a and b."""

    lo: int
    hi: Union[int, None]
    mod: int
    res: int
    a: Fraction
    b: Fraction


def _piece(span):
    first, last, mod, v0, step = span
    a = Fraction(step, mod)
    return Piece(first, last, mod, first % mod, a, v0 - a * first)


def _image(span):
    """The values of a span, as a progression (first, last, step)."""
    first, last, mod, v0, step = span
    return v0, None if last is None else v0 + (last - first) // mod * step, step


def _ratio(x):
    """An int or a Fraction as the integer pair (p, q), q >= 1, and
    anything else as (None, None), which the reader refuses."""
    return x.as_integer_ratio() if type(x) in (int, Fraction) else (None, None)


def _spans_of_rows(rows):
    """The spans of rows (lo, hi, mod, res, a, b) that describe a total
    injection of omega, and their threshold when they have the normal
    shape (`_normal_shape`), else 0; raises unless the rows describe one.

    lo, mod and res are ints, hi an int or None; a and b are ints,
    Fractions or integer pairs (p, q) with q >= 1.  A row becomes the
    span of its progression from its first point, whose values
    (v0 + k*step)/den must be integers of at least one (the step only
    when there are two points or more); a row with no point is
    dropped.  The order of the checks fixes which error a faulty
    document gets: the types, bounds and slope sign of each row, then
    the unbounded piece, then the first non-integral step or value or
    value below one, then `_check_cover`, which skips coverage for
    spans of the normal shape."""
    spans, images, unbounded, bad = [], [], False, None
    for row in rows:
        lo, hi, mod, res, a, b = row
        an, ad = a if type(a) is tuple else _ratio(a)
        bn, bd = b if type(b) is tuple else _ratio(b)
        if not type(lo) is type(mod) is type(res) is type(an) is type(ad) \
                is type(bn) is type(bd) is int or ad < 1 or bd < 1 \
                or hi is not None and type(hi) is not int:
            raise ValueError(f"{row!r} is not an int row with ratios a and b")
        if lo < 1 or mod < 1:
            raise ValueError("piece bounds must be positive")
        if hi is not None and hi < lo:
            raise ValueError("piece has hi < lo")
        if an <= 0:
            raise NotInjective("pieces must be strictly increasing (a > 0)")
        first = lo + (res - lo) % mod
        last = None if hi is None else first + (hi - first) // mod * mod
        unbounded = unbounded or last is None
        if bad is not None or last is not None and last < first:
            continue
        v0, step, den = an * first * bd + bn * ad, an * mod * bd, ad * bd
        if last != first and step % den:
            bad = f"non-integral step {step}/{den} from {first} mod {mod}"
        elif v0 % den:
            bad = f"non-integral value {v0}/{den} at {first}"
        elif v0 < den:
            bad = f"value below 1 at {first}"
        else:
            sp = (first, first, 1, v0 // den, 1) if last == first \
                else (first, last, mod, v0 // den, step // den)
            spans.append(sp)
            images.append(_image(sp))
    if not unbounded:
        raise NotCovering("no unbounded piece; omega cannot be covered")
    if bad is not None:
        raise NotInjective(bad)
    t = _normal_shape(spans)
    _check_cover(spans, images, t)
    return spans, t


def _normal_shape(spans):
    """t when the spans have the normal shape -- the points
    (i, i, 1, v, 1) for i = 1, ..., t-1, then p unbounded spans at
    t, ..., t+p-1, all with the mod p of the last span -- and 0
    otherwise.  Spans of that shape partition omega: the points cover
    1, ..., t-1 and the p spans one residue class mod p each from t on."""
    p = spans[-1][2]
    t = len(spans) - p + 1
    if t < 1:
        return 0
    for i, (first, last, mod, _, step) in enumerate(spans, 1):
        if first != i or ((last != i or mod != 1 or step != 1) if i < t
                          else (last is not None or mod != p)):
            return 0
    return t


def _check_cover(spans, images, shaped):
    """Raise unless the domains of the spans partition omega and their
    images are disjoint; spans of the normal shape (`shaped`) partition
    omega, and only their images are tested."""
    if not shaped:
        # coverage: pairwise disjoint domains whose unbounded part has
        # density exactly one, with no gap below the periodic region
        clash = _first_overlap([sp[:3] for sp in spans])
        if clash:
            i, j = clash
            raise NotCovering(
                f"domains of {_piece(spans[i])} and {_piece(spans[j])} overlap"
            )
        tail = [sp for sp in spans if sp[1] is None]
        period = lcm(*(sp[2] for sp in tail))
        if sum(period // sp[2] for sp in tail) != period:
            raise NotCovering("unbounded pieces do not have full density")
        tail_start = max(sp[0] for sp in tail)
        covered = 0
        for first, last, mod, _, _ in spans:
            top = tail_start - 1 if last is None else min(last, tail_start - 1)
            if top >= first:
                covered += (top - first) // mod + 1
        if covered != tail_start - 1:
            raise NotCovering(f"gap below {tail_start}")

    # injectivity: the images of distinct spans are disjoint
    clash = _first_overlap(images)
    if clash:
        i, j = clash
        raise NotInjective(
            f"images of pieces {_piece(spans[i])} and {_piece(spans[j])} overlap"
        )


def _normal_form(spans, t=None):
    """The canonical spans of the total injection of omega the spans
    describe (`_spans_of_rows` decides whether they do): one point span
    for each i below a minimal threshold, then one unbounded span per
    residue class of the minimal period, each with that period as its
    mod.  t is `_normal_shape(spans)`, when the caller has found it.

    When spans of the normal shape have minimal period and threshold,
    they are the normal form.  On such spans the minimal threshold is
    one past the last point off its tail map, so the points are scanned
    down from t-1 and the scan stops at the first one off it."""
    if t is None:
        t = _normal_shape(spans)
    tail = spans[t - 1:] if t else [sp for sp in spans if sp[1] is None]
    period = lcm(*(sp[2] for sp in tail))

    # the affine map x -> (a*x + b)/d on each residue class mod period,
    # in lowest terms, then the least period of that sequence of maps
    maps = [None] * period
    for first, _, mod, v0, step in tail:
        b = mod * v0 - step * first
        g = gcd(step, b, mod)
        maps[first % mod::mod] = [(step // g, b // g, mod // g)] * (period // mod)
    best = 1 if period == 1 else next(
        d for d in range(1, period + 1)
        if period % d == 0 and maps == maps[:d] * (period // d)
    )

    # minimal threshold: one past the last point where a bounded span
    # leaves the tail maps.  The bounded spans of shaped input are the
    # points 1, ..., t-1, scanned down to the first one off its map.
    start = 1
    if t:
        for i in range(t - 1, 0, -1):
            a, b, d = maps[i % best]
            if a * i + b != d * spans[i - 1][3]:
                start = i + 1
                break
    else:
        # on the points of one residue class a span and a tail map are
        # both affine, so they agree on all of them or on one at most,
        # and the last two points decide.  A point span lies in one
        # class, its own.
        for first, last, mod, v0, step in spans:
            if last is None:
                continue
            if first == last:
                a, b, d = maps[first % best]
                if a * first + b != d * v0:
                    start = max(start, first + 1)
                continue
            for r, (a, b, d) in enumerate(maps[:best]):
                met = _meet((first, last, mod), (r, None, best))
                if met is None:
                    continue
                lo, hi, gap = met
                for x in (hi, hi - gap):
                    if x < lo:
                        break
                    if a * x + b != d * (v0 + (x - first) // mod * step):
                        start = max(start, x + 1)
                        break

    if t and best == period and start == t:
        return tuple(spans)
    head = [0] * start
    for first, last, mod, v0, step in spans:
        if first == last:
            if first < start:
                head[first] = v0
            continue
        top = start - 1 if last is None else min(last, start - 1)
        if top >= first:
            head[first:top + 1:mod] = range(
                v0, v0 + (top - first) // mod * step + 1, step
            )
    normal = [(i, i, 1, head[i], 1) for i in range(1, start)]
    for lo in range(start, start + best):
        a, b, d = maps[lo % best]
        normal.append((lo, None, best, (a * lo + b) // d, a * best // d))
    return tuple(normal)


_IDENTITY = ((1, None, 1, 1, 1),)  # the spans of the identity


class QuasiAffineInjection:
    """A total injection of omega, affine on finitely many arithmetic
    progressions.  Instances hold their canonical normal form `spans`:
    the points 1, ..., t-1 in order, each as (i, i, 1, value, 1), then
    one unbounded span per residue class of the least period p, at
    first points t, ..., t+p-1 and all with mod p.  Structural equality
    therefore decides functional equality."""

    __slots__ = ("spans",)

    def __init__(self, pieces):
        """`pieces` are rational rows (`Piece`s, or a and b as integer
        pairs), which `_spans_of_rows` reads."""
        self.spans = _normal_form(*_spans_of_rows(pieces))

    @classmethod
    def _built(cls, spans):
        """The injection of spans the library built to describe a total
        injection of omega: normalized, not checked."""
        out = object.__new__(cls)
        out.spans = _normal_form(spans)
        return out

    @property
    def pieces(self):
        """The normal form as rational `Piece`s, as documents write it."""
        return tuple(_piece(sp) for sp in self.spans)

    @classmethod
    def identity(cls):
        return cls.affine(1, 0)

    @classmethod
    def affine(cls, a, b):
        """i -> a*i + b on all of omega, for integers a and b: the row
        (1, None, 1, 0, a, b), which the reader refuses unless it is
        increasing with values >= 1."""
        return cls([(1, None, 1, 0, a, b)])

    def __call__(self, i):
        if i < 1:
            raise DomainMismatch(f"{i} is not a positive natural")
        spans = self.spans
        period = spans[-1][2]
        start = len(spans) - period + 1
        if i < start:
            return spans[i - 1][3]
        first, _, _, v0, step = spans[start - 1 + (i - start) % period]
        return v0 + (i - first) // period * step

    def compose(self, inner: "QuasiAffineInjection") -> "QuasiAffineInjection":
        """self after inner; the class is closed under composition, and
        the composite of two total injections is one.  Each span of
        inner is cut where its values meet the points of self and the
        residue classes of its unbounded spans."""
        outer = self.spans
        period = outer[-1][2]
        start = len(outer) - period + 1
        spans = []
        for first, last, mod, v0, step in inner.spans:
            if first == last:
                spans.append((first, first, 1, self(v0), 1))
                continue
            # an unbounded span of inner sends first + k*mod to v0 +
            # k*step; the values below `start` meet the points of self
            # one by one
            k = 0
            while v0 + k * step < start:
                spans.append((first + k * mod, first + k * mod, 1,
                              outer[v0 + k * step - 1][3], 1))
                k += 1
            # the rest lands in the unbounded spans of self, cycling
            # through their residue classes every `cycle` values of k
            cycle = period // gcd(step, period)
            for k in range(k, k + cycle):
                v = v0 + k * step
                f, _, _, w, s = outer[start - 1 + (v - start) % period]
                spans.append((first + k * mod, None, mod * cycle,
                              w + (v - f) // period * s,
                              step * cycle // period * s))
        return QuasiAffineInjection._built(spans)

    def image_progressions(self):
        """The images of the spans as progressions (first, last, step),
        last None when unbounded."""
        return [_image(sp) for sp in self.spans]

    def fixes_pointwise(self, points):
        return all(self(p) == p for p in points)

    def __eq__(self, other):
        return (
            isinstance(other, QuasiAffineInjection) and self.spans == other.spans
        )

    def __hash__(self):
        return hash(self.spans)

    def __repr__(self):
        return f"QuasiAffineInjection({list(self.pieces)!r})"


def _reindex(spans, cuts, values, collapse):
    """The spans re-indexed across sorted, distinct positive cuts, on
    their values (`values`) or on their domain; not normalized.

    Window j, for j = 0, ..., len(cuts), holds the numbers strictly
    between cut j-1 and cut j (cut -1 = 0; the last window is
    unbounded).  To collapse, each span is cut where it crosses the
    windows, its points on a cut are left out, and the piece in window
    j moves down by j: the order bijection of omega minus the cuts onto
    omega.  To expand, window j first moves down by j, to the numbers
    from cut[j-1] + 1 - j to cut[j] - 1 - j (these partition omega),
    and the piece there moves up by j: the order embedding e of omega
    onto omega minus the cuts.  So on values, expand gives e after f and
    collapse e^-1 after f (when the image of f avoids the cuts); on the
    domain, collapse gives f after e and expand the h with h after e =
    f, defined off the cuts.  Windows are found by bisection: a point
    span costs O(log len(cuts)), and what is built depends on how many
    cuts there are, not on their values."""
    windows, lo = [], 1  # (first, last, shift); the last is unbounded
    for j, cut in enumerate(cuts):
        hi = cut - 1 if collapse else cut - 1 - j
        windows.append((lo, hi, -j if collapse else j))
        lo = hi + 2 if collapse else hi + 1
    windows.append((lo, None, -len(cuts) if collapse else len(cuts)))
    tops = [hi for _, hi, _ in windows[:-1]]
    out = []
    for first, last, mod, v0, step in spans:
        # the span's coordinate is x0 + k*dx, k <= kmax
        x0, dx = (v0, step) if values else (first, mod)
        j = bisect_left(tops, x0)
        if first == last:  # a point, left out when on a cut
            lo, _, shift = windows[j]
            if x0 >= lo:
                out.append((first, first, 1, v0 + shift, 1) if values
                           else (first + shift, first + shift, 1, v0, 1))
            continue
        kmax = None if last is None else (last - first) // mod
        j1 = len(tops) if kmax is None else bisect_left(tops, x0 + kmax * dx)
        for lo, hi, shift in windows[j:j1 + 1]:
            klo = 0 if x0 >= lo else -((x0 - lo) // dx)
            khi = kmax
            if hi is not None:
                top = (hi - x0) // dx
                khi = top if khi is None else min(khi, top)
            if khi is not None and klo > khi:
                continue
            ds, vs = (0, shift) if values else (shift, 0)
            end = None if khi is None else first + khi * mod + ds
            out.append((first + klo * mod + ds, end, mod, v0 + klo * step + vs,
                        step))
    return out


def _transported(f, over, pinned):
    """The injection h with h after e_A = e_over after f off A, the
    keys of `pinned`, and h = `pinned` on A, e_X the order embedding of
    omega onto omega minus X: f's values expanded across the sorted
    cuts `over`, then its domain across A (`_reindex`).  The callers
    pin distinct values that lie in `over`, so h is an injection."""
    spans = [(a, a, 1, v, 1) for a, v in pinned.items()]
    spans += _reindex(_reindex(f.spans, over, values=True, collapse=False),
                      sorted(pinned), values=False, collapse=False)
    return QuasiAffineInjection._built(spans)


def order_embed_avoiding(avoid) -> QuasiAffineInjection:
    """The order-preserving bijection from omega onto omega minus the
    given finite set of positive integers: the identity with its values
    expanded across the set (`_reindex`)."""
    avoid = set(avoid)
    if not all(type(a) is int and a >= 1 for a in avoid):
        raise ValueError("avoided values must be positive integers")
    return QuasiAffineInjection._built(
        _reindex(_IDENTITY, sorted(avoid), values=True, collapse=False))


Injection = Union[PartialInjection, QuasiAffineInjection]


def compose_any(outer: Injection, inner: Injection) -> Injection:
    """Compose across representations where that makes sense."""
    if isinstance(outer, QuasiAffineInjection):
        if isinstance(inner, QuasiAffineInjection):
            return outer.compose(inner)
        return PartialInjection({k: outer(v) for k, v in inner.mapping.items()})
    if isinstance(inner, PartialInjection):
        return outer.compose(inner)
    raise DomainMismatch("cannot compose a total injection under a partial one")


def _clashing_slots(slots):
    """The least pair (i, j), i < j, of slots whose images meet, or None.
    A partial injection's values are single-value progressions.  One
    overlap pass over the images of all slots decides, as the images of
    one slot are disjoint already; only a clash is traced back to its
    least pair."""
    images = [s.image_progressions() if isinstance(s, QuasiAffineInjection)
              else [(v, v, 1) for v in s.mapping.values()] for s in slots]
    if _first_overlap([p for ps in images for p in ps]) is None:
        return None
    return next((i, j) for i in range(len(slots)) for j in range(i + 1, len(slots))
                if _first_overlap([*images[i], *images[j]]) is not None)


class OperadElement:
    """An n-ary operation: n injections with pairwise disjoint images.
    Slot j plays the role of the restriction to the j-th coordinate."""

    __slots__ = ("slots",)

    def __init__(self, slots: Sequence[Injection]):
        slots = tuple(slots)
        for s in slots:
            if not isinstance(s, (PartialInjection, QuasiAffineInjection)):
                raise ValueError(f"bad slot {s!r}")
        clash = _clashing_slots(slots)
        if clash:
            i, j = clash
            raise NotInjective(f"slots {i + 1} and {j + 1} share image values")
        self.slots = slots

    @classmethod
    def _built(cls, slots):
        """The element of slots the library built with pairwise disjoint
        images; they are not checked."""
        out = object.__new__(cls)
        out.slots = tuple(slots)
        return out

    @property
    def arity(self):
        return len(self.slots)

    def slot(self, j):
        if not 1 <= j <= self.arity:
            raise IndexOutOfRange(f"slot {j} of an arity-{self.arity} element")
        return self.slots[j - 1]

    def compose(self, parts: Sequence["OperadElement"]) -> "OperadElement":
        """Operadic composition: block m of the result is slot m of self
        composed with the slots of the m-th part."""
        if len(parts) != self.arity:
            raise ArityMismatch(f"expected {self.arity} parts, got {len(parts)}")
        slots = []
        for m, part in enumerate(parts, start=1):
            outer = self.slots[m - 1]
            for inner in part.slots:
                slots.append(compose_any(outer, inner))
        return OperadElement(slots)

    def precompose(self, moves: Sequence[Injection]) -> "OperadElement":
        """self after (f_1 + ... + f_n): slot i becomes slot_i after f_i."""
        if len(moves) != self.arity:
            raise ArityMismatch("one move per slot required")
        return OperadElement(
            tuple(compose_any(s, f) for s, f in zip(self.slots, moves))
        )

    def postcompose(self, f: Injection) -> "OperadElement":
        """(f after self): every slot gets f applied on the outside."""
        return OperadElement(tuple(compose_any(f, s) for s in self.slots))

    def __eq__(self, other):
        return isinstance(other, OperadElement) and self.slots == other.slots

    def __hash__(self):
        return hash(self.slots)

    def __repr__(self):
        return f"OperadElement({list(self.slots)!r})"

