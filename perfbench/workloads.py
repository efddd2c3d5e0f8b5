"""Seeded inputs, operations and output checks for the three workloads.

Every operation is one command of the `tamebox` command line, given as
its argument list.  Its inputs are documents written into a working
directory by `build`, drawn from a `random.Random` named after the
workload and the seed (certify adds fixed draws, see below).  Each
operation carries a check that decides, from the command's report (and
the document it emitted, if any), whether the answer is right.  The
checks use the laws of the matching self-test suites and known answers;
they compare structures up to isomorphism, never bytes, so a change
that renames colimit points still passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from math import comb, perm
from typing import Callable, Optional

from tamebox import documents as docs
from tamebox.injections import PartialInjection
from tamebox.generators import (
    random_agreeing_pair,
    random_mset,
    random_prescribed_pair,
)
from tamebox.iset import (
    canonicalize,
    constant_iset,
    day_convolution,
    flat_replacement,
    is_flat,
    n_iso_check,
    quotient_iset,
    representable_iset,
    restriction_coequalizer,
    support_filtration,
)
from tamebox.mset import CanonicalTameMSet, box, injection_mset, mset_iso_equal
from tamebox.opalg import (
    cyclic_monoid,
    infinite_symmetric_product,
    trivial_from_abelian,
    verify_certificate,
)
from tamebox.sigma import trivial_sigma_set
from tamebox.errors import TruncationExceeded

# colimit-deep stops at level 7: one latching or Lan-extension pass at
# level 8 costs about 300 s, far too long for repeated runs.
MAX_KERNEL_LEVEL = 7

Check = Callable[[dict, Optional[bytes]], Optional[str]]


@dataclass
class Op:
    """One command: its argument list, the check of its report, the
    exit code a correct answer gives, and the file it emits, if any."""

    label: str
    argv: list
    check: Check
    expect_code: int = 0
    emit: Optional[str] = None
    follows: bool = False  # runs right after the operation before it


@dataclass
class Inputs:
    ops: list
    digest: str
    documents: int
    bytes: int


class _Writer:
    """Writes documents into the working directory and hashes them in
    name order, so the digest depends only on the generated content."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.files = {}

    def doc(self, name, kind, value):
        data = (docs.serialize_document(kind, value) + "\n").encode("utf-8")
        if name in self.files:
            raise ValueError(f"document name {name} used twice")
        self.files[name] = data
        path = os.path.join(self.workdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def path(self, name):
        return os.path.join(self.workdir, name)

    def digest(self, ops):
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode("utf-8") + b"\x00" + self.files[name] + b"\x00")
        prefix = self.workdir + os.sep
        for op in ops:
            argv = [a[len(prefix):] if a.startswith(prefix) else a
                    for a in op.argv]
            h.update(json.dumps(argv).encode("utf-8") + b"\x00")
        return h.hexdigest()


def build(workload, seed, workdir, size="full"):
    """Generate the inputs of one workload from the seed, write them
    into `workdir` and return the operations of one round."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    w = _Writer(workdir)
    if workload == "colimit-deep":
        ops = _colimit_deep(rng, w, size)
    elif workload == "laws-shallow":
        ops = _laws_shallow(rng, w, size)
    elif workload == "certify":
        ops = _certify(rng, w, size)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    total = sum(len(b) for b in w.files.values())
    return Inputs(ops, w.digest(ops), len(w.files), total)


# -- shared checks -------------------------------------------------------------


def _value(report):
    """Decode the document a report carries as its value."""
    return docs.parse_document(json.dumps(report["value"])).value


def _outcome(expected):
    def check(report, emitted):
        got = report.get("outcome")
        if got != expected:
            return f"outcome {got!r}, expected {expected!r}"
        return None

    return check


def _flat_answer(flat, witness_level=None):
    """Known flatness: flat inputs pass; a non-flat input fails with a
    latching witness at the stated level."""

    def check(report, emitted):
        if flat:
            return None if report.get("outcome") == "pass" else "reported non-flat"
        if report.get("outcome") != "fail":
            return "non-flat input reported flat"
        if witness_level is not None and not str(
            report.get("counterexample", "")
        ).startswith(f"({witness_level}, "):
            return f"witness not at level {witness_level}"
        return None

    return check


def _canonical_is(expected: CanonicalTameMSet):
    """The canonical action equals a known action up to isomorphism
    (for a support filtration this is the counit law)."""

    def check(report, emitted):
        out = _value(report)
        if not mset_iso_equal(out, expected):
            return f"canonical action {out!r}, expected {expected!r}"
        return None

    return check


def _flatten_law(X, flat: Optional[bool] = None):
    """The unit of the flat replacement is a colimit bijection, and it
    is levelwise bijective exactly when the input is flat."""

    def check(report, emitted):
        value = report["value"]
        unit = docs.parse_document(
            json.dumps(docs.wrap("morphism", value["unit"]))
        ).value
        if not n_iso_check(unit):
            return "unit is not a colimit bijection"
        want = flat if flat is not None else is_flat(X, "direct").flat
        if value["unitLevelwiseBijective"] != want:
            return "unit bijectivity does not match flatness"
        return None

    return check


def _day_law(left_canon, right_canon):
    """Convolution then canonicalization agrees with the box product of
    the canonicalizations of the factors."""

    def check(report, emitted):
        D = _value(report)
        lhs = canonicalize(D)
        rhs = box(left_canon, right_canon)
        if not mset_iso_equal(lhs, rhs):
            return f"convolution {lhs!r} differs from box {rhs!r}"
        return None

    return check


def _point_mset(k=1):
    return CanonicalTameMSet({0: trivial_sigma_set(0, [f"c{i}" for i in range(k)])})


def latching_nodes(sizes):
    """Nodes the latching kernel unions at the top level n = len(sizes)-1:
    one per injection {1..m} -> {1..n} and element of level m < n."""
    n = len(sizes) - 1
    return sum(perm(n, m) * sizes[m] for m in range(n))


def convolution_nodes(xs, ys):
    """Nodes the convolution of diagrams with level sizes xs and ys
    unions at the top level n: one per injection {1..a+b} -> {1..n} and
    pair of elements of levels a and b."""
    n = len(xs) - 1
    return sum(perm(n, a + b) * xs[a] * ys[b]
               for a in range(n + 1) for b in range(n + 1 - a))


def _unit_convolution_nodes(sizes):
    return convolution_nodes(sizes, [1] * len(sizes))


def _seeded_action(rng, max_level, N, bands=()):
    """A seeded action whose support filtration at N gives each kernel
    model a node count inside its band, so that every seed's instance
    costs the kernel about the same work."""
    for _ in range(10000):
        W = random_mset(rng, max_level=max_level, max_points=3)
        sizes = [W.count_up_to(m) for m in range(N + 1)]
        if all(lo <= model(sizes) < hi for model, lo, hi in bands):
            return W
    raise RuntimeError("no seeded action inside the work bands")


# -- colimit-deep --------------------------------------------------------------


def _colimit_deep(rng, w, size):
    """Structured diagrams whose colimit kernel runs at level 6 or 7:
    representables, support filtrations of seeded actions, their Day
    convolutions, and the restriction coequalizer."""
    hi, lo = (7, 6) if size == "full" else (5, 4)
    ops = []

    def latching(name, path, flat, witness=None):
        ops.append(Op(f"flat-check latching {name}",
                      ["flat-check", "--mode", "latching", path],
                      _flat_answer(flat, witness), 0 if flat else 1))

    def canon(name, path, expected):
        ops.append(Op(f"canonicalize {name}", ["canonicalize", path],
                      _canonical_is(expected)))

    def flatten(name, path, X, flat):
        ops.append(Op(f"flatten {name}", ["flatten", path],
                      _flatten_law(X, flat)))

    def day(name, lpath, rpath, lcanon, rcanon):
        ops.append(Op(f"day {name}", ["day", lpath, rpath],
                      _day_law(lcanon, rcanon)))

    # level hi: latching at the top level, and Lan extension of the
    # restriction coequalizer one level past its truncation.  The three
    # commands on y1@hi and the convolution y0*y1 below (about 1 s each)
    # form the top of every round, so op_tail_ms rests on fixed inputs.
    r0 = w.doc("r0-hi.json", "iset", representable_iset(0, hi))
    r1 = w.doc("r1-hi.json", "iset", representable_iset(1, hi))
    latching(f"y0@{hi}", r0, True)
    latching(f"y1@{hi}", r1, True)
    canon(f"y0@{hi}", r0, injection_mset(0))
    canon(f"y1@{hi}", r1, injection_mset(1))
    flatten(f"y1@{hi}", r1, None, True)
    RC = restriction_coequalizer(lo)
    rc = w.doc("rc.json", "iset", RC)
    canon(f"rc@{lo}", rc, _point_mset())
    flatten(f"rc@{lo}", rc, RC, False)
    latching(f"rc@{lo}", rc, False, 2)

    # level lo: representables and their convolutions
    y = {m: representable_iset(m, lo) for m in (0, 1, 2)}
    ypath = {m: w.doc(f"r{m}-lo.json", "iset", y[m]) for m in y}
    for m in (1, 2):
        latching(f"y{m}@{lo}", ypath[m], True)
        canon(f"y{m}@{lo}", ypath[m], injection_mset(m))
    flatten(f"y2@{lo}", ypath[2], None, True)
    day(f"y0*y1@{lo}", ypath[0], ypath[1], injection_mset(0), injection_mset(1))
    day(f"y0*y0@{lo}", ypath[0], ypath[0], injection_mset(0), injection_mset(0))

    # level lo: support filtrations of seeded actions in work bands
    for i in range(2):
        bands = [(latching_nodes, 10000, 12500)] if size == "full" else []
        if i == 0 and size == "full":
            bands.append((_unit_convolution_nodes, 55000, 68000))
        W = _seeded_action(rng, 2 if size == "full" else 1, lo, bands)
        F = support_filtration(W, lo)
        path = w.doc(f"filt{i}.json", "iset", F)
        latching(f"filt{i}@{lo}", path, True)
        canon(f"filt{i}@{lo}", path, W)
        flatten(f"filt{i}@{lo}", path, F, True)
        if i == 0:
            day(f"filt{i}*y0@{lo}", path, ypath[0], W, injection_mset(0))
    return ops


# -- laws-shallow --------------------------------------------------------------


def _small_iset(rng, N, kind):
    """A small truncated diagram of a named family, with its canonical
    action when the family determines it."""
    if kind == "filtration":
        W = random_mset(rng, max_level=2, max_points=3)
        return support_filtration(W, N), W
    if kind == "representable":
        m = rng.randint(0, 2)
        return representable_iset(m, N), injection_mset(m)
    if kind == "constant":
        k = rng.randint(1, 3)
        return constant_iset([f"k{i}" for i in range(k)], N), _point_mset(k)
    if kind == "coequalizer":
        return restriction_coequalizer(N), _point_mset()
    # a quotient of a filtration by seeded identifications below the
    # merge cap, so the colimit machinery stays applicable
    for _ in range(100):
        W = random_mset(rng, max_level=2, max_points=3)
        X = support_filtration(W, N)
        cap = N - 2
        candidates = [m for m in range(cap + 1) if len(X.levels[m]) >= 2]
        if not candidates:
            continue
        lv = rng.choice(candidates)
        a, b = rng.sample(X.levels[lv], 2)
        Q = quotient_iset(X, [(lv, a, b)])
        if Q.stable_from <= 2 and Q.merge_level <= cap:
            return Q, None
    return representable_iset(1, N), injection_mset(1)


def _stable_from_at_most(rng, N, s):
    """A support filtration or representable (a constant diagram when
    s = 0) with stability at most s, and its canonical action."""
    if rng.random() < 0.5:
        if s == 0:
            k = rng.randint(1, 2)
            return constant_iset([f"k{i}" for i in range(k)], N), _point_mset(k)
        W = random_mset(rng, max_level=s, max_points=3)
        return support_filtration(W, N), W
    m = rng.randint(0, s)
    return representable_iset(m, N), injection_mset(m)


# Convolutions above this many kernel nodes (about 55 ms) are redrawn,
# so that no seeded command outgrows the fixed wedge-iso ones that form
# the top of the laws-shallow rounds.
MAX_SHALLOW_CONVOLUTION_NODES = 2000

ISET_KINDS = ("filtration", "filtration", "representable", "constant",
              "coequalizer", "quotient", "quotient")


def _box_law(X, Y):
    """Level k of the box product holds the induced products over
    m + n = k (sizes C(k, m)|X_m||Y_n|), and orbit sets multiply."""

    def check(report, emitted):
        B = _value(report)
        for k in range(max(B.max_level, X.max_level + Y.max_level) + 1):
            want = sum(
                comb(k, m) * len(X.levels[m]) * len(Y.levels[k - m])
                for m in X.levels if k - m in Y.levels
            )
            got = len(B.levels[k]) if k in B.levels else 0
            if got != want:
                return f"box level {k} has {got} points, expected {want}"
        if len(B.orbit_set()) != len(X.orbit_set()) * len(Y.orbit_set()):
            return "orbit counts do not multiply"
        return None

    return check


def _orbit_count(X: CanonicalTameMSet):
    """Orbits counted as connected components of the transposition
    graph, independently of the library's orbit computation."""
    total = 0
    for ss in X.levels.values():
        seen = set()
        for p in ss.points:
            if p in seen:
                continue
            total += 1
            stack = [p]
            seen.add(p)
            while stack:
                q = stack.pop()
                for t in ss.transpositions:
                    r = t[q]
                    if r not in seen:
                        seen.add(r)
                        stack.append(r)
    return total


def _orbit_law(X):
    want = _orbit_count(X)

    def check(report, emitted):
        got = len(report["value"])
        return None if got == want else f"{got} orbits, expected {want}"

    return check


def _act_law(X, f, x):
    """The image of the result is f applied to the image of x, and the
    point is the one the sorting permutation carries x's point to."""
    want = X.canonical(x.level, tuple(f(v) for v in x.image), x.point)

    def check(report, emitted):
        got = report["value"]
        if (got["level"], tuple(got["image"]), got["point"]) != (
            want.level, want.image, want.point
        ):
            return f"act gave {got}, expected {want}"
        return None

    return check


def _sum_law(P, x, y):
    """Commutativity: x + y equals y + x, supported on both supports."""
    want = P.add(y, x)

    def check(report, emitted):
        got = report["value"]
        if (got["level"], tuple(got["image"]), got["point"]) != (
            want.level, want.image, want.point
        ):
            return f"sum gave {got}, expected {want}"
        if set(got["image"]) != set(x.image) | set(y.image):
            return "sum not supported on the union of supports"
        return None

    return check


def _xinf_law(points, level):
    """Level m of the symmetric product holds (points - 1)^m tuples."""

    def check(report, emitted):
        P = _value(report)
        for m in range(level + 1):
            got = len(P.carrier.levels[m]) if m in P.carrier.levels else 0
            if got != (points - 1) ** m:
                return f"level {m} has {got} points"
        return None

    return check


def _wedge_law(x, y, level):
    def check(report, emitted):
        if report.get("outcome") != "pass":
            return "comparison not bijective"
        for k in range(level + 1):
            if report["value"].get(str(k)) != (x - 1 + y - 1) ** k:
                return f"level {k} size mismatch"
        return None

    return check


def _laws_shallow(rng, w, size):
    """Thousands of small commands across every command family, on
    actions up to level 4 and diagrams truncated at N <= 4."""
    N = 4
    ops = []
    count = {"box": 8, "decompose": 8, "orbit-set": 6, "act": 8,
             "canonicalize": 8, "flatten": 6, "flat-check": 8, "n-iso": 5,
             "day": 6, "sum": 10, "to-monoid": 5}
    if size != "full":
        count = {k: 1 for k in count}

    msets = []
    for i in range(max(count["box"] * 2, count["decompose"], count["act"],
                       count["orbit-set"])):
        X = random_mset(rng, max_level=2, max_points=3)
        msets.append((X, w.doc(f"m{i}.json", "mset", X)))
    decoded = [docs.parse_document(docs.serialize_document("mset", X)).value
               for X, _ in msets]

    for i in range(count["box"]):
        (X, px), (Y, py) = msets[2 * i], msets[2 * i + 1]
        ops.append(Op(f"box m{2 * i} m{2 * i + 1}", ["box", px, py],
                      _box_law(decoded[2 * i], decoded[2 * i + 1])))
    for i in range(count["decompose"]):
        X = random_mset(rng, max_level=3, max_points=4)
        path = w.doc(f"dec{i}.json", "mset", X)
        ops.append(Op(f"decompose dec{i}", ["--window", "6", "decompose", path],
                      _outcome("pass")))
    for i in range(count["orbit-set"]):
        ops.append(Op(f"orbit-set m{i}", ["orbit-set", msets[i][1]],
                      _orbit_law(decoded[i])))
    for i in range(count["act"]):
        X = decoded[i]
        table = X.elements_up_to(4)
        x = table[rng.randrange(len(table))]
        values = rng.sample(range(1, 9), 4)
        f = PartialInjection({k + 1: v for k, v in enumerate(values)})
        fpath = w.doc(f"f{i}.json", "partial-injection", f)
        element = json.dumps(docs.encode_element(x))
        ops.append(Op(f"act f{i} m{i}",
                      ["act", fpath, msets[i][1], "--element", element],
                      _act_law(X, f, x)))

    # diagrams at N = 4
    isets = []
    for i in range(max(count["canonicalize"], count["flatten"],
                       count["flat-check"], count["n-iso"])):
        kind = ISET_KINDS[i % len(ISET_KINDS)]
        X, W = _small_iset(rng, N, kind)
        isets.append((kind, X, W, w.doc(f"x{i}.json", "iset", X)))
    known = [(kind, X, W, p) for kind, X, W, p in isets if W is not None]
    for i in range(count["canonicalize"]):
        kind, X, W, path = known[i % len(known)]
        ops.append(Op(f"canonicalize x-{kind}{i}", ["canonicalize", path],
                      _canonical_is(W)))
    for i in range(count["flatten"]):
        kind, X, W, path = isets[i]
        flat = None if kind == "quotient" else kind != "coequalizer"
        ops.append(Op(f"flatten x{i}", ["flatten", path], _flatten_law(X, flat)))
    for i in range(count["flat-check"]):
        kind, X, W, path = isets[i]
        if kind == "quotient":
            flat = flat_replacement(X)[1].level_bijective()
        else:
            flat = kind != "coequalizer"
        ops.append(Op(f"flat-check both x{i}",
                      ["flat-check", "--mode", "both", path],
                      _flat_answer(flat), 0 if flat else 1))
    for i in range(count["n-iso"]):
        kind, X, W, _ = isets[i]
        _, eta = flat_replacement(X)
        path = w.doc(f"unit{i}.json", "morphism", eta)
        ops.append(Op(f"n-iso unit{i}", ["n-iso", path], _outcome("pass")))

    # convolutions in the day-vs-box suite's shapes (bounds on the
    # factors' stability), kept when the product stays inside the window
    shapes = [(0, 1), (1, 1), (1, 0), (2, 0), (0, 2), (0, 0)]
    made = 0
    for _ in range(1000):
        if made == count["day"]:
            break
        a, b = shapes[rng.randrange(len(shapes))]
        X, WX = _stable_from_at_most(rng, N, a)
        Y, WY = _stable_from_at_most(rng, N, b)
        sizes = [[len(level) for level in Z.levels] for Z in (X, Y)]
        if convolution_nodes(*sizes) > MAX_SHALLOW_CONVOLUTION_NODES:
            continue
        try:
            XY = day_convolution(X, Y)
        except TruncationExceeded:
            continue
        if 2 * XY.stable_from > N:
            continue
        lp = w.doc(f"dl{made}.json", "iset", X)
        rp = w.doc(f"dr{made}.json", "iset", Y)
        ops.append(Op(f"day dl{made} dr{made}", ["day", lp, rp],
                      _day_law(WX, WY)))
        made += 1
    else:
        raise RuntimeError("no convolutions inside the window")

    # commutative box-monoids
    monoids = [trivial_from_abelian(*cyclic_monoid(k)) for k in (2, 3, 4)]
    monoids += [infinite_symmetric_product(["*", "a"], "*", 4),
                infinite_symmetric_product(["*", "a", "b"], "*", 4)]
    mpaths = [w.doc(f"monoid{i}.json", "monoid", P)
              for i, P in enumerate(monoids)]
    decoded_monoids = [
        docs.parse_document(docs.serialize_document("monoid", P)).value
        for P in monoids
    ]
    for i in range(count["to-monoid"]):
        j = i % len(monoids)
        ops.append(Op(f"to-monoid monoid{j}", ["to-monoid", mpaths[j]],
                      _outcome("pass")))
    for i in range(count["sum"]):
        j = i % len(monoids)
        P = decoded_monoids[j]
        table = [e for e in P.carrier.elements_up_to(5) if e.level <= 2]
        for _ in range(1000):
            x, y = rng.sample(table, 2)
            if not set(x.image) & set(y.image) and x.level + y.level <= P.level_cap:
                break
        ops.append(Op(
            f"sum monoid{j}",
            ["sum", mpaths[j], "--x", json.dumps(docs.encode_element(x)),
             "--y", json.dumps(docs.encode_element(y))],
            _sum_law(P, x, y)))

    for points, level in ((2, 4), (3, 3), (3, 4)):
        ops.append(Op(f"xinf {points} {level}",
                      ["xinf", "--points", str(points), "--level", str(level)],
                      _xinf_law(points, level)))
    # the two heaviest commands, so the tail rests on more than one
    for x, y, level in ((2, 2, 4), (2, 3, 4), (3, 2, 4)):
        ops.append(Op(f"wedge-iso {x} {y} {level}",
                      ["wedge-iso", "--x", str(x), "--y", str(y),
                       "--level", str(level)],
                      _wedge_law(x, y, level)))
    return ops


# -- certify -------------------------------------------------------------------


def _cert_law(phi, psi):
    """The emitted certificate starts at phi, ends at psi, has the
    reported length and passes the exact verifier."""

    def check(report, emitted):
        if report.get("outcome") != "pass":
            return "a3 did not pass"
        if emitted is None:
            return "no certificate emitted"
        cert = docs.parse_document(emitted).value
        if len(cert) != report["value"]["chainLength"]:
            return "reported chain length differs from the certificate"
        chain = cert.chain()
        if chain[0] != phi or chain[-1] != psi:
            return "certificate endpoints do not match"
        ok, at, reason = verify_certificate(cert, phi, psi)
        return None if ok else f"certificate fails at {at}: {reason}"

    return check


# Construction cost is heavy-tailed: one seeded binary pair in about
# fifty costs ten times the median, and ternary pairs range from 0.2 s
# to over 2 s.  Rounds of seeded pairs varied by 20-30% between seeds on
# every end-to-end metric, even with quotas per cost bin.  So the pairs
# that carry the work are fixed draws, each from its own stream
# "perfbench:certify:<binary|ternary>:<draw>".  They were chosen once by
# normalization work, the sum of squared piece counts over the
# quasi-affine normalizations certify_agreement performs: binary, the
# first three draws in each of [0, 2000), [2000, 5000), [5000, 12000)
# and [12000, 60000); ternary, the first three in [30000, 60000).  The
# lists are recorded rather than recomputed so that the inputs do not
# depend on the program being measured.
BINARY_DRAWS = (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 15)
TERNARY_DRAWS = (0, 2, 3)
# The seed adds binary pairs with empty constraint sets, whose
# construction is cheap and light-tailed.
SEEDED_PAIRS = 4


def _pair(rng, index, n, sizes):
    make = random_agreeing_pair if index % 2 == 0 else random_prescribed_pair
    return make(rng, n, sizes)


def _fixed_pair(n, draw):
    kind = "binary" if n == 2 else "ternary"
    rng = random.Random(f"perfbench:certify:{kind}:{draw}")
    sizes = [rng.randint(0, 3), rng.randint(0, 3)] if n == 2 else [1, 1, 1]
    return _pair(rng, draw, n, sizes)


def _certify(rng, w, size):
    """Binary pairs with constraint sets of size at most 3 and ternary
    pairs with singleton constraints; each pair is one `a3 --emit`
    followed by `verify-cert` of the emitted file."""
    binary, ternary = ((BINARY_DRAWS, TERNARY_DRAWS) if size == "full"
                       else (BINARY_DRAWS[:2], ()))
    pairs = [_fixed_pair(2, d) for d in binary]
    pairs += [_fixed_pair(3, d) for d in ternary]
    pairs += [_pair(rng, i, 2, [0, 0]) for i in range(SEEDED_PAIRS)]
    ops = []
    for i, (phi, psi, constraints) in enumerate(pairs):
        n = phi.arity
        pphi = w.doc(f"phi{i}.json", "operad-element", phi)
        ppsi = w.doc(f"psi{i}.json", "operad-element", psi)
        # the commands see the decoded elements, so compare against those
        phi_d = docs.parse_document(w.files[f"phi{i}.json"]).value
        psi_d = docs.parse_document(w.files[f"psi{i}.json"]).value
        cert = w.path(f"cert{i}.json")
        spec = json.dumps([sorted(A) for A in constraints])
        ops.append(Op(f"a3 pair{i} n={n}",
                      ["a3", "--phi", pphi, "--psi", ppsi,
                       "--constraints", spec, "--emit", cert],
                      _cert_law(phi_d, psi_d), emit=cert))
        ops.append(Op(f"verify-cert pair{i} n={n}",
                      ["verify-cert", cert, "--phi", pphi, "--psi", ppsi],
                      _outcome("pass"), follows=True))
    return ops
