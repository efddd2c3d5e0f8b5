"""A seeded corpus of library results, reduced to one digest.

Each entry is one call on a seeded draw, written as text: the repr of
its result's points and swap tables, or its error type and message.
The families:

- `decompose_table` of `random_mset` draws of top level s at most 4,
  at windows 2s..2s+2, and at degree bound s - 1;
- `coequalize` of two maps out of the free orbit on {1..k} into a
  drawn action, at windows 2s and 2s + 1;
- `canonicalize`, `is_flat(..., "both")` and `flatten` (the unit's
  target and maps) of `random_iset` draws at N 2..5 and stability at
  most 2, and `day` of each draw with the next one at its N;
- `canonicalize`, `flatten` and `day` with a representable of the two
  diagrams of `LATE_MERGES`, whose canonical extension identifies
  points just past the given top;
- `certify_agreement` of `random_agreeing_pair` and
  `random_prescribed_pair` draws at arity 2 and 3, with constraint
  sets of at most three points, as serialized certificates (the bytes
  `a3 --emit` writes, less its newline);
- `iso_type` of `random_sigma_set` draws of degree 0..5 with their
  points listed in random order (`shuffled_draw`);
- `point_key` of a set of strings, and the monoid documents of two
  symmetric monoids whose points are sets of strings;
- command reports, read from `cli.main` in this process: `box` at
  degree bound 9 and the `orbit-set` of its product, `selftest`,
  `canonicalize` and `flatten` of `late_pairs` with string points,
  and `flatten` of a restriction coequalizer.

Output must depend only on the input values, so the digest is the
same under every `PYTHONHASHSEED`.  `test_corpus.py` runs this file
under two of them; it is the one test that sets the hash seed, so a
check of that independence belongs here, as a family of `entries()`.
This file imports only tamebox and the standard library, so that the
child loads neither pytest nor Hypothesis.  Run it as
`PYTHONPATH=src python tests/corpus.py` to print the digest.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from itertools import combinations

from tamebox.cli import main
from tamebox.documents import serialize_document
from tamebox.errors import TameboxError
from tamebox.generators import (
    random_agreeing_pair,
    random_iset,
    random_mset,
    random_prescribed_pair,
    random_sigma_set,
)
from tamebox.iset import (
    TruncatedISet,
    canonicalize,
    day_convolution,
    flat_replacement,
    is_flat,
    representable_iset,
    restriction_coequalizer,
)
from tamebox.mset import (
    CanonicalTameMSet,
    MSetMorphism,
    coequalize,
    decompose_table,
    injection_mset,
)
from tamebox.opalg import (
    certify_agreement,
    infinite_symmetric_product,
    trivial_from_abelian,
)
from tamebox.sigma import SigmaSet, point_key, trivial_sigma_set

DECOMPOSE_DRAWS = 60
COEQUALIZE_DRAWS = 100
ISET_DRAWS = 25  # per N
CERTIFICATE_DRAWS = {2: 80, 3: 40}  # per arity and pair generator
LABEL_DRAWS = 60  # per degree


def mset_text(W):
    """The points of each level, in order, and each swap table read in
    point order."""
    return repr([(m, ss.points,
                  [[t[p] for p in ss.points] for t in ss.transpositions])
                 for m, ss in sorted(W.levels.items())])


def iset_text(X):
    """The points of each level, in order, with the inclusion and each
    swap table read in point order."""
    return repr([(level, [X.incl[m][x] for x in level] if m < X.N else [],
                  [[t[x] for x in level] for t in X.transp[m]])
                 for m, level in enumerate(X.levels)])


def flatten_text(X):
    """The flat replacement and the unit's maps, read in point order."""
    flat, eta = flat_replacement(X)
    return iset_text(flat) + repr([[f[x] for x in level] for f, level
                                   in zip(eta.maps, X.levels)])


# Two quotients of support filtrations with injective inclusions, not
# flat, pinned by their tables: point (m, i) is the i-th of level m,
# incl[m][i] is the position in level m + 1 of its image, and
# transp[m][k][i] that of its image under s_{k+1}.  Their canonical
# extensions identify points at levels 5 and 3, one past the given top.
LATE_MERGES = {
    "stable-2": (
        [0, 0, 2, 6, 9],
        [[], [], [0, 1], [0, 1, 2, 3, 4, 6]],
        [[], [], [[0, 1]],
         [[0, 1, 4, 5, 2, 3], [2, 3, 0, 1, 4, 5]],
         [[0, 1, 4, 6, 2, 7, 3, 5, 8], [2, 3, 0, 1, 4, 5, 6, 8, 7],
          [0, 1, 4, 5, 2, 3, 7, 6, 8]]]),
    "stable-1": (
        [2, 5, 6],
        [[0, 1], [0, 1, 2, 3, 4]],
        [[], [], [[0, 1, 5, 4, 3, 2]]]),
}


def late_merges(name):
    """The diagram of `LATE_MERGES` under that name, validated."""
    sizes, incl, transp = LATE_MERGES[name]
    return TruncatedISet(
        len(sizes) - 1,
        [[(m, i) for i in range(size)] for m, size in enumerate(sizes)],
        [{(m, i): (m + 1, j) for i, j in enumerate(row)}
         for m, row in enumerate(incl)],
        [[{(m, i): (m, j) for i, j in enumerate(t)} for t in tables]
         for m, tables in enumerate(transp)])


def late_pairs(N):
    """X(n) = the 2-subsets of {1..n} for n >= 3, empty below: the
    class of {1, 2} is supported on {1, 2} but first appears at 3."""
    levels = [list(combinations(range(1, n + 1), 2)) if n >= 3 else []
              for n in range(N + 1)]

    def swap(i, pair):
        return tuple(sorted({i: i + 1, i + 1: i}.get(v, v) for v in pair))

    return TruncatedISet(
        N, levels, [{p: p for p in levels[n]} for n in range(N)],
        [[{p: swap(i, p) for p in levels[n]} for i in range(1, n)]
         for n in range(N + 1)], 3)


def named_late_pairs(N):
    """`late_pairs` with the pair (i, j) named by the string "pair i j",
    so that sets of its points follow the string hash."""
    X = late_pairs(N)
    name = {p: f"pair {p[0]} {p[1]}" for p in X.levels[X.N]}

    def renamed(table):
        return {name[p]: name[q] for p, q in table.items()}

    return TruncatedISet(
        X.N, [[name[p] for p in level] for level in X.levels],
        [renamed(d) for d in X.incl],
        [[renamed(t) for t in ts] for ts in X.transp], X.stable_from)


def box_factor():
    """Two fixed points at level 2 and one at level 3: the factor of
    the degree-9 `box` of the command family, whose box points hold
    larger sets of positions than the golden reports reach."""
    return CanonicalTameMSet({2: trivial_sigma_set(2, ["a", "b"]),
                              3: trivial_sigma_set(3, ["c"])})


def shuffled_draw(seed, m):
    """A random_sigma_set draw with its points listed in random order,
    so that list order and key order differ."""
    rng = random.Random(seed)
    ss = random_sigma_set(rng, m, max_points=12)
    points = rng.sample(ss.points, len(ss.points))
    return SigmaSet(m, points, ss.transpositions)


def outcome(call):
    try:
        return call()
    except TameboxError as e:
        return f"{type(e).__name__}: {e}"


def decompose_entries():
    for seed in range(DECOMPOSE_DRAWS):
        rng = random.Random(f"corpus:decompose:{seed}")
        X = random_mset(rng, max_level=rng.randint(0, 4), max_points=3)
        s = X.max_level
        for window in range(2 * s, 2 * s + 3):
            yield (f"decompose {seed} {window}",
                   lambda: mset_text(decompose_table(X, window)))
        if s:
            yield (f"decompose {seed} bound {s - 1}",
                   lambda: mset_text(decompose_table(X, 2 * s, s - 1)))


def coequalize_entries():
    for seed in range(COEQUALIZE_DRAWS):
        rng = random.Random(f"corpus:coequalize:{seed}")
        W = random_mset(rng, max_level=rng.randint(0, 2), max_points=3)
        k = max(1, W.max_level)
        S = injection_mset(k)
        values = W.elements_up_to(k)
        rep = S.levels[k].orbits()[0][0]
        pair = rng.sample(values, 2) if len(values) > 1 else values * 2
        u, v = (MSetMorphism(S, W, {(k, rep): value}) for value in pair)
        window = max(2 * W.max_level, 2)
        for w in (window, window + 1):
            yield (f"coequalize {seed} {w}",
                   lambda: mset_text(coequalize(u, v, w)))


def iset_entries():
    for N in range(2, 6):
        draws = [random_iset(random.Random(f"corpus:iset:{N}:{seed}"), N,
                             min(2, N // 2)) for seed in range(ISET_DRAWS)]
        for seed, X in enumerate(draws):
            Y = draws[(seed + 1) % ISET_DRAWS]
            yield (f"canonicalize {N} {seed}",
                   lambda: mset_text(canonicalize(X)))
            yield f"is_flat {N} {seed}", lambda: repr(is_flat(X, "both"))
            yield f"flatten {N} {seed}", lambda: flatten_text(X)
            yield f"day {N} {seed}", lambda: iset_text(day_convolution(X, Y))


def late_merge_entries():
    for name in LATE_MERGES:
        X = late_merges(name)
        yield f"canonicalize {name}", lambda: mset_text(canonicalize(X))
        yield f"flatten {name}", lambda: flatten_text(X)
        yield f"day {name}", lambda: iset_text(
            day_convolution(X, representable_iset(1, X.N)))


def certificate_entries():
    for n, draws in CERTIFICATE_DRAWS.items():
        for make in (random_agreeing_pair, random_prescribed_pair):
            for seed in range(draws):
                rng = random.Random(f"corpus:certificate:{n}:{make.__name__}:"
                                    f"{seed}")
                phi, psi, constraints = make(
                    rng, n, [rng.randint(0, 3) for _ in range(n)])
                yield (f"certify {n} {make.__name__} {seed}",
                       lambda: serialize_document("certificate",
                                                  certify_agreement(
                                                      phi, psi, constraints)))


def label_entries():
    for m in range(6):
        for seed in range(LABEL_DRAWS):
            yield (f"iso_type {m} {seed}",
                   lambda: repr(shuffled_draw(seed, m).iso_type()))


# A frozenset's repr follows its hash table, which for strings depends
# on PYTHONHASHSEED: the two monoid documents came out in two orders
# under seeds 0 and 2 when the sums and the letters were sorted by repr.
def set_point_entries():
    yield "point_key of a string set", lambda: repr(point_key(
        frozenset(["pear", "apple", "fig", "kiwi", "plum"])))
    yield "monoid of set letters", lambda: serialize_document(
        "monoid", infinite_symmetric_product(
            ["*", frozenset({"a", "d"}), frozenset({"b", "c"})], "*", 3))
    sets = [frozenset(), frozenset({"a"}), frozenset({"b"}),
            frozenset({"a", "b"})]
    yield "monoid of sets under symmetric difference", lambda: (
        serialize_document("monoid", trivial_from_abelian(
            sets, {(x, y): x ^ y for x in sets for y in sets}, frozenset())))


def report(*argv):
    """The exit code and the report of one deterministic command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--deterministic", *argv])
    return f"{code} {out.getvalue()}"


def command_entries():
    with tempfile.TemporaryDirectory() as tmp:
        def document(name, kind, value):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                f.write(serialize_document(kind, value) + "\n")
            return path

        m = document("m.json", "mset", box_factor())
        product = os.path.join(tmp, "box.json")

        def box():
            text = report("--degree-bound", "9", "box", m, m)
            with open(product, "w", encoding="utf-8") as f:
                json.dump(json.loads(text.split(" ", 1)[1])["value"], f)
            return text

        yield "box degree 9", box
        yield "orbit-set degree 9", lambda: report(
            "--degree-bound", "9", "orbit-set", product)
        yield "selftest 5 1", lambda: report("selftest", "--seed", "5",
                                             "--cases", "1")
        late = document("late.json", "iset", named_late_pairs(6))
        for command in ("canonicalize", "flatten"):
            yield f"{command} named late_pairs", lambda: report(command, late)
        quotient = document("quotient.json", "iset",
                            restriction_coequalizer(4))
        yield "flatten restriction_coequalizer 4", lambda: report(
            "flatten", quotient)


def entries():
    """Every (name, text) of the corpus, in order.  Each call runs
    before its family draws the next, so the loop values it reads are
    its own."""
    for family in (decompose_entries, coequalize_entries, iset_entries,
                   late_merge_entries, certificate_entries, label_entries,
                   set_point_entries, command_entries):
        for name, call in family():
            yield name, outcome(call)


def digest(lines):
    h = hashlib.sha256()
    for name, text in lines:
        h.update(f"{name}\t{text}\n".encode("utf-8"))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(entries()))
