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
  sets of at most three points, as serialized certificates.

Output must depend only on the input values, so the digest is the
same under every `PYTHONHASHSEED`; `test_corpus.py` runs this file
under two of them.  Run it as `PYTHONPATH=src python tests/corpus.py`
to print the digest; `entries()` lists what it hashes.
"""

import hashlib
import random

from tamebox.documents import serialize_document
from tamebox.errors import TameboxError
from tamebox.generators import (
    random_agreeing_pair,
    random_iset,
    random_mset,
    random_prescribed_pair,
)
from tamebox.iset import (
    TruncatedISet,
    canonicalize,
    day_convolution,
    flat_replacement,
    is_flat,
    representable_iset,
)
from tamebox.mset import (
    MSetMorphism,
    coequalize,
    decompose_table,
    injection_mset,
)
from tamebox.opalg import certify_agreement

DECOMPOSE_DRAWS = 60
COEQUALIZE_DRAWS = 100
ISET_DRAWS = 25  # per N
CERTIFICATE_DRAWS = {2: 80, 3: 40}  # per arity and pair generator


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


def entries():
    """Every (name, text) of the corpus, in order.  Each call runs
    before its family draws the next, so the loop values it reads are
    its own."""
    for family in (decompose_entries, coequalize_entries, iset_entries,
                   late_merge_entries, certificate_entries):
        for name, call in family():
            yield name, outcome(call)


def digest(lines):
    h = hashlib.sha256()
    for name, text in lines:
        h.update(f"{name}\t{text}\n".encode("utf-8"))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(entries()))
