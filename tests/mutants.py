"""A catalogue of mutants of the library, each caught by a named test.

Each entry names a module of `src/tamebox`, a snippet of its source
that must occur there exactly once, the snippet's replacement, and the
test that must fail once it is applied.  The runner copies `src/` to a
temporary directory for each mutant, applies it to the copy, and runs
the test in a child process on that copy; the test must report a
failure (pytest's exit status 1).  A snippet that matches no line, or
more than one, fails the run too, so a refactor that moves the code
re-targets the entry.

Run it from the root of the repository:

    python tests/mutants.py

It exits 0 when every mutant is caught, and 1 otherwise.
`test_mutants.py` checks in Tier-1 that every snippet matches once and
every named test exists.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/tamebox
    snippet: str
    replacement: str
    test: str  # a pytest node id, from the root of the repository


MUTANTS = [
    # the extension trusts the given top whenever the bounds hold
    Mutant("merge test skipped", "iset.py",
           "    return sum(S == top for S, _ in classes) "
           "< len(X.levels[X.N])\n",
           "    return False\n",
           "tests/test_colimit_kernel.py::"
           "test_merges_forced_past_the_given_top_are_seen"),
    # the extension keeps every diagram as it is, free or not
    Mutant("extension kept without the count", "iset.py",
           "    if X.free:\n        return X\n",
           "    if True:\n        return X\n",
           "tests/test_colimit_kernel.py::"
           "test_merges_forced_past_the_given_top_are_seen"),
    # a point that one face holds counts as a generator
    Mutant("generators held by one face", "iset.py",
           "                if not held]",
           "                if len(held) < 2]",
           "tests/test_colimit_kernel.py::"
           "test_count_matches_both_flatness_routes"),
    # right at level 0, and too many points above a level with generators
    Mutant("count with C(n + 1, m)", "iset.py",
           "comb(n, m) * g[m]",
           "comb(n + 1, m) * g[m]",
           "tests/test_colimit_kernel.py::"
           "test_count_matches_both_flatness_routes"),
    # test_canonical_action_matches_decomposition_on_criterion_4 fails
    # on it too
    Mutant("Day target min(X.N, Y.N)", "iset.py",
           "    target = max(min(X.N, Y.N), A.stable_from + B.stable_from\n"
           "                 + max(A.merge_level, B.merge_level))\n",
           "    target = min(X.N, Y.N)\n",
           "tests/test_acceptance.py::test_criterion_04_day_vs_box"),
    Mutant("quotient points in level order", "iset.py",
           "_quotient([sorted(level, key=point_key) for level in X.levels],",
           "_quotient([list(level) for level in X.levels],",
           "tests/test_unionfind.py::"
           "test_quotient_and_colimit_named_by_key_least_member"),
    # the Day seeds place each generator q of the second factor on the
    # first m values of the complement, not on k+1..k+m, and identify
    # points that differ; the test's explicit example Q ⊛ rep_1 shows it
    Mutant("Day seeds placing q first", "iset.py",
           "tuple(range(k - a + 1, k - a + m + 1))",
           "tuple(range(1, m + 1))",
           "tests/test_colimit_kernel.py::"
           "test_day_convolution_matches_oracle"),
    # a point outside the inclusion's image counts as a generator even
    # when another face holds it: the generators are no longer closed
    # under the permutations, and a transposition leaves the free part
    Mutant("Day generators off the inclusion's image", "iset.py",
           "                if not held]",
           "                if n not in held]",
           "tests/test_colimit_kernel.py::"
           "test_day_convolution_matches_oracle"),
    # the inclusion's face left out of the faces-holding table: points
    # only the inclusion's image holds read as generators
    Mutant("faces holding without the inclusion's face", "iset.py",
           "enumerate(faces, start=1)",
           "enumerate(faces[:-1], start=1)",
           "tests/test_colimit_kernel.py::"
           "test_derived_diagrams_serve_no_stale_faces_holding_table"),
    # a class element pulled down along the face that skips i keeps the
    # value i in its image: the image is not moved off the skipped value
    Mutant("class element face shift off by one", "iset.py",
           "j if j < i else j + 1",
           "j if j <= i else j + 1",
           "tests/test_colimit_kernel.py::"
           "test_face_image_at_the_top_stability_level_is_pulled_down"),
    # a class element pulled down along a face keeps its inner image
    Mutant("pulled-down element keeping its inner image", "iset.py",
           "            got = inner._replace(\n"
           "                image=tuple(j if j < i else j + 1 "
           "for j in inner.image))\n",
           "            got = inner\n",
           "tests/test_colimit_kernel.py::"
           "test_support_comparison_catches_an_unmoved_element_image"),
    # each level's swap tables of the canonical action in reverse order
    Mutant("canonical swap tables reversed", "iset.py",
           "E.transp[c[0]][i][c[1]]",
           "E.transp[c[0]][k - 2 - i][c[1]]",
           "tests/test_colimit_kernel.py::"
           "test_canonical_action_matches_decomposition_with_two_swaps"),
    # the projections built before the truncations are compared: a
    # convolution past its factors' truncation reads a level they lack
    Mutant("Day projections without the truncation check", "iset.py",
           "    if not XY.N == X.N == Y.N:\n",
           "    if False:\n",
           "tests/test_iset.py::"
           "test_day_projections_refuse_a_convolution_past_the_truncation"),
    # the pair of a source orbit seeded where its representative lies,
    # not moved onto its joint support: an orbit above the window
    # falls outside the truncation
    Mutant("coequalizer seeds at the representative's level", "mset.py",
           "        seeds.append((len(J), *(y._replace(image=tuple(\n"
           "            J.index(j) + 1 for j in y.image)) for y in pair)))\n",
           "        seeds.append((m, *pair))\n",
           "tests/test_mset.py::"
           "test_coequalize_seeds_source_orbits_above_the_window"),
    # the sorting permutation pushed into the point in place of its
    # inverse: the two differ from level 3 on
    Mutant("canonical with its ranks inverted", "mset.py",
           "rank = tuple([ordered.index(v) + 1 for v in image])",
           "rank = tuple([image.index(v) + 1 for v in ordered])",
           "tests/test_mset.py::"
           "test_canonical_pushes_the_ranks_of_the_image_into_the_point"),
    # the box-monoid validator: equivariance checked under the first
    # summand's stabilizer only
    Mutant("monoid validator without the second stabilizer's moves",
           "opalg.py",
           "            moves += [first + tuple([m + k for k in t]) "
           "for t in stabilizers[b]]\n",
           "",
           "tests/test_monoid_kernel.py::"
           "test_every_single_entry_change_judged_as_oracle"),
    # an entry below its blocks moved by a permutation of the blocks as
    # if it filled them
    Mutant("point route for an entry that does not fill its blocks",
           "opalg.py",
           "    if len(c.image) == len(g):\n",
           "    if True:\n",
           "tests/test_monoid_kernel.py::"
           "test_every_single_entry_change_judged_as_oracle"),
    Mutant("monoid sum without its disjointness test", "opalg.py",
           "        if not set(x.image).isdisjoint(y.image):\n",
           "        if False:\n",
           "tests/test_monoid_kernel.py::test_add_errors_match_oracle"),
    # the certificate verifier, ROADMAP's source of truth: each check
    # left out lets one malformed certificate pass it or fail elsewhere
    Mutant("verifier without the chain arity check", "opalg.py",
           "        if e.arity != cert.n:\n",
           "        if False:\n",
           "tests/test_opalg.py::"
           "test_verifier_refuses_each_malformed_certificate"),
    Mutant("verifier without the chain slot check", "opalg.py",
           "        if not all(isinstance(s, QuasiAffineInjection) "
           "for s in e.slots):\n            return False",
           "        if False:\n            return False",
           "tests/test_opalg.py::"
           "test_verifier_refuses_each_malformed_certificate"),
    Mutant("verifier without the move arity check", "opalg.py",
           "        if len(step.move) != cert.n:\n",
           "        if False:\n",
           "tests/test_opalg.py::"
           "test_verifier_refuses_each_malformed_certificate"),
    Mutant("verifier without the move representation check", "opalg.py",
           "            if not isinstance(f, QuasiAffineInjection):\n",
           "            if False:\n",
           "tests/test_opalg.py::"
           "test_verifier_refuses_each_malformed_certificate"),
    # an unknown direction read as backward
    Mutant("verifier without the direction check", "opalg.py",
           '            elif step.direction == "bwd":\n',
           '            elif step.direction != "fwd":\n',
           "tests/test_opalg.py::"
           "test_verifier_refuses_each_malformed_certificate"),
    # a repeated sum overwrites its entry, which still validates
    Mutant("monoid sums without the duplicate-pair check", "documents.py",
           "        if (a, b) in table:\n",
           "        if False:\n",
           "tests/test_documents.py::"
           "test_boundary_refuses_each_broken_invariant"),
    # the bulk sum reader takes a sum the description refuses
    Mutant("bulk sum reader without its point test", "documents.py",
           "            and not isinstance(p, (list, dict))):\n",
           "            ):\n",
           "tests/test_documents.py::"
           "test_bulk_sum_reader_reads_as_the_description"),
    Mutant("bulk sum reader without its image entry test", "documents.py",
           "            and all(type(v) is int for v in image)\n",
           "",
           "tests/test_documents.py::"
           "test_bulk_sum_reader_reads_as_the_description"),
    # trusted builders of certificates, whose arguments the fixture of
    # conftest.py checks: the odd slots land on the even numbers, so
    # domains overlap and the odd numbers are not covered
    Mutant("merge with the odd part unshifted", "opalg.py",
           "((even_part, 0), (odd_part, 1))",
           "((even_part, 0), (odd_part, 0))",
           "tests/test_qa_kernel.py::test_certificate_helpers_match_oracle"),
    # the constraint sets are left out of the domain: a gap in coverage
    Mutant("inflate without the pinned spans", "injections.py",
           "    spans = [(a, a, 1, v, 1) for a, v in pinned.items()]\n",
           "    spans = []\n",
           "tests/test_qa_kernel.py::test_certificate_helpers_match_oracle"),
    # a transported map misses e_over after f: chain elements land on
    # the pinned values, and moves on the constraint sets they fix
    Mutant("transport without the value expansion", "injections.py",
           "_reindex(f.spans, over, values=True, collapse=False)",
           "f.spans",
           "tests/test_acceptance.py::"
           "test_criterion_08_agreement_certificates"),
    # a collapse leaves every window but the last where it is: the
    # dropped values are not closed up, and the comparison with the
    # oracle fails
    Mutant("drop values without the window offset", "injections.py",
           "-j if collapse else j",
           "0 if collapse else j",
           "tests/test_qa_kernel.py::test_certificate_helpers_match_oracle"),
    # off by one at the cut: a collapse window holds its own cut, so a
    # domain collapse keeps the point on the cut and gives two spans
    # the same first point
    Mutant("collapse window holding its cut", "injections.py",
           "hi = cut - 1 if collapse else cut - 1 - j",
           "hi = cut if collapse else cut - 1 - j",
           "tests/test_qa_kernel.py::test_certificate_helpers_match_oracle"),
    # the bulk piece reader takes a piece the description refuses, or
    # reads a ratio string as an integer pair
    Mutant("bulk piece reader without its res test", "documents.py",
           "type(lo) is type(mod) is type(res) is type(a) is type(b) is int",
           "type(lo) is type(mod) is type(a) is type(b) is int",
           "tests/test_documents.py::"
           "test_bulk_piece_reader_reads_as_the_description"),
    Mutant("bulk piece reader without its a test", "documents.py",
           "type(lo) is type(mod) is type(res) is type(a) is type(b) is int",
           "type(lo) is type(mod) is type(res) is type(b) is int",
           "tests/test_documents.py::"
           "test_bulk_piece_reader_reads_as_the_description"),
    # rows in the normal shape that the full checks refuse
    Mutant("shaped rows without the image test", "injections.py",
           "    clash = _first_overlap(images)\n",
           "    clash = None\n",
           "tests/test_qa_kernel.py::"
           "test_shaped_rows_match_the_full_checks_and_the_oracle"),
    Mutant("rows without the value test", "injections.py",
           "        elif v0 < den:\n",
           "        elif False:\n",
           "tests/test_qa_kernel.py::"
           "test_shaped_rows_match_the_full_checks_and_the_oracle"),
    Mutant("shape test without the point test", "injections.py",
           "((last != i or mod != 1 or step != 1) if i < t",
           "(False if i < t",
           "tests/test_qa_kernel.py::"
           "test_shaped_rows_off_their_residue_are_refused"),
    Mutant("rows without the residue", "injections.py",
           "        first = lo + (res - lo) % mod\n",
           "        first = lo\n",
           "tests/test_qa_kernel.py::"
           "test_shaped_rows_off_their_residue_are_refused"),
    Mutant("shape test ignoring where spans start", "injections.py",
           "if first != i or ((last",
           "if ((last",
           "tests/test_qa_kernel.py::"
           "test_shaped_rows_off_their_residue_are_refused"),
    # a set's repr follows its hash table: point keys of string sets, and
    # the orders they fix, change with the string hash seed
    Mutant("point_key without set sorting", "sigma.py",
           '    if "{" in r:\n        r = _value_repr(p)\n',
           "",
           "tests/test_corpus.py::test_corpus_digest_under_two_hash_seeds"),
    # the sums of a monoid whose points are string sets are listed in an
    # order that changes with the string hash seed; of seeds 0, 1 and 2,
    # only 2 gives another order
    Mutant("monoid sums sorted by repr", "documents.py",
           "key=lambda kv: point_key(kv[0])[1])",
           "key=lambda kv: repr(kv[0]))",
           "tests/test_corpus.py::test_corpus_digest_under_two_hash_seeds"),
    # JSON past Python's digit or nesting limit escapes as a traceback
    Mutant("load_json catching only JSONDecodeError", "documents.py",
           "    except (ValueError, RecursionError) as e:  "
           "# UnicodeDecodeError too\n",
           "    except json.JSONDecodeError as e:\n",
           "tests/test_cli.py::test_json_past_python_limits_is_a_parse_error"),
]


def source(mutant):
    with open(os.path.join(SRC, "tamebox", mutant.module),
              encoding="utf-8") as f:
        return f.read()


def run(mutant):
    """'caught', 'survived', or why the mutant could not be applied or
    its test did not run."""
    text = source(mutant)
    matches = text.count(mutant.snippet)
    if matches != 1:
        return f"snippet matches {matches} times"
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(SRC, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(src, "tamebox", mutant.module), "w",
                  encoding="utf-8") as f:
            f.write(text.replace(mutant.snippet, mutant.replacement))
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", mutant.test],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    if status == 1:
        return "caught"
    return "survived" if status == 0 else f"pytest exit status {status}"


def main():
    outcomes = [(mutant, run(mutant)) for mutant in MUTANTS]
    for mutant, outcome in outcomes:
        print(f"{outcome}: {mutant.name} ({mutant.test})")
    return 0 if all(o == "caught" for _, o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
