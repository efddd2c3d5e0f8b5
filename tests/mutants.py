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
    # test_canonical_action_matches_decomposition_on_criterion_4 fails
    # on it too
    Mutant("Day target min(X.N, Y.N)", "iset.py",
           "    target = max(min(X.N, Y.N), A.stable_from + B.stable_from\n"
           "                 + max(A.merge_level, B.merge_level))\n",
           "    target = min(X.N, Y.N)\n",
           "tests/test_acceptance.py::test_criterion_04_day_vs_box"),
    Mutant("quotient points in level order", "iset.py",
           "    order = [sorted(level, key=point_key) for level in X.levels]\n",
           "    order = [list(level) for level in X.levels]\n",
           "tests/test_unionfind.py::"
           "test_quotient_and_colimit_named_by_key_least_member"),
    # each level's swap tables of the canonical action in reverse order
    Mutant("canonical swap tables reversed", "iset.py",
           "E.transp[c[0]][i][c[1]]",
           "E.transp[c[0]][k - 2 - i][c[1]]",
           "tests/test_colimit_kernel.py::"
           "test_canonical_action_matches_decomposition_with_two_swaps"),
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
    # rows in the normal shape that the general path refuses
    Mutant("shaped rows without the image test", "injections.py",
           "    return None if _first_overlap(images) else spans\n",
           "    return spans\n",
           "tests/test_qa_kernel.py::"
           "test_shaped_rows_match_the_general_path_and_the_oracle"),
    Mutant("shaped rows without the value test", "injections.py",
           "        if a[0] < 1 or v0 < 1:\n            return None\n",
           "",
           "tests/test_qa_kernel.py::"
           "test_shaped_rows_match_the_general_path_and_the_oracle"),
    Mutant("shaped rows without the point-mod test", "injections.py",
           "            if hi != i or mod != 1:\n",
           "            if hi != i:\n",
           "tests/test_qa_kernel.py::"
           "test_shaped_rows_off_their_residue_are_refused"),
    Mutant("shaped rows without the residue test", "injections.py",
           "            if hi is not None or mod != p or (res - i) % p:\n",
           "            if hi is not None or mod != p:\n",
           "tests/test_qa_kernel.py::"
           "test_shaped_rows_off_their_residue_are_refused"),
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
