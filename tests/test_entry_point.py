"""The command line as a separate program: each check runs `python -m
tamebox.cli --deterministic` in a child process and reads its exit code
and stdout, on documents written by the library.

The child imports tamebox from the directory this process imported it
from, so the same module checks a source checkout (with src on the path)
and an installed package (run from outside the checkout) with no option
to choose between them."""

import ast
import json
import os
import random
import subprocess
import sys
from itertools import combinations

from test_mset import unit_mset
import tamebox
from tamebox.documents import parse_document, serialize_document, wrap
from tamebox.generators import random_agreeing_pair
from tamebox.injections import QuasiAffineInjection
from tamebox.iset import (
    TruncatedISet,
    representable_iset,
    restriction_coequalizer,
)
from tamebox.mset import CanonicalTameMSet, mset_iso_equal
from tamebox.sigma import SigmaSet, induce, iso_equal, trivial_sigma_set

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    tamebox.__file__)))
CERTIFICATE = os.path.join(os.path.dirname(__file__), "data",
                           "parent_golden_certificate.json")


def cli(cwd, *argv):
    """Exit code and stdout of one command run in cwd."""
    done = subprocess.run(
        [sys.executable, "-m", "tamebox.cli", "--deterministic", *argv],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
        capture_output=True, text=True,
    )
    return done.returncode, done.stdout


def write(path, kind, value):
    path.write_text(serialize_document(kind, value))
    return str(path)


def value_of(stdout):
    return json.loads(stdout)["value"]


def test_runs_the_package_this_process_imported(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", "import tamebox; print(tamebox.__file__)"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
        capture_output=True, text=True, check=True)
    assert done.stdout.strip() == os.path.abspath(tamebox.__file__)


def test_the_command_line_loads_the_law_suites_only_to_run_them(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, tamebox.cli; print('tamebox.selftest' in sys.modules)"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
        capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_input_error_reaches_the_shell_as_exit_2(tmp_path):
    code, out = cli(tmp_path, "xinf", "--points", "0")
    assert code == 2 and json.loads(out)["outcome"] == "error"


def test_json_past_python_limits_is_an_input_error(tmp_path):
    # a document nested 50,000 deep and an inline element with an
    # integer of 5,000 digits: json.loads raised RecursionError and
    # ValueError, and the command ended in a traceback with exit 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 50_000 + "]" * 50_000)
    element = '{"level":1,"image":[%s],"point":"a"}' % ("1" * 5_000)
    for argv in (["orbit-set", str(deep)], ["support", "--element", element]):
        code, out = cli(tmp_path, *argv)
        report = json.loads(out)  # one report
        assert (code, report["error"]["type"]) == (2, "ParseError")


def _certificate(tmp_path, name, change):
    """The stored certificate with one change applied to its document."""
    with open(CERTIFICATE, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _flip_first_step(doc):
    step = doc["payload"]["chain"][0]
    step["dir"] = {"fwd": "bwd", "bwd": "fwd"}[step["dir"]]


def _second_offset_three(doc):
    doc["payload"]["chain"][0]["move"][1]["pieces"][0]["b"] = 3


def test_stored_certificate_verifies_and_its_tamperings_fail(tmp_path):
    assert cli(tmp_path, "verify-cert", CERTIFICATE)[0] == 0
    # the first step reversed, and the offset b of its second move
    # changed from 2 to 3 so the step no longer evaluates to the chain
    # element
    for name, change in (("flipped.json", _flip_first_step),
                         ("offset.json", _second_offset_three)):
        path = _certificate(tmp_path, name, change)
        assert cli(tmp_path, "verify-cert", path)[0] == 1


def test_colimit_kernels_flatten_and_convolve(tmp_path):
    # both diagrams flatten and convolve; the unit of the non-flat
    # coequalizer is not levelwise bijective but is a colimit bijection
    rep = write(tmp_path / "rep.json", "iset", representable_iset(1, 5))
    coeq = write(tmp_path / "coeq.json", "iset", restriction_coequalizer(5))
    assert cli(tmp_path, "flatten", rep)[0] == 0
    code, out = cli(tmp_path, "flatten", coeq)
    assert code == 0
    value = value_of(out)
    assert value["unitLevelwiseBijective"] is False
    unit = tmp_path / "unit-coeq.json"
    unit.write_text(json.dumps(wrap("morphism", value["unit"])))
    assert cli(tmp_path, "n-iso", str(unit))[0] == 0
    assert cli(tmp_path, "day", rep, coeq)[0] == 0


def test_day_kernel_at_level_8(tmp_path):
    # the convolution of the rank-one representable with itself has
    # n(n-1) points at level n; its level 8 is one 56-point orbit,
    # isomorphic to level 8 of the rank-two representable and not to
    # the orbit of 3-subsets of {1..8}, which has as many points
    rep8 = write(tmp_path / "rep8.json", "iset", representable_iset(1, 8))
    code, out = cli(tmp_path, "day", rep8, rep8)
    assert code == 0
    value = value_of(out)
    assert [len(l) for l in value["payload"]["levels"]] == [
        n * (n - 1) for n in range(9)]
    day = parse_document(json.dumps(value)).value
    level, rank_two = (SigmaSet(8, X.levels[8], X.transp[8])
                       for X in (day, representable_iset(2, 8)))
    assert iso_equal(level, rank_two)
    subsets = induce(trivial_sigma_set(3, ["x"]), trivial_sigma_set(5, ["y"]))
    assert len(subsets) == len(level) == 56
    assert not iso_equal(level, subsets)


def test_box_output_is_read_back_at_its_degree(tmp_path):
    # a document of any degree is read: only building a level beyond
    # --degree-bound is refused, so every command takes box's level-8
    # output, and box takes it again under the same bound
    a4 = write(tmp_path / "a4.json", "mset",
               CanonicalTameMSet({4: trivial_sigma_set(4, ["p"])}))
    code, out = cli(tmp_path, "--degree-bound", "8", "box", a4, a4)
    assert code == 0
    value = value_of(out)
    assert list(value["payload"]["levels"]) == ["8"]
    a8 = tmp_path / "a8.json"
    a8.write_text(json.dumps(value))
    unit = write(tmp_path / "unit.json", "mset", unit_mset())
    shift = write(tmp_path / "shift.json", "qa-injection",
                  QuasiAffineInjection.affine(1, 1))
    element = json.dumps({"level": 8, "image": list(range(1, 9)),
                          "point": value["payload"]["levels"]["8"]
                          ["points"][0]})
    assert cli(tmp_path, "orbit-set", str(a8))[0] == 0
    code, out = cli(tmp_path, "act", shift, str(a8), "--element", element)
    assert code == 0
    assert value_of(out)["image"] == list(range(2, 10))
    assert cli(tmp_path, "--degree-bound", "8", "box", str(a8), unit)[0] == 0


def test_direct_flatness_route(tmp_path):
    # the representable is flat, and the coequalizer's level 2 holds
    # one point where its one generator, at level 1, counts two
    rep = write(tmp_path / "rep.json", "iset", representable_iset(1, 5))
    coeq = write(tmp_path / "coeq.json", "iset", restriction_coequalizer(5))
    assert cli(tmp_path, "flat-check", "--mode", "direct", rep)[0] == 0
    code, out = cli(tmp_path, "flat-check", "--mode", "direct", coeq)
    assert code == 1
    witness = json.loads(out)["counterexample"]
    assert ast.literal_eval(witness) == ("count", 2, 1, 2)


def test_class_first_seen_above_its_support(tmp_path):
    # X(n) = the 2-subsets of {1..n} for n >= 3, empty below: the class
    # of {1, 2} first appears at level 3, and its colimit is one trivial
    # point at level 2
    levels = [list(combinations(range(1, n + 1), 2)) if n >= 3 else []
              for n in range(7)]

    def swap(i, pair):
        return tuple(sorted({i: i + 1, i + 1: i}.get(v, v) for v in pair))

    X = TruncatedISet(
        6, levels, [{p: p for p in levels[n]} for n in range(6)],
        [[{p: swap(i, p) for p in levels[n]} for i in range(1, n)]
         for n in range(7)], 3)
    doc = write(tmp_path / "pairs.json", "iset", X)
    code, out = cli(tmp_path, "canonicalize", doc)
    assert code == 0
    W = parse_document(json.dumps(value_of(out))).value
    assert mset_iso_equal(
        W, CanonicalTameMSet({2: trivial_sigma_set(2, ["*"])}))
    code, out = cli(tmp_path, "flatten", doc)
    assert code == 0
    assert value_of(out)["unitLevelwiseBijective"] is False


def test_symmetric_product_at_level_7(tmp_path):
    # the box-monoid validator at level 7: the symmetric product reads
    # back through to-monoid and sums two disjointly supported level-1
    # elements
    code, out = cli(tmp_path, "xinf", "--points", "3", "--level", "7")
    assert code == 0
    xinf7 = tmp_path / "xinf7.json"
    xinf7.write_text(json.dumps(value_of(out)))
    assert cli(tmp_path, "to-monoid", str(xinf7))[0] == 0
    code, _ = cli(tmp_path, "sum", str(xinf7),
                  "--x", '{"level":1,"image":[2],"point":"p0"}',
                  "--y", '{"level":1,"image":[5],"point":"p1"}')
    assert code == 0


def test_arity_3_certificate_round_trip(tmp_path):
    # a3 emits a certificate that verifies between its endpoints and
    # not with them swapped
    phi, psi, A = random_agreeing_pair(random.Random(7), 3, [1, 1, 1])
    assert phi != psi
    phi3 = write(tmp_path / "phi3.json", "operad-element", phi)
    psi3 = write(tmp_path / "psi3.json", "operad-element", psi)
    code, _ = cli(tmp_path, "a3", "--phi", phi3, "--psi", psi3,
                  "--constraints", json.dumps([sorted(a) for a in A]),
                  "--emit", "cert3.json")
    assert code == 0
    assert cli(tmp_path, "verify-cert", "cert3.json",
               "--phi", phi3, "--psi", psi3)[0] == 0
    assert cli(tmp_path, "verify-cert", "cert3.json",
               "--phi", psi3, "--psi", phi3)[0] == 1
