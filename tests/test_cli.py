import argparse
import hashlib
import json
import os
import random

import pytest

from corpus import box_factor, named_late_pairs
from test_mset import unit_mset
from tamebox import cli, opalg, selftest, sigma
from tamebox.cli import main
from tamebox.documents import PointNames, canonical_json, serialize_document
from tamebox.generators import disjoint_lanes, random_mset
from tamebox.injections import PartialInjection, QuasiAffineInjection
from tamebox.iset import (
    flat_replacement,
    is_flat,
    representable_iset,
    restriction_coequalizer,
)
from tamebox.mset import CanonicalTameMSet, injection_mset
from tamebox.opalg import (
    OperadElement,
    infinite_symmetric_product,
)
from tamebox.sigma import regular_sigma_set, trivial_sigma_set


@pytest.fixture()
def workspace(tmp_path):
    def write(name, kind, value):
        path = tmp_path / name
        path.write_text(serialize_document(kind, value) + "\n")
        return str(path)

    return tmp_path, write


def run(capsys, *argv):
    code = main(["--deterministic", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def _reshuffled_interleave():
    s = OperadElement(disjoint_lanes(2))
    return OperadElement(
        [s.slot(1).compose(QuasiAffineInjection.affine(3, 0)),
         s.slot(2).compose(QuasiAffineInjection.affine(1, 2))]
    )


class TestCommands:
    def test_support(self, capsys):
        code, rep = run(
            capsys, "support",
            "--element", '{"level":2,"image":[1,3],"point":"a"}',
        )
        assert code == 0
        assert rep["value"] == [1, 3]

    def test_act(self, capsys, workspace):
        _, write = workspace
        inj = write("f.json", "partial-injection", PartialInjection({1: 4, 2: 1}))
        mset = write("m.json", "mset", injection_mset(2))
        code, rep = run(
            capsys, "act", inj, mset,
            "--element", '{"level":2,"image":[1,2],"point":"p0"}',
        )
        assert code == 0
        assert rep["value"]["image"] == [1, 4]

    def test_box_of_injections(self, capsys, workspace):
        _, write = workspace
        i1 = write("i1.json", "mset", injection_mset(1))
        code, rep = run(capsys, "box", i1, i1)
        assert code == 0
        assert rep["value"]["payload"]["maxLevel"] == 2
        level2 = rep["value"]["payload"]["levels"]["2"]
        assert len(level2["points"]) == 2

    def test_decompose_round_trip(self, capsys, workspace):
        _, write = workspace
        m = write("m.json", "mset", injection_mset(2))
        code, rep = run(capsys, "--window", "6", "decompose", m)
        assert code == 0 and rep["outcome"] == "pass"

    def test_flat_check_failure_witness(self, capsys, workspace):
        _, write = workspace
        q = write("q.json", "iset", restriction_coequalizer(4))
        code, rep = run(capsys, "flat-check", "--mode", "both", q)
        assert code == 1
        assert rep["outcome"] == "fail"
        assert "2" in rep["counterexample"]

    def test_flat_check_pass(self, capsys, workspace):
        _, write = workspace
        r = write("r.json", "iset", representable_iset(1, 4))
        code, rep = run(capsys, "flat-check", "--mode", "both", r)
        assert code == 0

    def test_flatten_and_n_iso(self, capsys, workspace, tmp_path):
        _, write = workspace
        q = write("q.json", "iset", restriction_coequalizer(4))
        code, rep = run(capsys, "flatten", q)
        assert code == 0
        assert rep["value"]["unitLevelwiseBijective"] is False
        morphism = {"kind": "morphism", "formatVersion": 1,
                    "payload": rep["value"]["unit"]}
        path = tmp_path / "eta.json"
        path.write_text(json.dumps(morphism))
        code, rep = run(capsys, "n-iso", str(path))
        assert code == 0 and rep["outcome"] == "pass"

    def test_day_then_canonicalize(self, capsys, workspace):
        _, write = workspace
        r = write("r.json", "iset", representable_iset(1, 4))
        code, rep = run(capsys, "day", r, r)
        assert code == 0
        day_path = workspace[0] / "day.json"
        day_path.write_text(json.dumps(rep["value"]))
        code, rep = run(capsys, "canonicalize", str(day_path))
        assert code == 0
        assert set(rep["value"]["payload"]["levels"]) == {"2"}

    def test_xinf_and_sum(self, capsys, workspace, tmp_path):
        code, rep = run(capsys, "xinf", "--points", "2", "--level", "4")
        assert code == 0
        path = tmp_path / "p.json"
        path.write_text(json.dumps(rep["value"]))
        code, rep = run(
            capsys, "sum", str(path),
            "--x", '{"level":1,"image":[2],"point":"p0"}',
            "--y", '{"level":1,"image":[5],"point":"p0"}',
        )
        assert code == 0
        assert rep["value"]["image"] == [2, 5]

    def test_operad_act(self, capsys, workspace, tmp_path):
        code, rep = run(capsys, "xinf", "--points", "3", "--level", "4")
        monoid = tmp_path / "m.json"
        monoid.write_text(json.dumps(rep["value"]))
        op = tmp_path / "op.json"
        op.write_text(serialize_document(
            "operad-element", OperadElement(disjoint_lanes(2))))
        code, rep = run(
            capsys, "operad-act", str(monoid), str(op),
            "--args",
            '[{"level":1,"image":[1],"point":"p0"},'
            '{"level":1,"image":[1],"point":"p1"}]',
        )
        assert code == 0
        assert rep["value"]["level"] == 2

    def test_monoid_round_trip_commands(self, capsys, workspace, tmp_path):
        code, rep = run(capsys, "xinf", "--points", "2", "--level", "3")
        monoid = tmp_path / "m.json"
        monoid.write_text(json.dumps(rep["value"]))
        code, rep = run(capsys, "to-algebra", str(monoid))
        assert code == 0 and rep["outcome"] == "pass"
        code, rep = run(capsys, "to-monoid", str(monoid))
        assert code == 0 and rep["outcome"] == "pass"

    def test_certificates(self, capsys, workspace, tmp_path):
        _, write = workspace
        phi = _reshuffled_interleave()
        phi_path = write("phi.json", "operad-element", phi)
        psi_path = write("psi.json", "operad-element",
                         OperadElement(disjoint_lanes(2)))
        cert_path = tmp_path / "cert.json"
        code, rep = run(
            capsys, "a3", "--phi", phi_path, "--psi", psi_path,
            "--constraints", "[[],[]]", "--emit", str(cert_path),
        )
        assert code == 0 and rep["outcome"] == "pass"
        assert rep["value"]["chainLength"] > 0
        code, rep = run(
            capsys, "verify-cert", str(cert_path),
            "--phi", phi_path, "--psi", psi_path,
        )
        assert code == 0 and rep["outcome"] == "pass"
        code, rep = run(
            capsys, "verify-cert", str(cert_path),
            "--phi", psi_path, "--psi", phi_path,
        )
        assert code == 1 and rep["outcome"] == "fail"

    def test_chi(self, capsys, workspace, tmp_path):
        _, write = workspace
        op = write("op.json", "operad-element",
                   OperadElement(disjoint_lanes(2)))
        m = write("m.json", "mset", injection_mset(1))
        code, rep = run(
            capsys, "chi", op, m, m,
            "--x", '{"level":1,"image":[2],"point":"p0"}',
            "--y", '{"level":1,"image":[1],"point":"p0"}',
        )
        assert code == 0
        assert rep["value"]["first"]["image"] == [3]
        assert rep["value"]["second"]["image"] == [2]

    def test_wedge(self, capsys):
        code, rep = run(capsys, "wedge-iso", "--x", "2", "--y", "3",
                        "--level", "2")
        assert code == 0
        assert rep["value"]["2"] == 9

    def test_orbit_set(self, capsys, workspace):
        _, write = workspace
        m = write("m.json", "mset", injection_mset(3))
        code, rep = run(capsys, "orbit-set", m)
        assert code == 0
        assert len(rep["value"]) == 1

    def test_selftest_small(self, capsys):
        code, rep = run(capsys, "selftest", "--seed", "5", "--cases", "2")
        assert code == 0
        assert rep["outcome"] == "pass"
        assert {s["name"] for s in rep["value"]["suites"]} >= {
            "decomposition-round-trip",
            "agreement-certificates",
        }

    @pytest.mark.parametrize("bound", range(6))
    def test_selftest_refuses_a_degree_bound_below_its_suites(
            self, capsys, monkeypatch, bound):
        # box-oracle builds level 5; below that bound a run used to stop
        # there, after the suites before it had run
        ran = []

        class Counted(selftest.Tally):
            def __init__(self):
                super().__init__()
                ran.append(self)

        monkeypatch.setattr(selftest, "Tally", Counted)
        code, rep = run(capsys, "--degree-bound", str(bound), "selftest",
                        "--seed", "5", "--cases", "3")
        if bound < 5:
            assert (code, rep["error"]["type"], ran) == (2, "DegreeTooLarge",
                                                         [])
        else:
            assert (code, rep["outcome"]) == (0, "pass")
            assert len(rep["value"]["suites"]) == len(ran) == len(
                selftest.SUITES)


def _qa_piece(**fields):
    piece = {"lo": 1, "hi": None, "mod": 1, "res": 0, "a": 1, "b": 0}
    return json.dumps({"kind": "qa-injection",
                       "payload": {"pieces": [{**piece, **fields}]}})


# act reads qa-injection documents, and orbit-set reads an mset and
# accepts the empty one, so in these commands the decoder, not the
# kind check, rejects a malformed document of those kinds
ACT_ON_BAD = ["act", "<bad>", "<m2>",
              "--element", '{"level":2,"image":[1,2],"point":"p0"}']
NEGATIVE_DEGREE = json.dumps({"kind": "mset", "payload": {"levels": {
    "-1": {"m": -1, "points": ["a"], "s": []}}}})
# a degree-2 Σ-set and a two-level diagram in the encoder's form; the
# malformed variants below change one field of these
SWAP = {"m": 2, "points": ["a", "b"], "s": [{"a": "b", "b": "a"}]}
ISET_AB = {"N": 1, "stableFrom": 0, "levels": [["a", "b"], ["a", "b"]],
           "incl": [{"a": "a", "b": "b"}], "s": [[], []]}


def _doc(kind, payload):
    return json.dumps({"kind": kind, "payload": payload})


def _one_point(point):
    return {"m": 1, "points": [point], "s": []}


WELL_FORMED = [
    (["orbit-set", "<bad>"], _doc("mset", {"levels": {
        "1": _one_point("a"), "2": SWAP}})),
    (ACT_ON_BAD, _doc("partial-injection", {"map": {"1": 2, "2": 1}})),
    (["canonicalize", "<bad>"], _doc("iset", ISET_AB)),
]


def _set_arity(payload, n):
    payload["n"] = n
    payload["A"] = [[]] * n


def _partial_final(payload):
    payload["final"]["slots"] = [{"map": {"1": 1}}, {"map": {"1": 2}}]


# each refusal of the verifier that a certificate document can carry
# (its moves are read as quasi-affine injections), and a change to the
# one-step certificate payload that brings it about
VERIFIER_REFUSALS = {
    "arity mismatch in chain": lambda c: _set_arity(c, 3),
    "chain element with inexact slots": _partial_final,
    "move arity mismatch": lambda c: c["chain"][0]["move"].pop(),
    "unknown direction": lambda c: c["chain"][0].update(dir="sideways"),
}


def _call_on_bad(capsys, inputs, tmp_path, argv, text):
    """Run argv with the document text in place of <bad>."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out = _call(capsys, argv, {**inputs, "bad": str(bad)})
    return code, json.loads(out)


class TestReportDiscipline:
    def test_input_error_exit_code(self, capsys, inputs, tmp_path):
        code, rep = _call_on_bad(
            capsys, inputs, tmp_path, ACT_ON_BAD,
            '{"kind": "qa-injection", "payload": {"pieces": []}}')
        assert code == 2
        assert rep["outcome"] == "error"
        assert rep["error"]["type"] == "NotCovering"

    @pytest.mark.parametrize("argv,text", [
        (ACT_ON_BAD, _qa_piece(lo=0)),
        (ACT_ON_BAD, _qa_piece(mod=0)),
        (ACT_ON_BAD, '{"kind": "qa-injection", "payload": {}}'),
        (["orbit-set", "<bad>"], '{"kind": "mset", "payload": null}'),
        # orbit-set listed the orbit at degree -1; box and decompose
        # raised an uncaught ValueError
        *[(argv, NEGATIVE_DEGREE) for argv in (
            ["orbit-set", "<bad>"], ["box", "<bad>", "<m1>"],
            ["decompose", "<bad>"])],
        # int() read both keys as level 1, and the later one replaced
        # the earlier: orbit-set reported [[1, "b"]] with exit 0
        (["orbit-set", "<bad>"], _doc("mset", {"levels": {
            "+1": _one_point("a"), " 01": _one_point("b")}})),
        (["orbit-set", "<bad>"], _doc("mset", {"levels": {
            "01": _one_point("a")}})),
        (ACT_ON_BAD, _doc("partial-injection", {"map": {"1": 2, "+2": 1}})),
        # list() and dict() coerced a string into points and a list of
        # pairs into a table, and the commands exited 0
        (["orbit-set", "<bad>"], _doc("mset", {"levels": {
            "1": {"m": 1, "points": "ab", "s": []}}})),
        (["orbit-set", "<bad>"], _doc("mset", {"levels": {
            "2": {**SWAP, "s": [[["a", "b"], ["b", "a"]]]}}})),
        (["orbit-set", "<bad>"], _doc("mset", {"levels": [["1", SWAP]]})),
        (["canonicalize", "<bad>"], _doc("iset", {
            **ISET_AB, "levels": ["ab", "ab"]})),
        (["canonicalize", "<bad>"], _doc("iset", {
            **ISET_AB, "incl": [[["a", "a"], ["b", "b"]]]})),
    ], ids=["lo-0", "mod-0", "no-pieces-field", "null-payload",
            "negative-degree-orbit-set", "negative-degree-box",
            "negative-degree-decompose", "level-keys-plus-and-padded",
            "level-key-leading-zero", "map-key-plus", "sigma-points-string",
            "sigma-table-pairs", "mset-levels-array",
            "iset-levels-strings", "iset-incl-pairs"])
    def test_malformed_document_is_an_input_error(self, capsys, inputs,
                                                  tmp_path, argv, text):
        code, rep = _call_on_bad(capsys, inputs, tmp_path, argv, text)
        assert code == 2
        assert rep["error"]["type"] == "ValidationError"

    def test_document_of_another_kind_is_refused_unread(
            self, capsys, inputs, tmp_path, monkeypatch):
        text = serialize_document("sigma-set", regular_sigma_set(3))
        built = []
        init = sigma.SigmaSet.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sigma.SigmaSet, "__init__", counted)
        code, rep = _call_on_bad(capsys, inputs, tmp_path,
                                 ["orbit-set", "<bad>"], text)
        assert (code, rep["error"]["type"]) == (2, "ValidationError")
        assert rep["error"]["message"] == (
            f"document kind mset, found sigma-set at {tmp_path / 'bad.json'}")
        assert built == []

    @pytest.mark.parametrize("max_level", ["x", 9], ids=["string", "nine"])
    def test_max_level_not_the_top_level_is_an_input_error(
            self, capsys, inputs, tmp_path, max_level):
        # no decoder read maxLevel: orbit-set listed the one orbit of the
        # level-2 set with exit 0
        code, rep = _call_on_bad(
            capsys, inputs, tmp_path, ["orbit-set", "<bad>"],
            _doc("mset", {"levels": {"2": SWAP}, "maxLevel": max_level}))
        assert code == 2
        assert rep["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("argv,text", WELL_FORMED,
                             ids=["mset", "partial-injection", "iset"])
    def test_unvaried_documents_are_accepted(
            self, capsys, inputs, tmp_path, argv, text):
        code, _ = _call_on_bad(capsys, inputs, tmp_path, argv, text)
        assert code == 0

    @pytest.mark.parametrize("version,code", [
        (7, 2), ("x", 2), ("1", 2), (True, 2), (None, 2), (1.0, 2),
        (1, 0), ("missing", 0),
    ], ids=["7", "string-x", "string-1", "true", "null", "float-1", "1",
            "missing"])
    def test_format_version_other_than_1_is_an_input_error(
            self, capsys, inputs, tmp_path, version, code):
        # every version decoded alike and was kept unread
        raw = {"kind": "mset", "payload": {"levels": {}}}
        if version != "missing":
            raw["formatVersion"] = version
        got, rep = _call_on_bad(capsys, inputs, tmp_path,
                                ["orbit-set", "<bad>"], json.dumps(raw))
        assert got == code
        if code:
            assert rep["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("ratio", ["1_0/10", " 1/1", "2/2", "3/1",
                                       "1/-2", "+1/2"])
    def test_ratio_not_as_encoded_is_an_input_error(self, capsys, inputs,
                                                    tmp_path, ratio):
        # int() read the first four as the slopes 1, 1, 1 and 3, and the
        # last two failed as non-injective
        code, rep = _call_on_bad(capsys, inputs, tmp_path, ACT_ON_BAD,
                                 _qa_piece(a=ratio))
        assert code == 2
        assert rep["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("command", ["canonicalize", "flatten"])
    def test_fractional_stability_level_is_an_input_error(self, capsys,
                                                          tmp_path, command):
        # int() used to read 2.5 as the stability level 2
        raw = json.loads(serialize_document("iset", representable_iset(1, 4)))
        raw["payload"]["stableFrom"] = 2.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, rep = run(capsys, command, str(bad))
        assert code == 2
        assert rep["error"]["type"] == "ValidationError"

    def test_malformed_element_argument_is_an_input_error(self, capsys):
        code, rep = run(capsys, "support", "--element",
                        '{"level":"x","image":[1],"point":"a"}')
        assert code == 2
        assert rep["error"]["type"] == "ValidationError"

    def test_inline_file_not_utf8_is_an_input_error(self, capsys, tmp_path):
        # the file was decoded unchecked: UnicodeDecodeError, exit 1
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe{}")
        code, rep = run(capsys, "support", "--element", f"@{bad}")
        assert (code, rep["error"]["type"]) == (2, "ParseError")
        assert rep["inputs"] == ""  # refused while reading

    def test_unwritable_emit_path_is_an_input_error(self, capsys, inputs,
                                                    tmp_path):
        # open() raised FileNotFoundError: a traceback, exit 1, no report
        emit = str(tmp_path / "no-such-dir" / "cert.json")
        code, out = _call(capsys, ARGV["a3"], {**inputs, "emit": emit})
        rep = json.loads(out)  # one report
        assert (code, rep["outcome"]) == (2, "error")
        assert rep["error"]["type"] == "ValidationError"
        assert f"--emit={emit}" in rep["error"]["message"]
        assert "value" not in rep
        assert rep["inputs"] != ""  # every argument was read

    @pytest.mark.parametrize("argv", [
        ["support", "--element", '{"level":1,"image":[1,3],"point":"a"}'],
        ["sum", "<monoid>", "--x", '{"level":1,"image":[1,2],"point":"p0"}',
         "--y", '{"level":1,"image":[3],"point":"p1"}'],
    ], ids=["support", "sum"])
    def test_image_not_of_the_level_is_an_input_error(self, capsys, inputs,
                                                     argv):
        # an image longer than the level used to be cut to the level: the
        # sum below came out as if x sat at 1 alone
        code, out = _call(capsys, argv, inputs)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("argv", [
        ["a3", "--phi", "<op>", "--psi", "<op>", "--constraints", "[1,2]"],
        ["a3", "--phi", "<op>", "--psi", "<op>", "--constraints", '[["x"]]'],
        ["a3", "--phi", "<op>", "--psi", "<op>", "--constraints", '{"a":1}'],
        ["a3", "--phi", "<op>", "--psi", "<op>",
         "--constraints", "[[1.5],[]]"],
        ["a3", "--phi", "<op>", "--psi", "<op>",
         "--constraints", "[[true],[]]"],
        ["operad-act", "<monoid>", "<op>", "--args", "5"],
        ["operad-act", "<monoid>", "<op>", "--args", "null"],
    ], ids=["ints", "strings", "object", "float", "bool", "args-int",
            "args-null"])
    def test_malformed_inline_list_is_an_input_error(self, capsys, inputs,
                                                     argv):
        code, out = _call(capsys, argv, inputs)
        rep = json.loads(out)
        assert code == 2
        assert rep["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("argv,error", [
        *[(["--window", w, "decompose", "<m2>"], "WindowTooSmall")
          for w in ("0", "1", "2", "3")],
        (["--window", "2", "selftest"], "WindowTooSmall"),
        (["selftest", "--cases", "0"], "ValidationError"),
        (["selftest", "--cases", "-1"], "ValidationError"),
        (["--degree-bound", "0", "box", "<m1>", "<m1>"], "DegreeTooLarge"),
        (["a3", "--phi", "<op1>", "--psi", "<op1>", "--constraints", "[[]]"],
         "PreconditionViolated"),
        (["a3", "--phi", "<phi>", "--psi", "<op>", "--constraints", "[[]]"],
         "PreconditionViolated"),
        (["a3", "--phi", "<partial-op>", "--psi", "<partial-op>",
          "--constraints", "[[],[]]"], "PreconditionViolated"),
        (["orbit-set", "<missing>"], "ParseError"),
    ], ids=["decompose-window-0", "decompose-window-1", "decompose-window-2",
            "decompose-window-3", "selftest-window-2", "selftest-cases-0",
            "selftest-cases-minus-1", "box-degree-bound-0", "a3-arity-one",
            "a3-constraint-count", "a3-partial-slots", "unreadable-path"])
    def test_argument_out_of_range_is_an_input_error(self, capsys, inputs,
                                                     argv, error):
        # window 1 used to give an empty table and a failed round trip,
        # selftest --window 2 a failed suite, --cases 0 a pass on no
        # instances, and degree bound 0 fell back to the carrier's bound
        code, out = _call(capsys, argv, inputs)
        assert code == 2
        assert json.loads(out)["error"]["type"] == error

    def test_no_command_prints_the_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert out.startswith("usage: ") and "verify-cert" in out

    @pytest.mark.parametrize("reason", VERIFIER_REFUSALS)
    def test_malformed_certificate_fails_verification(
            self, capsys, inputs, tmp_path, reason):
        with open(inputs["cert"], encoding="utf-8") as fh:
            doc = json.load(fh)
        VERIFIER_REFUSALS[reason](doc["payload"])
        code, rep = _call_on_bad(capsys, inputs, tmp_path,
                                 ["verify-cert", "<bad>"], json.dumps(doc))
        assert (code, rep["outcome"]) == (1, "fail")
        assert rep["counterexample"]["reason"] == reason

    def test_wedge_comparison_failing_exits_1(self, capsys, monkeypatch):
        real = opalg.symmetric_product_carrier

        def without_top_level(points, basepoint, level_bound):
            # the wedge's carrier, whose points include tagged pairs
            if any(isinstance(p, tuple) for p in points):
                level_bound -= 1
            return real(points, basepoint, level_bound)

        monkeypatch.setattr(opalg, "symmetric_product_carrier",
                            without_top_level)
        code, rep = run(capsys, *ARGV["wedge-iso"])
        assert (code, rep["outcome"]) == (1, "fail")

    def test_reports_byte_identical(self, capsys, workspace):
        _, write = workspace
        m = write("m.json", "mset", unit_mset())
        main(["--deterministic", "orbit-set", m])
        first = capsys.readouterr().out
        main(["--deterministic", "orbit-set", m])
        second = capsys.readouterr().out
        assert first == second

    def test_timing_present_by_default(self, capsys, workspace):
        _, write = workspace
        m = write("m.json", "mset", unit_mset())
        main(["orbit-set", m])
        rep = json.loads(capsys.readouterr().out)
        assert "elapsedMs" in rep


# JSON past Python's own limits: nested deeper than its recursion limit,
# or with an integer of more digits than it converts.  json.loads raised
# RecursionError and ValueError, and the call ended in a traceback with
# exit 1
TOO_DEEP = "[" * 50_000 + "]" * 50_000
TOO_LONG = '{"level":1,"image":[%s],"point":"a"}' % ("1" * 5_000)


@pytest.mark.parametrize("text", [TOO_DEEP, TOO_LONG],
                         ids=["deep", "digits"])
@pytest.mark.parametrize("given", ["document", "@file", "inline"])
def test_json_past_python_limits_is_a_parse_error(capsys, tmp_path, text,
                                                  given):
    path = tmp_path / "big.json"
    path.write_text(text)
    argv = {"document": ["orbit-set", str(path)],
            "@file": ["support", "--element", f"@{path}"],
            "inline": ["support", "--element", text]}[given]
    code, rep = run(capsys, *argv)
    assert (code, rep["error"]["type"], rep["inputs"]) == (2, "ParseError",
                                                           "")


@pytest.mark.parametrize("argv", [
    ["support", "--element", '{"level":"x","image":[1],"point":"a"}'],
    ["act", "<inj>", "<m2>", "--element", '{"level":2,"image":[1,2]}'],
    ["sum", "<monoid>", "--x", '{"level":1,"image":["2"],"point":"p0"}',
     "--y", '{"level":1,"image":[5],"point":"p1"}'],
    ["operad-act", "<monoid>", "<op>", "--args", "[5]"],
    ["a3", "--phi", "<phi>", "--psi", "<op>", "--constraints", "[[1.5],[]]"],
    ["chi", "<op>", "<m1>", "<m1>",
     "--x", '{"level":1,"image":[2],"point":"p0"}', "--y", "[]"],
], ids=["support", "act", "sum", "operad-act", "a3", "chi"])
def test_malformed_inline_value_is_refused_while_reading(capsys, inputs,
                                                         argv):
    # the handlers read their inline values after `inputs` was hashed
    code, out = _call(capsys, argv, inputs)
    rep = json.loads(out)
    assert (code, rep["error"]["type"]) == (2, "ValidationError")
    assert rep["inputs"] == ""


def test_output_past_the_digit_limit_is_an_input_error(capsys, tmp_path):
    # a slope of 3,000 digits sends the image 10**1999 to a value of
    # 5,000: the report could not be encoded, and the ValueError ended
    # the call in a traceback with exit 1
    write = _writer(tmp_path)
    f = write("f", "qa-injection", QuasiAffineInjection.affine(10**2999, 0))
    X = write("x", "mset", CanonicalTameMSet({1: trivial_sigma_set(1, ["a"])}))
    element = json.dumps({"level": 1, "image": [10**1999], "point": "a"})
    code, rep = run(capsys, "act", f, X, "--element", element)
    assert (code, rep["error"]["type"]) == (2, "ValidationError")
    assert "4300 digits" in rep["error"]["message"]
    assert rep["inputs"] != "" and "value" not in rep


def test_certificate_past_the_digit_limit_leaves_no_file(capsys, tmp_path):
    # the slope 10**4299 + 1 has 4,300 digits, as many as a document may
    # hold; the chain widens it tenfold.  The file was opened before the
    # certificate was encoded, and a ValueError left it empty
    s = 10**4299 + 1
    write = _writer(tmp_path)
    phi = write("phi", "operad-element", OperadElement(
        [QuasiAffineInjection.affine(s, 0), QuasiAffineInjection.affine(s, 1)]))
    psi = write("psi", "operad-element", OperadElement(disjoint_lanes(2)))
    emit = tmp_path / "cert.json"
    code, rep = run(capsys, "a3", "--phi", phi, "--psi", psi,
                    "--constraints", "[[],[]]", "--emit", str(emit))
    assert (code, rep["error"]["type"]) == (2, "ValidationError")
    assert rep["inputs"] != ""
    assert not emit.exists()


# sha256 of the --deterministic report of one call of every sub-command,
# in --help order, recorded before the command table replaced the
# dispatch chain, and again, in `inputs` alone, when `main` came to hash
# every argument; the a3 entry also pins the certificate it emits
GOLDEN = [
    ("support", ["support",
                 "--element", '{"level":2,"image":[1,3],"point":"a"}'],
     0,
     "733b18665172a79b593479fafc74243e2380a49372705d8f2b9f64b9a9acb007"),
    ("act", ["act", "<inj>", "<m2>",
             "--element", '{"level":2,"image":[1,2],"point":"p0"}'],
     0,
     "832d55943316d294eb357326ef88b95ea043fe64315605195c226ad1baf3d56a"),
    ("box", ["box", "<m1>", "<m1>"], 0,
     "8cf37c63661a3313b30c58f621768e202fba35bff6e188352bed58f8568a896c"),
    ("decompose", ["--window", "6", "decompose", "<m2>"], 0,
     "f5abb64d3178f2d28798fd0043354de9c695406578a2b1c68713d228ff1b2744"),
    ("flat-check", ["flat-check", "--mode", "both", "<quot>"], 1,
     "52d8a30d884716c4bb424030fbc4eeff005d961bdaa283cebe112d3a9698bcb2"),
    ("flatten", ["flatten", "<quot>"], 0,
     "b6f6d818466818aff03fe7ea654402aad6104264e794578ff5f9d142ed8d3adc"),
    ("day", ["day", "<rep>", "<rep>"], 0,
     "9142b7455d1957b8cd07aed24bb7ee669110be0388022ded213942b19d8e1097"),
    ("canonicalize", ["canonicalize", "<rep>"], 0,
     "75a880748cc8c78fec4260cd5eb1560c031dcd7de69b8f6fc9e690020c12cd2c"),
    ("n-iso", ["n-iso", "<eta>"], 0,
     "402fec3e94adbe2925bde2732cbaf85ca99ef3cb11aedbbea7fa09c3b7faf6ee"),
    ("sum", ["sum", "<monoid>",
             "--x", '{"level":1,"image":[2],"point":"p0"}',
             "--y", '{"level":1,"image":[5],"point":"p1"}'],
     0,
     "1e70a4604de1f5c940499da4218aeca942a3a246ffe7d12fa0bc68f560af9e5d"),
    ("operad-act", ["operad-act", "<monoid>", "<op>", "--args",
                    '[{"level":1,"image":[1],"point":"p0"},'
                    '{"level":1,"image":[1],"point":"p1"}]'],
     0,
     "895a94534c7ddd1bed47b65b241b2659843bda6af5870773c6995f0be063deb2"),
    ("to-algebra", ["to-algebra", "<monoid>"], 0,
     "b783dac864586610caf28e96d56c735b6f238bb74ec78282663186f65c06c48e"),
    ("to-monoid", ["to-monoid", "<monoid>"], 0,
     "6160c058f906ae9aa64c1fbf8f8f1a2be0345ddfc9ce2520b85bb8cb7784d0dd"),
    ("a3", ["a3", "--phi", "<phi>", "--psi", "<op>",
            "--constraints", "[[],[]]", "--emit", "<emit>"],
     0,
     "eaa5e882ca8947cc9870d11e235dbe9ee43d78dbdda17771f35b8cbbe9b8e3c6"),
    ("verify-cert", ["verify-cert", "<cert>",
                     "--phi", "<phi>", "--psi", "<op>"],
     0,
     "c1ba85d7b990d412b977bc614e47f90c335e660f2440c50b66bc3074765a2365"),
    ("chi", ["chi", "<op>", "<m1>", "<m1>",
             "--x", '{"level":1,"image":[2],"point":"p0"}',
             "--y", '{"level":1,"image":[1],"point":"p0"}'],
     0,
     "043461924e992b18dbbc69f44991db9ee4214218438016d176bffec8bfa22ba4"),
    ("xinf", ["xinf", "--points", "2", "--level", "4"], 0,
     "2171449c20ffb951d9768040c6fd5d9a46328e0b007a96e7757dfd06fd5c13f5"),
    ("wedge-iso", ["wedge-iso", "--x", "2", "--y", "3", "--level", "2"], 0,
     "ae8dbbc98895debf99d7c01d7586edc964851418b2c8b4c09f93e7aec9f7dbf1"),
    ("orbit-set", ["orbit-set", "<m3>"], 0,
     "4deff46946f45f505345c07d47246ddd56e6412e3294992465b53e7208b2d317"),
    # each suite now reports its skipped draws; without the `skipped`
    # keys the report is SELFTEST_WITHOUT_SKIPPED_SHA256's
    ("selftest", ["selftest", "--seed", "5", "--cases", "1"], 0,
     "481c511f6c91f3c377034b080584c2612c5cf2d3a56ab34d9e37564354ff2079"),
]

SELFTEST_WITHOUT_SKIPPED_SHA256 = (
    "9302daf7f343d6d3eb76d72fe810829a84a2fa190622c987b15cac255d705796"
)

EMITTED_CERTIFICATE_SHA256 = (
    "b587bc4fd3591edbb4cd8be141c16be696c245ceed8cc9f2b4c56c7f7c3e159e"
)

ARGV = {name: argv for name, argv, _, _ in GOLDEN}

# the certificate for <phi> and <op> that the chain builder emitted
# before its widen-and-merge construction (one step): verify-cert keeps
# its golden digest, so the verifier still accepts chains already issued
PARENT_CERTIFICATE = os.path.join(os.path.dirname(__file__), "data",
                                  "parent_golden_certificate.json")


def _writer(directory):
    """write(name, kind, value): the path of the document written there."""
    def write(name, kind, value):
        path = directory / f"{name}.json"
        path.write_text(serialize_document(kind, value) + "\n")
        return str(path)

    return write


@pytest.fixture()
def inputs(tmp_path):
    """Paths of the documents GOLDEN names as <role>."""
    write = _writer(tmp_path)
    phi = _reshuffled_interleave()
    _, eta = flat_replacement(restriction_coequalizer(4))
    return {
        "inj": write("inj", "partial-injection",
                     PartialInjection({1: 4, 2: 1})),
        "m1": write("m1", "mset", injection_mset(1)),
        "m2": write("m2", "mset", injection_mset(2)),
        "m3": write("m3", "mset", injection_mset(3)),
        "rep": write("rep", "iset", representable_iset(1, 4)),
        "quot": write("quot", "iset", restriction_coequalizer(4)),
        "eta": write("eta", "morphism", eta),
        "monoid": write("monoid", "monoid",
                        infinite_symmetric_product(["*", "a1", "a2"], "*", 3)),
        "op": write("op", "operad-element", OperadElement(disjoint_lanes(2))),
        "phi": write("phi", "operad-element", phi),
        "cert": PARENT_CERTIFICATE,
        "emit": str(tmp_path / "emitted.json"),
        "op1": write("op1", "operad-element",
                     OperadElement([QuasiAffineInjection.identity()])),
        "partial-op": write("partial-op", "operad-element", OperadElement(
            [PartialInjection({1: 1}), PartialInjection({1: 2})])),
        "missing": str(tmp_path / "missing.json"),
    }


def _call(capsys, argv, inputs):
    argv = [inputs[a[1:-1]] if a.startswith("<") else a for a in argv]
    code = main(["--deterministic", *argv])
    return code, capsys.readouterr().out


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestCommandTable:
    @pytest.mark.parametrize("argv,code,digest", [g[1:] for g in GOLDEN],
                             ids=[g[0] for g in GOLDEN])
    def test_report_bytes_unchanged(self, capsys, inputs, argv, code, digest):
        got_code, out = _call(capsys, argv, inputs)
        assert (got_code, _sha256(out)) == (code, digest)
        if argv[0] == "a3":
            with open(inputs["emit"], encoding="utf-8") as fh:
                assert _sha256(fh.read()) == EMITTED_CERTIFICATE_SHA256

    def test_selftest_report_adds_only_skipped(self, capsys, inputs):
        _, out = _call(capsys, ARGV["selftest"], inputs)
        report = json.loads(out)
        for entry in report["value"]["suites"]:
            del entry["skipped"]
        assert _sha256(canonical_json(report) + "\n") == (
            SELFTEST_WITHOUT_SKIPPED_SHA256)

    @pytest.mark.parametrize("constraints", [[[]], [[], [], [1]]],
                             ids=["one-set", "three-sets"])
    def test_constraint_count_other_than_arity_fails(self, capsys, inputs,
                                                     tmp_path, constraints):
        # moves were paired with constraint sets by zip, so the stored
        # certificate with its list cut or grown still verified
        with open(PARENT_CERTIFICATE, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["payload"]["A"] = constraints
        bad = tmp_path / "bad-cert.json"
        bad.write_text(json.dumps(raw))
        code, out = _call(capsys, ARGV["verify-cert"],
                          {**inputs, "cert": str(bad)})
        assert code == 1
        assert json.loads(out)["counterexample"] == {
            "step": None, "reason": "constraint count mismatch"}

    def test_golden_covers_every_command(self):
        assert [g[0] for g in GOLDEN] == [c.name for c in cli.COMMANDS]

    def test_table_names_are_the_parser_choices(self):
        assert list(_subparsers()) == [c.name for c in cli.COMMANDS]

    @pytest.mark.parametrize("bad", [["no-such-command"], ["act"]])
    def test_argparse_error_leaves_no_state(self, capsys, inputs, bad):
        first = _call(capsys, ARGV["act"], inputs)
        with pytest.raises(SystemExit) as exc:
            main(["--deterministic", *bad])
        assert exc.value.code == 2
        capsys.readouterr()
        assert _call(capsys, ARGV["act"], inputs) == first

    def test_a3_verifies_once(self, capsys, inputs, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return verify(*args)

        verify = opalg.verify_certificate
        monkeypatch.setattr(opalg, "verify_certificate", counted)
        monkeypatch.setattr(cli, "verify_certificate", counted)
        code, _ = _call(capsys, ARGV["a3"], inputs)
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["box", "<m1>", "<m1>"], ["box", "<m2>", "<r1>"],
        ["box", "<r1>", "<r2>"], ["--window", "6", "decompose", "<m2>"],
        ["--window", "6", "decompose", "<r2>"], ["day", "<rep>", "<rep>"],
        ["day", "<rep>", "<quot>"], ["canonicalize", "<rep>"],
        ["canonicalize", "<quot>"], ["to-monoid", "<monoid>"],
        ["to-monoid", "<cyclic>"], ["xinf", "--points", "3", "--level", "3"],
        ["xinf", "--points", "1", "--level", "2"],
    ], ids=lambda argv: " ".join(argv))
    def test_document_value_reads_back_equal(self, capsys, inputs, tmp_path,
                                             monkeypatch, argv):
        # the report holds encode_document's dict, which gives the bytes
        # of serialize_document only while it reads back equal
        rng = random.Random(3)
        more = {}
        for name, value in (("r1", random_mset(rng, 2, 3)),
                            ("r2", random_mset(rng, 3, 4)),
                            ("cyclic", opalg.trivial_from_abelian(
                                *opalg.cyclic_monoid(3)))):
            kind = "monoid" if name == "cyclic" else "mset"
            more[name] = str(tmp_path / f"{name}.json")
            with open(more[name], "w", encoding="utf-8") as fh:
                fh.write(serialize_document(kind, value))
        reports = []
        monkeypatch.setattr(cli, "_emit",
                            lambda report, *_: reports.append(report))
        _call(capsys, argv, {**inputs, **more})
        value = reports[0]["value"]
        assert reports[0]["outcome"] in ("value", "pass")
        assert json.loads(canonical_json(value)) == value

    def test_to_monoid_validates_once(self, capsys, inputs, monkeypatch):
        # the table read back equals the loaded one, which was validated
        # on loading, so no second presentation is built
        calls = []
        init = opalg.CommMonoidPresentation.__init__

        def counted(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(opalg.CommMonoidPresentation, "__init__", counted)
        code, _ = _call(capsys, ARGV["to-monoid"], inputs)
        assert code == 0 and len(calls) == 1

    def test_to_monoid_names_each_level_once(self, capsys, variant_inputs,
                                             monkeypatch):
        # the sums and the carrier of the report share one table of names
        # per level of the five-level monoid
        built = []
        init = PointNames.__init__

        def counted(self, points):
            built.append(points)
            init(self, points)

        monkeypatch.setattr(PointNames, "__init__", counted)
        code, _ = _call(capsys, ["to-monoid", "<monoid4>"], variant_inputs)
        assert code == 0 and len(built) == 5


# the call of each command with one hashed argument changed, keyed by
# (command, dest) and compared with GOLDEN's call of the command; a pair
# is a call of its own and its variant.  The element variants change only
# the point, which act, sum and chi left out of `inputs`
VARIANTS = {
    ("support", "element"): [
        "support", "--element", '{"level":2,"image":[1,3],"point":"b"}'],
    ("act", "injection"): [
        "act", "<inj2>", "<m2>",
        "--element", '{"level":2,"image":[1,2],"point":"p0"}'],
    ("act", "mset"): [
        "act", "<inj>", "<trivial>",
        "--element", '{"level":2,"image":[1,2],"point":"p0"}'],
    ("act", "element"): [
        "act", "<inj>", "<m2>",
        "--element", '{"level":2,"image":[1,2],"point":"p1"}'],
    ("box", "left"): ["box", "<m2>", "<m1>"],
    ("box", "right"): ["box", "<m1>", "<m2>"],
    ("decompose", "mset"): ["--window", "6", "decompose", "<m1>"],
    ("flat-check", "iset"): ["flat-check", "--mode", "both", "<rep>"],
    ("flat-check", "mode"): ["flat-check", "--mode", "latching", "<quot>"],
    ("flatten", "iset"): ["flatten", "<rep>"],
    ("day", "left"): ["day", "<quot>", "<rep>"],
    ("day", "right"): ["day", "<rep>", "<quot>"],
    ("canonicalize", "iset"): ["canonicalize", "<quot>"],
    ("n-iso", "morphism"): ["n-iso", "<eta2>"],
    ("sum", "monoid"): [
        "sum", "<monoid4>", "--x", '{"level":1,"image":[2],"point":"p0"}',
        "--y", '{"level":1,"image":[5],"point":"p1"}'],
    ("sum", "x"): [
        "sum", "<monoid>", "--x", '{"level":1,"image":[2],"point":"p1"}',
        "--y", '{"level":1,"image":[5],"point":"p1"}'],
    ("sum", "y"): [
        "sum", "<monoid>", "--x", '{"level":1,"image":[2],"point":"p0"}',
        "--y", '{"level":1,"image":[5],"point":"p0"}'],
    ("operad-act", "monoid"): [
        "operad-act", "<monoid4>", "<op>", "--args",
        '[{"level":1,"image":[1],"point":"p0"},'
        '{"level":1,"image":[1],"point":"p1"}]'],
    ("operad-act", "operad"): [
        "operad-act", "<monoid>", "<phi>", "--args",
        '[{"level":1,"image":[1],"point":"p0"},'
        '{"level":1,"image":[1],"point":"p1"}]'],
    ("operad-act", "args"): [
        "operad-act", "<monoid>", "<op>", "--args",
        '[{"level":1,"image":[1],"point":"p0"},'
        '{"level":1,"image":[1],"point":"p0"}]'],
    ("to-algebra", "monoid"): ["to-algebra", "<monoid4>"],
    ("to-monoid", "monoid"): ["to-monoid", "<monoid4>"],
    ("a3", "phi"): ["a3", "--phi", "<op>", "--psi", "<op>",
                    "--constraints", "[[],[]]", "--emit", "<emit>"],
    ("a3", "psi"): ["a3", "--phi", "<phi>", "--psi", "<phi>",
                    "--constraints", "[[],[]]", "--emit", "<emit>"],
    ("a3", "constraints"): ["a3", "--phi", "<phi>", "--psi", "<op>",
                            "--constraints", "[[1],[]]", "--emit", "<emit>"],
    # the certificate verified alone, with --phi and with its endpoints
    # swapped reported one digest while --phi and --psi were not hashed
    ("verify-cert", "certificate"): [
        "verify-cert", "<cert2>", "--phi", "<phi>", "--psi", "<op>"],
    ("verify-cert", "phi"): [
        "verify-cert", "<cert>", "--phi", "<op>", "--psi", "<op>"],
    ("verify-cert", "psi"): [
        "verify-cert", "<cert>", "--phi", "<phi>", "--psi", "<phi>"],
    ("chi", "operad"): [
        "chi", "<phi>", "<m1>", "<m1>",
        "--x", '{"level":1,"image":[2],"point":"p0"}',
        "--y", '{"level":1,"image":[1],"point":"p0"}'],
    ("chi", "left"): [
        "chi", "<op>", "<trivial>", "<m1>",
        "--x", '{"level":1,"image":[2],"point":"a"}',
        "--y", '{"level":1,"image":[1],"point":"p0"}'],
    ("chi", "right"): [
        "chi", "<op>", "<m1>", "<trivial>",
        "--x", '{"level":1,"image":[2],"point":"p0"}',
        "--y", '{"level":1,"image":[1],"point":"a"}'],
    # GOLDEN's carrier has one point at level 1, so these vary the point
    # on one with two
    ("chi", "x"): tuple(
        ["chi", "<op>", "<trivial>", "<trivial>",
         "--x", f'{{"level":1,"image":[2],"point":"{p}"}}',
         "--y", '{"level":1,"image":[1],"point":"a"}'] for p in "ab"),
    ("chi", "y"): tuple(
        ["chi", "<op>", "<trivial>", "<trivial>",
         "--x", '{"level":1,"image":[2],"point":"a"}',
         "--y", f'{{"level":1,"image":[1],"point":"{p}"}}'] for p in "ab"),
    ("xinf", "points"): ["xinf", "--points", "3", "--level", "4"],
    ("xinf", "level"): ["xinf", "--points", "2", "--level", "3"],
    ("wedge-iso", "x"): ["wedge-iso", "--x", "3", "--y", "3", "--level", "2"],
    ("wedge-iso", "y"): ["wedge-iso", "--x", "2", "--y", "2", "--level", "2"],
    ("wedge-iso", "level"): ["wedge-iso", "--x", "2", "--y", "3",
                             "--level", "1"],
    ("orbit-set", "mset"): ["orbit-set", "<m2>"],
    ("selftest", "seed"): ["selftest", "--seed", "6", "--cases", "1"],
    ("selftest", "cases"): ["selftest", "--seed", "5", "--cases", "2"],
}


def _with_global(name, flag, value):
    """GOLDEN's call of the command with the global flag set to value."""
    argv = ARGV[name]
    at = argv.index(name)  # after GOLDEN's own global flags
    return [*argv[:at], flag, value, *argv[at:]]


VARIANTS.update({
    (name, flag[2:].replace("-", "_")): _with_global(name, flag, value)
    for name in ARGV for flag, value in (
        ("--window", "7"), ("--degree-bound", "6"), ("--level-bound", "5"))})
# both runs end in DegreeTooLarge, each at its own bound, and reported
# the same inputs while selftest did not hash the bound
VARIANTS["selftest", "degree_bound"] = tuple(
    ["--degree-bound", bound, "selftest", "--seed", "5", "--cases", "3"]
    for bound in ("3", "4"))


@pytest.fixture()
def variant_inputs(inputs, tmp_path):
    """inputs with the further documents VARIANTS names."""
    write = _writer(tmp_path)
    _, eta = flat_replacement(representable_iset(1, 4))
    cert = opalg.certify_agreement(_reshuffled_interleave(),
                                   OperadElement(disjoint_lanes(2)),
                                   [set(), set()])
    return {
        **inputs,
        "inj2": write("inj2", "partial-injection",
                      PartialInjection({1: 3, 2: 1})),
        "trivial": write("trivial", "mset", CanonicalTameMSet(
            {1: trivial_sigma_set(1, ["a", "b"]),
             2: trivial_sigma_set(2, ["p0"])})),
        "eta2": write("eta2", "morphism", eta),
        "monoid4": write("monoid4", "monoid", infinite_symmetric_product(
            ["*", "a1", "a2"], "*", 4)),
        "cert2": write("cert2", "certificate", cert),
    }


def _subparsers():
    """The sub-command parsers by name."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestInputsDigest:
    def test_variants_cover_every_hashed_argument(self):
        hashed = {(name, action.dest) for name, p in _subparsers().items()
                  for action, spec in p.get_default("specs")
                  if spec.read is not cli.OUTPUT}
        assert set(VARIANTS) == hashed
        assert ("a3", "emit") not in hashed

    @pytest.mark.parametrize("key", list(VARIANTS),
                             ids=[f"{c}-{d}" for c, d in VARIANTS])
    def test_every_input_moves_inputs(self, capsys, variant_inputs, key):
        row = VARIANTS[key]
        calls = row if isinstance(row, tuple) else (ARGV[key[0]], row)
        digests = [json.loads(_call(capsys, argv, variant_inputs)[1])["inputs"]
                   for argv in calls]
        assert "" not in digests
        assert digests[0] != digests[1]

    def test_omitted_option_is_hashed_as_null(self, capsys, inputs):
        # an omitted optional argument is null, not left out: the same
        # document as --phi alone and as --psi alone are two inputs
        digests = [json.loads(_call(capsys, ["verify-cert", "<cert>", flag,
                                             "<op>"], inputs)[1])["inputs"]
                   for flag in ("--phi", "--psi")]
        assert digests[0] != digests[1]


def _integer_arguments():
    """(command, flags, minimum) of every integer argument; the command
    of a global flag is None."""
    specs = [(None, spec) for spec in cli.GLOBAL_ARGUMENTS]
    specs += [(c.name, spec) for c in cli.COMMANDS for spec in c.arguments]
    return [(name, spec.flags, spec.minimum) for name, spec in specs
            if spec.kwargs.get("type") is int]


# one call per integer argument with a minimum, "{}" standing for its
# value; the other arguments are small valid values
BOUNDED = {
    (None, "--window"): ["--window", "{}", "xinf", "--points", "2"],
    (None, "--degree-bound"): ["--degree-bound", "{}",
                               "wedge-iso", "--level", "0"],
    (None, "--level-bound"): ["--level-bound", "{}", "xinf", "--points", "2"],
    ("xinf", "--points"): ["xinf", "--points", "{}"],
    ("xinf", "--level"): ["xinf", "--points", "2", "--level", "{}"],
    ("wedge-iso", "--x"): ["wedge-iso", "--x", "{}", "--level", "0"],
    ("wedge-iso", "--y"): ["wedge-iso", "--y", "{}", "--level", "0"],
    ("wedge-iso", "--level"): ["wedge-iso", "--level", "{}"],
    ("selftest", "--cases"): ["selftest", "--cases", "{}"],
}
MINIMA = {(name, flags[0]): minimum
          for name, flags, minimum in _integer_arguments()}


class TestArgumentMinima:
    def test_every_integer_argument_declares_a_minimum(self):
        # any integer seeds the random streams
        assert [key for key, minimum in MINIMA.items() if minimum is None] == [
            ("selftest", "--seed")]
        assert MINIMA == {
            (None, "--window"): 0, (None, "--degree-bound"): 0,
            (None, "--level-bound"): 0, ("xinf", "--points"): 1,
            ("xinf", "--level"): 0, ("wedge-iso", "--x"): 1,
            ("wedge-iso", "--y"): 1, ("wedge-iso", "--level"): 0,
            ("selftest", "--seed"): None, ("selftest", "--cases"): 1,
        }
        assert set(BOUNDED) == {k for k, m in MINIMA.items() if m is not None}

    @pytest.mark.parametrize("key", list(BOUNDED),
                             ids=[f"{c or 'global'}{f}" for c, f in BOUNDED])
    def test_minimum_is_accepted_and_one_less_is_an_input_error(self, capsys,
                                                                key):
        minimum = MINIMA[key]
        argv = BOUNDED[key]
        code, rep = run(capsys, *[a.format(minimum - 1) for a in argv])
        assert (code, rep["outcome"]) == (2, "error")
        assert rep["error"]["type"] == "ValidationError"
        assert key[1] in rep["error"]["message"]
        code, rep = run(capsys, *[a.format(minimum) for a in argv])
        assert code == 0 and rep["outcome"] != "error"

    @pytest.mark.parametrize("argv", [
        ["wedge-iso", "--level", "-1"],
        ["wedge-iso", "--x", "0"],
        ["xinf", "--points", "0"],
        ["--level-bound", "-1", "xinf", "--points", "2"],
        ["--degree-bound", "-3", "wedge-iso", "--level", "2"],
    ], ids=["wedge-level", "wedge-x", "xinf-points", "level-bound",
            "degree-bound"])
    def test_out_of_range_is_rejected_before_dispatch(self, capsys, argv):
        # these used to run: wedge-iso --level -1 passed on an empty
        # comparison, xinf --points 0 built one point, and level bound -1
        # failed deep inside with ValidationFailed
        code, rep = run(capsys, *argv)
        assert code == 2
        assert rep["inputs"] == ""
        assert rep["error"]["type"] == "ValidationError"


# Reports past the degree bound of the golden set, and of a class first
# seen above its support.  The corpus (`corpus.py`) compares these
# reports under two hash seeds; here they run once, for what they hold.

def test_degree_nine_box_reaches_levels_five_and_six(capsys, workspace):
    _, write = workspace
    m = write("m.json", "mset", box_factor())
    code, rep = run(capsys, "--degree-bound", "9", "box", m, m)
    assert code == 0
    assert {"5", "6"} <= set(rep["value"]["payload"]["levels"])


@pytest.mark.parametrize("argv", [
    ["xinf", "--points", "3", "--level", "8"],
    ["wedge-iso", "--x", "2", "--y", "2", "--level", "8"],
    ["--level-bound", "8", "xinf", "--points", "3"],
], ids=["xinf", "wedge-iso", "level-bound"])
def test_levels_past_the_degree_bound_are_refused(capsys, argv):
    # every level up to the one asked for is built, each doubling the
    # cost; past the degree bound (7 by default) nothing is built, and
    # a raised bound lets the level through
    code, rep = run(capsys, *argv)
    assert (code, rep["error"]["type"]) == (2, "DegreeTooLarge")
    code, rep = run(capsys, "--degree-bound", "8", *argv)
    assert code == 0 and rep["outcome"] != "error"


@pytest.mark.parametrize("command", ["canonicalize", "flatten"])
def test_class_first_seen_above_its_support(capsys, workspace, command):
    # late_pairs with string points: not flat, and the class of the
    # pair {1, 2}, supported there, is first seen at level 3
    _, write = workspace
    Y = named_late_pairs(6)
    assert not is_flat(Y).flat
    code, rep = run(capsys, command, write("late.json", "iset", Y))
    assert code == 0 and rep["outcome"] != "error"
