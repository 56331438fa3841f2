import argparse
import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import quantales
from quantales import cli
from quantales import fileformats as ff
from quantales.cli import main
from quantales.examples import (MATRIX_MAX_N, cyclic_group,
                                delta_embedding_map, group_powerset_quantale,
                                omega_quantale, omega_support_map,
                                rel_quantale, sierpinski_closed_point_map,
                                standard_map_corpus, symmetric_group_3,
                                z2_group_algebra_finite_map)
from quantales.fileformats import FormatError
from quantales.openness import frobenius_report
from quantales.quantale import QuantaleMap, Undecidable, identity_map
from quantales.suplattice import FiniteSupLattice

from _helpers import full_form_doc


PZ2 = group_powerset_quantale(cyclic_group(2))


def test_lattice_roundtrip():
    doc = ff.lattice_to_doc(PZ2.carrier)
    assert ff.lattice_from_doc(doc) == PZ2.carrier


def test_quantale_roundtrip():
    doc = ff.quantale_to_doc(PZ2)
    again = ff.quantale_from_doc(doc)
    assert again == PZ2


def test_map_roundtrip():
    p = omega_support_map(PZ2)
    doc = ff.map_to_doc(p)
    again = ff.map_from_doc(doc)
    assert again.source == p.source and again.target == p.target
    assert again.inverse_table() == p.inverse_table()
    assert again.name == p.name


def test_relation_roundtrip():
    doc = {"pairs": [[0, 3], [1, 2]]}
    again = ff.relation_from_doc(doc, PZ2)
    assert again.pairs == frozenset({(1, 2), (0, 3)})


def test_reflexive_pairs_may_be_omitted():
    doc = {"elements": ["0", "1"], "leq": [[0, 1]]}
    lat = ff.lattice_from_doc(doc)
    assert lat.leq(0, 0) and lat.leq(1, 1) and lat.leq(0, 1)


def test_format_errors():
    with pytest.raises(FormatError):
        ff.lattice_from_doc({"leq": []})
    with pytest.raises(FormatError):
        ff.lattice_from_doc({"elements": ["0"], "leq": [[0, 5]]})
    with pytest.raises(FormatError):
        ff.quantale_from_doc({"lattice": ff.lattice_to_doc(PZ2.carrier),
                              "mult": [[0, 0, 0]], "inv": []})
    with pytest.raises(FormatError):
        ff.sniff_kind({"weird": 1})
    assert ff.sniff_kind({"pairs": []}) == "relation"
    doc = ff.map_to_doc(omega_support_map(PZ2))
    for name in (5, ["x"]):
        with pytest.raises(FormatError, match="'name' must be str"):
            ff.map_from_doc({**doc, "name": name})


@pytest.mark.parametrize("entry, message", [
    ([0, 1, True], "mult triple [0, 1, True] out of range"),
    ([1.0, 0, 0], "mult triple [1.0, 0, 0] out of range"),
    ([0, -1, 0], "mult triple [0, -1, 0] out of range"),
    ([4, 0, 0], "mult triple [4, 0, 0] out of range"),
    ([0, 1], "mult entries must be triples"),
    ([0, 0, 0], "duplicate mult entry for (0,0)"),
], ids=["true", "float", "negative", "n", "pair", "duplicate"])
def test_malformed_mult_entries_are_named(entry, message):
    # P(Z/2) has n = 4 elements; the duplicate entry is added to its
    # full table, the others replace the second entry
    doc = full_form_doc(PZ2)
    if entry == [0, 0, 0]:
        doc["mult"].append(entry)
    else:
        doc["mult"][1] = entry
    with pytest.raises(FormatError) as err:
        ff.quantale_from_doc(doc)
    assert str(err.value) == message


def test_effective_maps_are_not_serializable():
    from quantales.examples import matrix_support_map
    with pytest.raises(FormatError):
        ff.map_to_doc(matrix_support_map(2))


@pytest.fixture()
def files(tmp_path):
    qpath = tmp_path / "pz2.quantale.json"
    ff.save_json(qpath, ff.quantale_to_doc(PZ2))
    rpath = tmp_path / "rel.json"
    ff.save_json(rpath, {"pairs": [[1, 2]]})
    mpath = tmp_path / "omega-support.map.json"
    ff.save_json(mpath, ff.map_to_doc(omega_support_map(PZ2)))
    fpath = tmp_path / "delta.map.json"
    ff.save_json(fpath, ff.map_to_doc(delta_embedding_map(2)))
    return tmp_path


def test_cli_validate_ok(files):
    assert main(["validate", str(files / "pz2.quantale.json")]) == 0


def test_cli_validate_violation_and_replay(files, capsys):
    doc = ff.load_json(files / "pz2.quantale.json")
    for triple in doc["mult"]:
        if triple[:2] == [1, 2]:
            triple[2] = 1
    bad = files / "broken.quantale.json"
    ff.save_json(bad, doc)
    report = files / "broken.report.json"
    assert main(["validate", str(bad), "--report", str(report)]) == 1
    assert main(["report-verify", str(report)]) == 0


def test_cli_validate_malformed_json(files, capsys):
    # bytes that are not UTF-8 and nesting past the decoder's recursion
    # limit once ended in a traceback and exit code 1
    for name, data in (("bad.json", b"{not json"),
                       ("latin1.json", b'\xff{"a":1}'),
                       ("deep.json", b"[" * 200_000 + b"]" * 200_000)):
        bad = files / name
        bad.write_bytes(data)
        for argv in (["validate", str(bad)], ["check-map", "--map", str(bad)],
                     ["report-verify", str(bad)]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith(f"error: {bad}: "), argv
        with pytest.raises(FormatError, match=name):
            ff.load_json(bad)


def _with_boolean(doc, key, value):
    # the first entry of `key` whose last index equals the boolean's
    # integer value, rewritten as that boolean
    entry = next(e for e in doc[key] if e[-1] == int(value))
    entry[-1] = value
    return doc


@pytest.mark.parametrize("edit", [
    lambda d: {**d, "unit": True},
    lambda d: _with_boolean(d, "mult", True),
    lambda d: _with_boolean(d, "mult", False),
    lambda d: _with_boolean(d, "inv", True),
    lambda d: {**d, "lattice": _with_boolean(d["lattice"], "leq", True)},
], ids=["unit", "mult-true", "mult-false", "inv", "leq"])
def test_cli_validate_rejects_booleans_as_element_indices(edit, files):
    # JSON true and false are not indices, although Python's bool is an
    # int; the full table has entries 0 and 1 in every position
    doc = full_form_doc(PZ2)
    assert doc["unit"] == 1
    bad = files / "bool.quantale.json"
    ff.save_json(bad, edit(doc))
    assert main(["validate", str(bad)]) == 2


def test_cli_check_map(files):
    mpath = str(files / "omega-support.map.json")
    assert main(["check-map", "--map", mpath, "--fr1", "--fr2", "--wos"]) == 0
    report = files / "cm.json"
    assert main(["check-map", "--map", mpath, "--report", str(report)]) == 0
    doc = ff.load_json(report)
    assert doc["verdict"] == "pass"
    assert {c["check"] for c in doc["checks"]} >= {"semiopen", "fr1", "fr2"}


def test_cli_check_map_fr1_violation(files):
    mpath = files / "sierpinski.map.json"
    ff.save_json(mpath, ff.map_to_doc(sierpinski_closed_point_map()))
    report = files / "sp.json"
    assert main(["check-map", "--map", str(mpath), "--fr1",
                 "--report", str(report)]) == 1
    assert main(["report-verify", str(report)]) == 0


def test_cli_check_map_wos_needs_a_unit(files):
    doc = ff.map_to_doc(omega_support_map(PZ2))
    del doc["target"]["unit"]
    mpath = files / "nounit.map.json"
    ff.save_json(mpath, doc)
    assert main(["check-map", "--map", str(mpath), "--wos"]) == 2


def _not_semiopen_map():
    # p* = (0, 1, 1, 1) from P(Z/2) to Omega does not preserve the meet
    # {e} and {g}, so it has no left adjoint
    return QuantaleMap.from_table(omega_quantale(), PZ2, (0, 1, 1, 1),
                                  name="not-semiopen")


@pytest.mark.parametrize("flags", [["--fr1"], ["--fr1-right"], ["--fr2"],
                                   ["--wos"], ["--fr2", "--locale-meet"]])
def test_cli_check_map_fails_checks_it_cannot_run(files, flags, capsys):
    # a requested check that needs p_! fails with the semiopen check when
    # p_! does not exist; it once exited 0 with verdict "pass"
    mpath = files / "ns.map.json"
    ff.save_json(mpath, ff.map_to_doc(_not_semiopen_map()))
    report = files / "ns.json"
    assert main(["check-map", "--map", str(mpath), *flags,
                 "--report", str(report)]) == 1
    assert "remaining checks skipped" in capsys.readouterr().out
    doc = ff.load_json(report)
    assert doc["verdict"] == "violation"
    assert [(c["check"], c["ok"]) for c in doc["checks"]] == \
        [("semiopen", False)]
    assert main(["report-verify", str(report)]) == 0


FINITE_CORPUS = dict(standard_map_corpus(include_effective=False))


@pytest.mark.parametrize("name", FINITE_CORPUS)
def test_cli_check_map_reports_the_frobenius_battery(files, name):
    mpath = files / f"{name}.map.json"
    ff.save_json(mpath, ff.map_to_doc(FINITE_CORPUS[name]))
    report = files / f"{name}.json"
    main(["check-map", "--map", str(mpath), "--semiopen", "--fr1",
          "--fr1-right", "--fr2", "--wos", "--pool", "7", "--seed", "3",
          "--report", str(report)])
    doc = ff.load_json(report)
    rep = frobenius_report(ff.map_from_doc(doc["inputs"]["map"]["doc"]))
    battery = {c["check"]: c for c in rep.to_json()["checks"]}
    for chk in doc["checks"]:
        if chk["check"] == "wos":
            assert (chk["ok"], chk["unit_identity"], chk["surjective"]) == \
                (rep.wos_consistent, rep.unit_identity, rep.surjective), name
        else:
            assert chk == battery[chk["check"]], name
    if rep.semiopen.ok:
        assert doc["surjective"] == rep.surjective
        assert [c["check"] for c in doc["checks"]] == \
            ["semiopen", "fr1", "fr1_right", "fr2", "wos"]


@pytest.mark.parametrize("make,flags", [
    (lambda: omega_support_map(PZ2), ["--fr1", "--wos"]),
    (lambda: omega_support_map(PZ2), ["--fr2", "--locale-meet"]),
    (lambda: identity_map(PZ2), ["--locale-meet"])])
def test_cli_check_map_lemma_input_errors(files, make, flags):
    # --wos needs a unital target and --locale-meet two locales
    doc = ff.map_to_doc(make())
    if "--wos" in flags:
        del doc["target"]["unit"]
    mpath = files / "m.map.json"
    ff.save_json(mpath, doc)
    report = files / "m.json"
    assert main(["check-map", "--map", str(mpath), *flags,
                 "--report", str(report)]) == 2
    assert not report.exists()


@pytest.mark.parametrize("example", [["rel", "--n", "4"],
                                     ["delta-embedding", "--n", "4"],
                                     ["matrix-max", "--n", "0"],
                                     ["matrix-max", "--n",
                                      str(MATRIX_MAX_N + 1)]])
def test_cli_example_out_of_range_is_an_input_error(example, tmp_path,
                                                     capsys):
    # only a materialized example takes --out
    out = [] if example[0] == "matrix-max" else ["--out", str(tmp_path)]
    assert main(["example", *example, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # the message names what was asked for
    subject = "matrix algebras" if example[0] == "matrix-max" else \
        "relation quantales"
    assert subject in err


def test_cli_pullback_verify_rejects_maps_of_different_targets(tmp_path,
                                                               capsys):
    out = str(tmp_path)
    assert main(["example", "locale", "--which", "sierpinski",
                 "--out", out]) == 0
    assert main(["example", "delta-embedding", "--n", "2", "--out", out]) == 0
    report = tmp_path / "pb.json"
    assert main(["pullback-verify",
                 "--p", str(tmp_path / "locale-sierpinski.map.json"),
                 "--f", str(tmp_path / "delta-embedding-2.map.json"),
                 "--report", str(report)]) == 2
    assert capsys.readouterr().err == \
        "error: p and f must share their target\n"
    assert not report.exists()


def test_cli_quotient(files):
    out = files / "quot.json"
    report = files / "quot.report.json"
    assert main(["quotient", "--quantale", str(files / "pz2.quantale.json"),
                 "--relation", str(files / "rel.json"),
                 "--out", str(out), "--report", str(report)]) == 0
    q = ff.quantale_from_doc(ff.load_json(out))
    assert q.size == 2
    rep = ff.load_json(report)
    assert rep["quotient"]["size"] == 2
    assert rep["quotient"]["hom"] == [0, 1, 1, 1]


def test_cli_quotient_names_the_first_pair_out_of_range(files, capsys):
    # RelationPresentation checks the range once; the loader names its
    # first bad pair in the order of the document, as an input error
    ff.save_json(files / "rel.json", {"pairs": [[1, 2], [0, 9], [-1, 0]]})
    assert main(["quotient", "--quantale", str(files / "pz2.quantale.json"),
                 "--relation", str(files / "rel.json")]) == 2
    assert capsys.readouterr().err == \
        "error: relation pair (0,9) out of range\n"


def test_the_exit_code_and_verdict_are_read_off_the_checks(files,
                                                           monkeypatch,
                                                           capsys):
    # a handler that records a failed check and returns as it would on
    # success still makes the command fail
    quotient = cli.cmd_quotient

    def failing(args, report):
        result = quotient(args, report)
        report.add_check({"check": "x", "ok": False})
        return result

    monkeypatch.setattr(cli, "cmd_quotient", failing)
    report = files / "quot.report.json"
    assert main(["quotient", "--quantale", str(files / "pz2.quantale.json"),
                 "--relation", str(files / "rel.json"),
                 "--report", str(report)]) == 1
    assert ff.load_json(report)["verdict"] == "violation"
    # report-verify finds one problem in the report: no rule replays "x"
    capsys.readouterr()
    assert main(["report-verify", str(report)]) == 1
    assert "replayed 0 witnesses, 1 problems" in capsys.readouterr().out


def test_cli_tensor(files, tmp_path):
    two = tmp_path / "two.lattice.json"
    ff.save_json(two, ff.lattice_to_doc(omega_quantale().carrier))
    assert main(["tensor", "--lattices", str(two), str(two)]) == 0


def test_cli_tensor_of_two_three_atom_boolean_lattices(tmp_path, capsys):
    # 512 bi-ideals on each side of the symmetry check, in about a second
    bool3 = tmp_path / "bool3.lattice.json"
    ff.save_json(bool3, ff.lattice_to_doc(FiniteSupLattice.powerset(3)))
    assert main(["tensor", "--lattices", str(bool3), str(bool3)]) == 0
    out = capsys.readouterr().out
    assert "tensor of [8, 8] has 512 elements" in out
    assert "symmetry bijection onto the reversed tensor: True" in out


def test_cli_tensor_past_its_bound_is_an_input_error(tmp_path, capsys):
    # it once exited 2 with a report whose failed tensor-enumeration check
    # report-verify could not replay
    two = tmp_path / "two.lattice.json"
    ff.save_json(two, ff.lattice_to_doc(omega_quantale().carrier))
    report = tmp_path / "tensor.report.json"
    assert main(["tensor", "--lattices", str(two), str(two), "--bound", "3",
                 "--report", str(report)]) == 2
    assert "error: grid of 4 tuples exceeds the enumeration bound 3" in \
        capsys.readouterr().err
    assert not report.exists()
    for bound in ("0", "-1"):
        assert main(["tensor", "--lattices", str(two), str(two),
                     "--bound", bound, "--report", str(report)]) == 2
        assert "usage:" in capsys.readouterr().err
        assert not report.exists()
    assert main(["tensor", "--lattices", str(two), str(two), "--bound", "4",
                 "--report", str(report)]) == 0


def test_cli_pullback_verify_and_report(files):
    report = files / "pb.json"
    code = main(["pullback-verify", "--p", str(files / "omega-support.map.json"),
                 "--f", str(files / "delta.map.json"),
                 "--maxlen", "3", "--traces", "4",
                 "--report", str(report)])
    assert code == 0
    doc = ff.load_json(report)
    assert doc["verdict"] == "pass"
    rc = next(c for c in doc["checks"]
              if c["check"] == "relation-compatibility")
    assert set(rc["families"]) == {"standalone", "head_q", "head_y", "tail_q",
                                   "tail_y", "mid_qq", "mid_yq", "mid_qy",
                                   "mid_yy"}
    adj = next(c for c in doc["checks"] if c["check"] == "adjunction-on-words")
    assert adj["traces"] and len(adj["traces"]) <= 4
    assert main(["report-verify", str(report)]) == 0


@pytest.mark.parametrize("maxlen", ["0", "2"])
def test_cli_pullback_verify_rejects_a_maxlen_below_the_longest_core(
        files, maxlen):
    # such a bound once printed "ok (0 instances over 9 families)"
    assert main(["pullback-verify", "--p", str(files / "omega-support.map.json"),
                 "--f", str(files / "delta.map.json"),
                 "--maxlen", maxlen]) == 2


@pytest.mark.parametrize("argv", [
    ["pullback-verify", "--p", "{files}/omega-support.map.json",
     "--f", "{files}/delta.map.json", "--traces", "-1"],
    ["check-map", "--map", "{files}/omega-support.map.json", "--wos",
     "--pool", "0"],
    ["check-map", "--map", "{files}/omega-support.map.json", "--wos",
     "--pool", "-5"],
    ["example", "group-algebra", "--group", "z2", "--pool", "0"],
    ["example", "matrix-max", "--n", "2", "--pool", "-5"],
    ["check-map", "--map", "{files}/omega-support.map.json", "--pool", "x"],
], ids=["traces-1", "check-map-pool0", "check-map-pool-5",
        "example-pool0", "example-pool-5", "pool-not-an-integer"])
def test_cli_counts_below_their_least_value_are_usage_errors(files, capsys,
                                                             argv):
    # --traces -1 once ended in an islice traceback, and check-map --pool 0
    # wrote a wos record that report-verify refused as having no pool
    report = files / "count.report.json"
    argv = [a.format(files=files) for a in argv] + ["--report", str(report)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and argv[argv.index("--report") - 2] in err
    assert not report.exists()


def test_cli_pullback_verify_rejects_bad_base(files, tmp_path):
    # the sierpinski map fails the hypothesis, so the run reports a violation
    mpath = tmp_path / "sp.map.json"
    ff.save_json(mpath, ff.map_to_doc(sierpinski_closed_point_map()))
    omega_target = tmp_path / "omega-id.map.json"
    om = omega_quantale()
    three = sierpinski_closed_point_map().target
    ident = QuantaleMap.from_table(three, three, tuple(three.elements),
                                   name="id")
    ff.save_json(omega_target, ff.map_to_doc(ident))
    assert main(["pullback-verify", "--p", str(mpath),
                 "--f", str(omega_target)]) == 1


def test_cli_example_materializations(tmp_path):
    out = str(tmp_path)
    assert main(["example", "rel", "--n", "2", "--out", out]) == 0
    assert main(["example", "group", "--group", "z3", "--out", out]) == 0
    assert main(["example", "locale", "--which", "two-point",
                 "--out", out]) == 0
    assert main(["example", "omega-support", "--group", "z2",
                 "--out", out]) == 0
    assert main(["example", "delta-embedding", "--n", "2", "--out", out]) == 0
    q = ff.quantale_from_doc(ff.load_json(tmp_path / "rel2.quantale.json"))
    assert q == rel_quantale(2)


def test_cli_example_suites(tmp_path):
    report = tmp_path / "ga.json"
    assert main(["example", "group-algebra", "--group", "z2",
                 "--report", str(report)]) == 0
    doc = ff.load_json(report)
    fr2 = next(c for c in doc["frobenius"]["checks"] if c["check"] == "fr2")
    assert not fr2["ok"] and fr2["witness"]
    assert main(["report-verify", str(report)]) == 0
    assert main(["example", "matrix-max", "--n", "2", "--pool", "12"]) == 0


def test_effective_examples_name_no_seed_that_nothing_used(tmp_path,
                                                            monkeypatch):
    report = tmp_path / "mm.json"
    argv = ["example", "matrix-max", "--n", "2", "--pool", "30", "--seed",
            "7", "--report", str(report)]
    assert main(argv) == 0
    doc = ff.load_json(report)
    assert "seed" not in doc
    assert all(c["mode"] == "decided" and "pool" not in c and "seed" not in c
               for c in doc["frobenius"]["checks"])
    assert main(["report-verify", str(report)]) == 0
    # without its groupoid the suite is refused rather than sampled, and
    # the report is left as it was
    written = report.read_bytes()
    decided = cli._example_map
    monkeypatch.setattr(cli, "_example_map",
                        lambda e: replace(decided(e), groupoid=None))
    with pytest.raises(Undecidable):
        main(argv)
    assert report.read_bytes() == written


def test_check_map_names_no_seed_that_nothing_used(tmp_path, capsys):
    # every check on the Z/2 fragment is swept exhaustively, and so is the
    # battery that the wos entry's replay reruns
    mpath = tmp_path / "frag.map.json"
    ff.save_json(mpath, ff.map_to_doc(z2_group_algebra_finite_map()))
    report = tmp_path / "frag.json"
    assert main(["check-map", "--map", str(mpath), "--fr1", "--fr1-right",
                 "--fr2", "--wos", "--seed", "5", "--report",
                 str(report)]) == 1
    doc = ff.load_json(report)
    assert "seed" not in doc
    laws = [c for c in doc["checks"] if c["check"] != "wos"]
    assert [c["check"] for c in laws] == ["fr1", "fr1_right", "fr2"]
    assert all(c["mode"] == "exhaustive" and "pool" not in c
               and "seed" not in c for c in laws)
    wos = next(c for c in doc["checks"] if c["check"] == "wos")
    assert "pool" not in wos and "seed" not in wos
    assert main(["report-verify", str(report)]) == 0
    # the failing fr2 record in the older, sampled form replays as it did
    fr2 = laws[2]
    assert not fr2["ok"]
    fr2.update({"mode": "sampled", "pool": 50, "seed": 0})
    doc["seed"] = 0
    edited = tmp_path / "edited.json"
    ff.save_json(edited, doc)
    capsys.readouterr()
    assert main(["report-verify", str(edited)]) == 0
    assert "replayed 1 witnesses, 0 problems" in capsys.readouterr().out
    # a wos failure is replayed by rerunning the battery, with or without
    # the pool and seed that records of the older format carry, beside
    # that fr2 record
    wos["ok"] = False
    for record in ({}, {"pool": 50, "seed": 5}):
        wos.update(record)
        ff.save_json(edited, doc)
        capsys.readouterr()
        assert main(["report-verify", str(edited)]) == 1
        out = capsys.readouterr().out
        assert "replayed 2 witnesses, 1 problems" in out
        assert "wos: recorded failure does not replay" in out


# element names that JSON must escape: non-ASCII, a quote, a backslash and
# U+2028, which ensure_ascii writes as \u2028
ESCAPED = ["\u2205 \u00e9", 'e"q', "g\\h", "top\u2028x"]


def _escaped_quantale_doc():
    doc = ff.quantale_to_doc(PZ2)
    doc["lattice"]["elements"] = list(ESCAPED)
    return doc


def _report_inputs(name, tmp_path):
    """argv (without --report) of a report-writing command and its inputs."""
    def save(fname, doc):
        ff.save_json(tmp_path / fname, doc)
        return str(tmp_path / fname)

    # validate names each input by its path, which is then a JSON key
    q = save('q "\u00e9".json', _escaped_quantale_doc())
    two = ff.lattice_to_doc(omega_quantale().carrier)
    two["elements"] = ESCAPED[2:]
    lat = save("two.json", two)
    pmap = ff.map_to_doc(omega_support_map(PZ2))
    pmap["source"] = _escaped_quantale_doc()
    p = save("p.json", pmap)
    return {
        "validate": ["validate", q, lat],
        "check-map": ["check-map", "--map", p],
        "quotient": ["quotient", "--quantale", q, "--relation",
                     save("rel.json", {"pairs": [[1, 2]]})],
        "tensor": ["tensor", "--lattices", lat, lat],
        "pullback-verify": ["pullback-verify", "--p", p, "--f", save(
            "f.json", ff.map_to_doc(delta_embedding_map(2)))],
        "example": ["example", "matrix-max", "--n", "2", "--pool", "12"],
    }[name]


def _file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", ["validate", "check-map", "quotient",
                                  "tensor", "pullback-verify", "example"])
def test_files_hold_the_canonical_text_that_doc_sha256_digests(name,
                                                               tmp_path):
    argv = _report_inputs(name, tmp_path)
    report = tmp_path / "r.json"
    assert main([*argv, "--report", str(report)]) == 0
    text = report.read_text(encoding="utf-8")
    loaded = ff.load_json(report)
    assert text == ff.canonical_json(loaded) + "\n"
    inputs = loaded["inputs"]
    assert len(inputs) == {"validate": 2, "check-map": 1, "quotient": 2,
                           "tensor": 1, "pullback-verify": 2,
                           "example": 0}[name]
    for entry in inputs.values():
        assert entry["doc_sha256"] == ff.doc_digest(entry["doc"])
        assert entry["sha256"] == _file_sha256(entry["path"])
        # an input saved here is that canonical text and a newline
        with open(entry["path"], encoding="utf-8") as fh:
            on_disk = fh.read()
        assert on_disk == ff.canonical_json(entry["doc"]) + "\n"
        assert entry["doc_sha256"] == hashlib.sha256(
            on_disk[:-1].encode("utf-8")).hexdigest()
    # every command given inputs here embeds one with the escaped names
    assert ("\\u2028" in text) == bool(inputs)
    assert main(["report-verify", str(report)]) == 0


def test_an_input_file_is_opened_once_for_its_document_and_sha256(
        tmp_path, monkeypatch):
    # the file is replaced right after it is first opened: its recorded
    # sha256 is still the digest of the bytes its embedded document was
    # parsed from, because nothing opens it again
    path = tmp_path / "pz2.quantale.json"
    ff.save_json(path, ff.quantale_to_doc(PZ2))
    parsed = path.read_bytes()
    other = tmp_path / "omega.quantale.json"
    ff.save_json(other, ff.quantale_to_doc(omega_quantale()))
    real_open, opened = open, []

    def spying_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if os.fspath(file) == str(path):
            opened.append(file)
            if len(opened) == 1:
                os.replace(other, path)  # the open handle keeps the old file
        return fh

    monkeypatch.setattr("builtins.open", spying_open)
    report = tmp_path / "r.json"
    assert main(["validate", str(path), "--report", str(report)]) == 0
    assert len(opened) == 1
    entry = ff.load_json(report)["inputs"][str(path)]
    assert entry["sha256"] == hashlib.sha256(parsed).hexdigest()
    assert entry["doc"] == ff.quantale_to_doc(PZ2)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_a_report_that_cannot_be_written_is_an_input_error(where, files,
                                                           capsys):
    # the checks pass, so a traceback and exit 1 read as a violation
    report = files / "no-such-dir" / "r.json" if where == "missing-directory" \
        else files
    qpath = str(files / "pz2.quantale.json")
    assert main(["validate", qpath, "--report", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "  quantale: ok"
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (files / "no-such-dir").exists()


# argv, with {d} for the directory of the `files` fixture; the output, and
# the file it would overwrite
@pytest.mark.parametrize("argv, output, clobbered", [
    ("validate {d}/pz2.quantale.json --report {d}/pz2.quantale.json",
     "pz2.quantale.json", "pz2.quantale.json"),
    ("validate {d}/rel.json {d}/pz2.quantale.json --report "
     "{d}/pz2.quantale.json", "pz2.quantale.json", "pz2.quantale.json"),
    ("check-map --map {d}/omega-support.map.json --report "
     "{d}/omega-support.map.json", "omega-support.map.json",
     "omega-support.map.json"),
    ("quotient --quantale {d}/pz2.quantale.json --relation {d}/rel.json "
     "--out {d}/pz2.quantale.json", "pz2.quantale.json", "pz2.quantale.json"),
    ("quotient --quantale {d}/pz2.quantale.json --relation {d}/rel.json "
     "--out {d}/rel.json", "rel.json", "rel.json"),
    ("quotient --quantale {d}/pz2.quantale.json --relation {d}/rel.json "
     "--out {d}/q.json --report {d}/q.json", "q.json", "q.json"),
    ("pullback-verify --p {d}/omega-support.map.json --f {d}/delta.map.json "
     "--report {d}/delta.map.json", "delta.map.json", "delta.map.json"),
    ("tensor --lattices {d}/pz2.quantale.json {d}/pz2.quantale.json "
     "--report {d}/pz2.quantale.json", "pz2.quantale.json",
     "pz2.quantale.json"),
    ("example group --group z2 --out {d}/sub --report "
     "{d}/sub/p-z2.quantale.json", "sub/p-z2.quantale.json",
     "sub/p-z2.quantale.json"),
])
def test_an_output_that_would_overwrite_an_input_is_refused(
        argv, output, clobbered, files, capsys):
    (files / "sub").mkdir()
    (files / "sub" / "p-z2.quantale.json").write_bytes(b"{}")
    before = {p: p.read_bytes() for p in files.rglob("*") if p.is_file()}
    assert main(argv.format(d=files).split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(files / output) in err and str(files / clobbered) in err
    assert {p: p.read_bytes() for p in files.rglob("*")
            if p.is_file()} == before


@pytest.mark.parametrize("suite", [["matrix-max", "--n", "2"],
                                   ["group-algebra", "--group", "z2"]])
def test_out_on_a_suite_example_is_refused(suite, tmp_path, capsys):
    # a suite example writes no file, so --out would be ignored
    report = tmp_path / "r.json"
    assert main(["example", *suite, "--out", str(tmp_path / "d"),
                 "--report", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: example {suite[0]} runs its suite and writes no "
                   "file; --out is not accepted\n")
    assert list(tmp_path.iterdir()) == []


def test_an_output_is_compared_with_the_inputs_by_its_real_path(files):
    q = files / "pz2.quantale.json"
    before = q.read_bytes()
    (files / "link.json").symlink_to(q)
    for report in (files / "sub" / ".." / q.name, files / "link.json"):
        assert main(["validate", str(q), "--report", str(report)]) == 2
        assert q.read_bytes() == before
    assert main(["validate", str(q), "--report",
                 str(files / "other.json")]) == 0
    assert q.read_bytes() == before


def test_a_document_that_cannot_be_serialized_leaves_the_file_alone(
        tmp_path):
    path = tmp_path / "q.json"
    ff.save_json(path, ff.quantale_to_doc(PZ2))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        ff.save_json(path, {"pairs": {(1, 2)}})
    assert path.read_bytes() == before
    with pytest.raises(TypeError):
        ff.save_json(tmp_path / "new.json", {"pairs": {(1, 2)}})
    assert not (tmp_path / "new.json").exists()
    # the report writer serializes every piece, embedded inputs included,
    # before it opens the file
    good = {"path": str(path), "sha256": _file_sha256(path),
            "doc": ff.quantale_to_doc(PZ2)}
    for report in ({"inputs": {"a": good, "b": {**good, "doc": {1j: 0}}}},
                   {"inputs": {"a": good}, "checks": [{"ok": {1, 2}}]},
                   {"inputs": {"a": {**good, "doc": {"pairs": {(1, 2)}}}}}):
        with pytest.raises(TypeError):
            ff.save_report(path, report)
        assert path.read_bytes() == before
        with pytest.raises(TypeError):
            ff.save_report(tmp_path / "new.json", report)
        assert not (tmp_path / "new.json").exists()


class _CutShort(list):
    """Pieces of a file whose writing stops after the first piece."""

    def __iter__(self):
        yield self[0]
        raise KeyboardInterrupt


@pytest.mark.parametrize("save", ["save_json", "save_report"])
def test_a_write_cut_short_leaves_the_previous_file(save, tmp_path,
                                                    monkeypatch):
    path = tmp_path / "r.json"
    doc = {"inputs": {}, "checks": [{"check": "x", "ok": True}]}
    getattr(ff, save)(path, doc)
    before = path.read_bytes()
    real_write = ff._write
    monkeypatch.setattr(ff, "_write", lambda path, pieces: real_write(
        path, _CutShort(pieces)))
    with pytest.raises(KeyboardInterrupt):
        getattr(ff, save)(path, {**doc, "checks": []})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["r.json"]


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_a_write_that_fails_names_its_path_as_open_does(where, tmp_path):
    # the message of the CLI's "error:" line, and no file left behind
    path = tmp_path / "no-such-dir" / "r.json" \
        if where == "missing-directory" else tmp_path / "d"
    if where == "directory":
        path.mkdir()
    with pytest.raises(OSError) as opened:
        open(path, "w")
    with pytest.raises(OSError) as written:
        ff.save_json(path, {})
    assert type(written.value) is type(opened.value)
    assert str(written.value) == str(opened.value)
    assert os.listdir(tmp_path) == ([] if where == "missing-directory"
                                    else ["d"])


def test_a_write_keeps_the_permission_bits_that_open_gives(tmp_path):
    umask = os.umask(0o022)
    try:
        ff.save_json(tmp_path / "new.json", {})
        assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o644
        old = tmp_path / "old.json"
        old.write_text("{}\n")
        old.chmod(0o600)
        ff.save_json(old, {"pairs": []})
        assert old.stat().st_mode & 0o777 == 0o600
        assert old.read_text() == '{"pairs":[]}\n'
    finally:
        os.umask(umask)


def test_a_write_through_a_link_replaces_the_file_it_names(tmp_path):
    target = tmp_path / "q.json"
    ff.save_json(target, {})
    (tmp_path / "link.json").symlink_to(target)
    ff.save_json(tmp_path / "link.json", {"pairs": []})
    assert (tmp_path / "link.json").is_symlink()
    assert target.read_text() == '{"pairs":[]}\n'


def test_cli_usage_error():
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("command", ["check-map", "example"])
def test_help_names_pool_and_seed_as_unused(command, capsys):
    assert main([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    for option in ("--seed SEED", "--pool POOL"):
        assert f"{option} accepted and unused" in out


# Help, usage-error and other command lines that main parses by one
# command's parser or sends to the full tree
USAGE_LINES = [
    [], ["-h"], ["--help"], ["-h", "validate"], ["bogus"],
    ["bogus", "validate"], ["--", "validate", "x"], ["--foo", "validate", "x"],
    *([cmd, "--help"] for cmd in cli._COMMANDS),
    # each required argument missing
    ["validate"], ["check-map"], ["quotient", "--relation", "r"],
    ["quotient", "--quantale", "q"], ["tensor"],
    ["pullback-verify", "--f", "f"], ["pullback-verify", "--p", "p"],
    ["example"], ["report-verify"],
    # a bad type, a bad choice and counts out of range
    ["example", "rel", "--n", "two"], ["example", "bogus"],
    ["check-map", "--map", "m", "--pool", "0"],
    ["pullback-verify", "--p", "p", "--f", "f", "--traces", "-1"],
    ["pullback-verify", "--p", "p", "--f", "f", "--maxlen", "2"],
    # lines that parse
    ["pullback-verify", "--p", "p", "--f", "f", "--maxlen", "99"],
    ["check-map", "--fr2", "--map=m", "--locale-meet", "--pool", "3"],
    ["validate", "--", "-a", "b"], ["tensor", "--lattices", "a", "b"],
    # an argument that the command does not know
    ["validate", "q", "--bogus"], ["check-map", "--map", "m", "extra"],
    ["quotient", "--quantale", "q", "--relation", "r", "--bogus", "1"],
    ["tensor", "--lattices", "a", "--", "--bound"],
    ["pullback-verify", "--p", "p", "--f", "f", "extra"],
    ["example", "rel", "--bogus"], ["report-verify", "r", "--report", "x"],
]


@pytest.mark.parametrize("argv", USAGE_LINES, ids=" ".join)
def test_usage_and_errors_are_those_of_the_full_tree(argv, capsys,
                                                     monkeypatch):
    # main parses a named command with that command's parser alone; the
    # full tree is the reference: the same exit code, output and, where
    # the line parses, the same arguments handed to the command
    handed = []
    for _, handler, _ in cli._COMMANDS.values():
        monkeypatch.setattr(cli, handler.__name__,
                            lambda args, _: handed.append(args))
    try:
        tree = vars(cli._parser(None).parse_args(argv))
    except SystemExit as e:
        tree = e.code
    tree = tree, *capsys.readouterr()
    code = main(argv)
    if isinstance(tree[0], dict):
        assert (code, vars(handed[0]), *capsys.readouterr()) == (0, *tree)
    else:
        assert tree[0] in (0, 2) and not handed
        assert (code, *capsys.readouterr()) == tree


def test_main_builds_one_parser_per_command(files, capsys, monkeypatch):
    # a command builds its own parser only, once per process; the tree,
    # 8 parsers, is left to the lines that name no command or leave
    # arguments unrecognized
    qpath = str(files / "pz2.quantale.json")
    argvs = [["example", "rel", "--n", "1", "--out", str(files)],
             ["no-such-command"],
             ["--help"],
             ["check-map", "--map", qpath, "--pool", "0"],
             ["validate", "--help"],
             ["validate", qpath],
             ["validate", qpath, "--bogus"]]
    # the lines that fall back to the tree, a parser named "quantales"
    # with one subparser per command
    fallback = {1, 2, 6}
    tree = ["quantales", *(f"quantales {cmd}" for cmd in cli._COMMANDS)]
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(k["prog"]) or
                        init(self, *a, **k))

    def run(argv):
        built.clear()
        code = main(argv)
        return (code, *capsys.readouterr()), list(built)

    alone = {}
    for i, argv in enumerate(argvs):
        cli._parser.cache_clear()
        alone[i], progs = run(argv)
        own = [] if argv[0] not in cli._COMMANDS else [f"quantales {argv[0]}"]
        assert progs == own + (tree if i in fallback else []), argv
        # the same line again builds nothing
        assert run(argv) == (alone[i], []), argv
    assert [alone[i][0] for i in range(len(argvs))] == [0, 2, 0, 2, 0, 0, 2]
    for order in (range(len(argvs)), reversed(range(len(argvs)))):
        cli._parser.cache_clear()
        for i in order:
            output, progs = run(argvs[i])
            assert output == alone[i], argvs[i]
            assert "quantales" not in progs or i in fallback, argvs[i]


def test_no_parser_is_built_at_import_and_one_per_command():
    # in a fresh process: importing the front end builds no parser, and a
    # command line that runs builds its command's parser alone
    script = (
        "import argparse\n"
        "progs = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k):\n"
        "    init(self, *a, **k)\n"
        "    progs.append(self.prog)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from quantales import cli\n"
        "print(len(progs))\n"
        "code = cli.main(['example', 'matrix-max', '--n', '1'])\n"
        "print(code, progs)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "0"
    assert lines[-1] == "0 ['quantales example']"


def _child_env():
    # the child imports the package under test, installed or not
    root = os.path.dirname(os.path.dirname(quantales.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "quantales", "example",
                           "rel", "--n", "1", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "rel1.quantale.json" in proc.stdout
    assert (tmp_path / "rel1.quantale.json").exists()


def test_violations_do_not_depend_on_assert(tmp_path):
    # python -O strips asserts; the verdicts must not change with it
    doc = full_form_doc(group_powerset_quantale(symmetric_group_3()))
    entry = next(e for e in doc["mult"] if e[:2] == [3, 8])
    entry[2] = (entry[2] + 1) % 64
    ps3 = str(tmp_path / "ps3.quantale.json")
    fragment = str(tmp_path / "fragment.map.json")
    ff.save_json(ps3, doc)
    ff.save_json(fragment, ff.map_to_doc(z2_group_algebra_finite_map()))
    runs = [(["validate", ps3],
             "  quantale: VIOLATION  [involution-antimult at [3, 8]]"),
            (["check-map", "--map", fragment, "--fr2"],
             "  fr2: VIOLATION  [a=span{[1,1]}, x={e}, b=span{[1,-1]}]")]
    for argv, verdict in runs:
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "quantales", *argv],
                capture_output=True, text=True, env=_child_env())
            assert (proc.returncode, proc.stderr) == (1, ""), flags
            assert verdict in proc.stdout.splitlines(), flags
