import subprocess
import sys

import pytest

from quantales import fileformats as ff
from quantales.cli import main
from quantales.examples import (cyclic_group, delta_embedding_map,
                                group_powerset_quantale, omega_quantale,
                                omega_support_map, rel_quantale,
                                sierpinski_closed_point_map,
                                standard_map_corpus)
from quantales.fileformats import FormatError
from quantales.nucleus import RelationPresentation
from quantales.openness import frobenius_report
from quantales.quantale import QuantaleMap, identity_map


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
    rel = RelationPresentation(PZ2, frozenset({(1, 2), (0, 3)}))
    doc = ff.relation_to_doc(rel)
    again = ff.relation_from_doc(doc, PZ2)
    assert again.pairs == rel.pairs


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


def test_cli_validate_malformed_json(files):
    bad = files / "bad.json"
    bad.write_text("{not json")
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
    rep = frobenius_report(ff.map_from_doc(doc["inputs"]["map"]["doc"]),
                           7, 3)
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
                                     ["matrix-max", "--n", "4"]])
def test_cli_example_out_of_range_is_an_input_error(example, tmp_path,
                                                     capsys):
    assert main(["example", *example, "--out", str(tmp_path)]) == 2
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


def test_cli_tensor(files, tmp_path):
    two = tmp_path / "two.lattice.json"
    ff.save_json(two, ff.lattice_to_doc(omega_quantale().carrier))
    assert main(["tensor", "--lattices", str(two), str(two)]) == 0


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


def test_cli_usage_error():
    assert main(["no-such-command"]) == 2


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "quantales", "example",
                           "rel", "--n", "1", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "rel1.quantale.json" in proc.stdout
    assert (tmp_path / "rel1.quantale.json").exists()
