"""report-verify replays each failed top-level check through the definition
that produced it, and fails closed on everything else."""

import ast
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from quantales import fileformats as ff
from quantales.cli import SCHEMA, main
from quantales.examples import (cyclic_group, delta_embedding_map,
                                discrete_to_point_map,
                                group_powerset_quantale, omega_quantale,
                                omega_support_map, rel_quantale,
                                sierpinski_closed_point_map,
                                z2_group_algebra_finite_map)
from quantales.freeprod import (PullbackContext, family_instance,
                                verify_relation_compatibility)
from quantales.openness import UnconfirmedWitness, check_fr1
from quantales.quantale import (HOM_LAWS, QUANTALE_LAWS, QuantaleMap,
                                identity_map)
from quantales.subspaces import RationalSubspace

from _helpers import full_form_doc

PZ2 = group_powerset_quantale(cyclic_group(2))
BASES = {"omega": omega_quantale, "pz2": lambda: PZ2,
         "pz3": lambda: group_powerset_quantale(cyclic_group(3)),
         "rel2": lambda: rel_quantale(2)}

# law -> (base quantale, one edit of its tables that makes the law fail
# (the first to fail in `validate`, but for distrib-right, which validate
# derives from the laws before it), a tuple where the law still holds)
QUANTALE_CASES = {
    "bottom-absorb-right": ("omega", ("mult", 1, 0, 1), [0]),
    "bottom-absorb-left": ("omega", ("mult", 0, 1, 1), [0]),
    "involution-involutive": ("omega", ("inv", 0, 1), [1]),
    "involution-monotone": ("omega", ("swap-inv", 0, 1), [0, 0]),
    "involution-antimult": ("pz2", ("mult", 2, 1, 3), [0, 0]),
    "involution-join": ("pz2", ("swap-inv", 3, 2), [0, 0]),
    "assoc": ("pz2", ("mult", 1, 1, 0), [0, 0, 0]),
    "distrib-left": ("pz2", ("mult", 3, 3, 0), [0, 0, 0]),
    "distrib-right": ("pz3", ("mult", 4, 2, 6), [0, 0, 0]),
    "unit-left": ("omega", ("mult", 1, 1, 0), [0]),
    "unit-right": ("rel2", ("unit", 3), [0]),
}

# law -> (map, inverse-image entries to overwrite, a tuple where it holds)
HOM_CASES = {
    "hom-bottom": (lambda: identity_map(PZ2), {0: 2}, None),
    "hom-join": (lambda: identity_map(PZ2), {2: 1}, [0, 0]),
    "hom-mult": (lambda: identity_map(PZ2), {2: 3}, [0, 0]),
    "hom-involution": (lambda: delta_embedding_map(2), {1: 12}, [0]),
}


def _not_semiopen_map():
    # p*(1) = {e} is a quantale hom Omega -> P(Z/2) that misses the top,
    # so p* has no left adjoint
    return QuantaleMap.from_table(PZ2, omega_quantale(), (0, 1),
                                  name="not-semiopen")


# map law -> (map that fails it, a tuple where it holds)
MAP_CASES = [
    ("semiopen", _not_semiopen_map, [0, 0]),
    ("fr1", sierpinski_closed_point_map, [0, 0]),
    ("fr1_right", sierpinski_closed_point_map, [0, 0]),
    ("fr2", sierpinski_closed_point_map, [0, 0, 0]),
    ("fr2", lambda: discrete_to_point_map(2), [0, 0, 0]),
    ("fr2", z2_group_algebra_finite_map, [0, 0, 0]),
]


def _edited_quantale_doc(base, edit):
    # the full table, which has an entry for every pair of elements
    doc = full_form_doc(BASES[base]())
    op, *args = edit
    if op == "mult":
        i, j, k = args
        next(t for t in doc["mult"] if t[:2] == [i, j])[2] = k
    elif op == "inv":
        i, k = args
        next(t for t in doc["inv"] if t[0] == i)[1] = k
    elif op == "swap-inv":
        i, j = args
        for t in doc["inv"]:
            t[1] = {i: j, j: i}.get(t[0], t[1])
    else:
        doc["unit"] = args[0]
    return doc


def _write(path, doc):
    ff.save_json(path, doc)
    return str(path)


def _replay(tmp_path, report_doc, name="edited.report.json"):
    return main(["report-verify", _write(tmp_path / name, report_doc)])


def _failed(report_path, check):
    doc = ff.load_json(report_path)
    return doc, next(c for c in doc["checks"] if c["check"] == check)


def test_tables_cover_the_laws():
    assert [law.name for law in QUANTALE_LAWS] == list(QUANTALE_CASES)
    assert [law.name for law in HOM_LAWS] == list(HOM_CASES)
    assert [law.arity for law in QUANTALE_LAWS] == [1, 1, 1, 2, 2, 2,
                                                    3, 3, 3, 1, 1]


@pytest.mark.parametrize("law", list(QUANTALE_CASES))
def test_quantale_law_witness_replays_and_a_moved_one_does_not(law, tmp_path):
    base, edit, holds_at = QUANTALE_CASES[law]
    qpath = _write(tmp_path / "q.json", _edited_quantale_doc(base, edit))
    report = tmp_path / "q.report.json"
    assert main(["validate", qpath, "--report", str(report)]) == 1
    doc, chk = _failed(report, "quantale")
    if law == "distrib-right":
        # an earlier law fails first; record a genuine distrib-right
        # witness of the edited table in its place
        assert chk["law"] in ("assoc", "distrib-left")
        q = ff.quantale_from_doc(doc["inputs"][qpath]["doc"], validate=False)
        holds = next(x for x in QUANTALE_LAWS if x.name == law).holds
        chk["law"], chk["witness"] = law, next(
            list(w) for w in itertools.product(q.elements, repeat=3)
            if not holds(q, *w))
    assert chk["law"] == law and chk["part"] == "quantale"
    assert _replay(tmp_path, doc) == 0
    chk["witness"] = holds_at
    assert _replay(tmp_path, doc) == 1


@pytest.mark.parametrize("law", list(HOM_CASES))
def test_hom_law_witness_replays_and_a_moved_one_does_not(law, tmp_path):
    make, entries, holds_at = HOM_CASES[law]
    mdoc = ff.map_to_doc(make())
    for pair in mdoc["inverse_image"]:
        pair[1] = entries.get(pair[0], pair[1])
    mpath = _write(tmp_path / "m.json", mdoc)
    report = tmp_path / "m.report.json"
    assert main(["validate", mpath, "--report", str(report)]) == 1
    doc, chk = _failed(report, "map")
    assert chk["law"] == law and chk["part"] == "inverse_image"
    assert main(["report-verify", str(report)]) == 0
    if holds_at is not None:  # hom-bottom has the empty witness only
        chk["witness"] = holds_at
        assert _replay(tmp_path, doc) == 1


def test_map_document_records_which_part_fails(tmp_path):
    mdoc = ff.map_to_doc(identity_map(PZ2))
    mdoc["target"] = _edited_quantale_doc("pz2", ("mult", 1, 1, 0))
    mpath = _write(tmp_path / "m.json", mdoc)
    report = tmp_path / "m.report.json"
    assert main(["validate", mpath, "--report", str(report)]) == 1
    doc, chk = _failed(report, "map")
    assert (chk["part"], chk["law"]) == ("target", "assoc")
    assert main(["report-verify", str(report)]) == 0
    chk["part"] = "source"  # the source quantale satisfies the law
    assert _replay(tmp_path, doc) == 1


@pytest.mark.parametrize("law,make,holds_at", MAP_CASES)
def test_map_law_witness_replays_and_a_moved_one_does_not(law, make, holds_at,
                                                          tmp_path):
    mpath = _write(tmp_path / "m.json", ff.map_to_doc(make()))
    report = tmp_path / "m.report.json"
    flag = "--" + law.replace("_", "-")
    assert main(["check-map", "--map", mpath, flag,
                 "--report", str(report)]) == 1
    doc, chk = _failed(report, law)
    assert main(["report-verify", str(report)]) == 0
    chk["witness"] = holds_at
    assert _replay(tmp_path, doc) == 1


def test_inconsistent_wos_claim_does_not_replay(tmp_path):
    mpath = _write(tmp_path / "m.json", ff.map_to_doc(omega_support_map(PZ2)))
    report = tmp_path / "m.report.json"
    assert main(["check-map", "--map", mpath, "--wos",
                 "--report", str(report)]) == 0
    doc, chk = _failed(report, "wos")
    chk["ok"] = False
    doc["verdict"] = "violation"
    assert _replay(tmp_path, doc) == 1


def test_unreplayable_failed_check_fails_closed(tmp_path, capsys):
    # the sierpinski map fails the pullback hypothesis; report-verify has no
    # rule for that check and must not pass it
    mpath = _write(tmp_path / "sp.json",
                   ff.map_to_doc(sierpinski_closed_point_map()))
    three = sierpinski_closed_point_map().target
    ident = QuantaleMap.from_table(three, three, tuple(three.elements))
    fpath = _write(tmp_path / "id.json", ff.map_to_doc(ident))
    report = tmp_path / "pb.report.json"
    assert main(["pullback-verify", "--p", mpath, "--f", fpath,
                 "--report", str(report)]) == 1
    assert "seed" not in ff.load_json(report)
    capsys.readouterr()
    assert main(["report-verify", str(report)]) == 1
    out = capsys.readouterr().out
    assert "replayed 0 witnesses, 1 problems" in out
    assert "pullback-hypothesis: no replay rule" in out


def test_embedded_inputs_are_checked_against_their_digest(tmp_path, capsys):
    pz2 = group_powerset_quantale(cyclic_group(2))
    mpath = _write(tmp_path / "p.json", ff.map_to_doc(omega_support_map(pz2)))
    fpath = _write(tmp_path / "f.json", ff.map_to_doc(delta_embedding_map(2)))
    report = tmp_path / "pb.report.json"
    assert main(["pullback-verify", "--p", mpath, "--f", fpath,
                 "--maxlen", "3", "--report", str(report)]) == 0
    assert main(["report-verify", str(report)]) == 0
    doc = ff.load_json(report)
    doc["inputs"]["p"]["doc"]["inverse_image"] = [[0, 3], [1, 0]]
    capsys.readouterr()
    assert _replay(tmp_path, doc) == 1
    assert "input p: embedded doc does not match its doc_sha256" in \
        capsys.readouterr().out
    doc = ff.load_json(report)
    del doc["inputs"]["f"]["doc_sha256"]
    assert _replay(tmp_path, doc) == 2


def _check_map_report(tmp_path):
    mpath = _write(tmp_path / "sp.json",
                   ff.map_to_doc(sierpinski_closed_point_map()))
    report = tmp_path / "sp.report.json"
    assert main(["check-map", "--map", mpath, "--fr1",
                 "--report", str(report)]) == 1
    return ff.load_json(report), "map"


def _validate_report(tmp_path):
    qpath = _write(tmp_path / "q.json",
                   _edited_quantale_doc("pz2", ("mult", 1, 1, 0)))
    report = tmp_path / "q.report.json"
    assert main(["validate", qpath, "--report", str(report)]) == 1
    return ff.load_json(report), qpath


@pytest.mark.parametrize("make", [
    _check_map_report, _validate_report,
    lambda tmp_path: (_negative_control_report(), "p"),
], ids=["map-law", "document", "relation-compatibility"])
@pytest.mark.parametrize("doc_edit", ["missing", "null", "list"])
def test_an_input_without_its_document_is_an_input_error(make, doc_edit,
                                                         tmp_path, capsys):
    doc, role = make(tmp_path)
    assert _replay(tmp_path, doc) == 0
    entry = doc["inputs"][role]
    if doc_edit == "missing":
        del entry["doc"]
    else:
        entry["doc"] = {"null": None, "list": []}[doc_edit]
    # a digest that matches what is left, so only the shape can refuse it
    entry["doc_sha256"] = ff.doc_digest(entry.get("doc"))
    capsys.readouterr()
    assert _replay(tmp_path, doc) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_records_the_join_irreducible_reduction(tmp_path):
    qpath = _write(tmp_path / "q.json", ff.quantale_to_doc(PZ2))
    mpath = _write(tmp_path / "m.json",
                   ff.map_to_doc(omega_support_map(PZ2)))
    lpath = _write(tmp_path / "l.json", ff.lattice_to_doc(PZ2.carrier))
    report = tmp_path / "v.report.json"
    assert main(["validate", qpath, mpath, lpath, "--report",
                 str(report)]) == 0
    doc = ff.load_json(report)
    q, m, lat = doc["checks"]
    assert (q["reduction"], q["join_irreducibles"]) == \
        ("join-irreducibles", {"quantale": 2})
    # Omega has one join-irreducible, P(Z/2) the two singletons
    assert m["join_irreducibles"] == {"source": 2, "target": 1}
    assert "reduction" not in lat and "join_irreducibles" not in lat
    # a failed check records them too, and report-verify does not read them
    doc, _ = _validate_report(tmp_path)
    chk = doc["checks"][0]
    assert chk["join_irreducibles"] == {"quantale": 2}
    chk["reduction"], chk["join_irreducibles"] = "none", {"quantale": 99}
    assert _replay(tmp_path, doc) == 0


def test_structural_failures_are_replayed_by_reloading(tmp_path):
    # a lattice with two incomparable tops has no join for them
    bad_lattice = {"elements": ["0", "a", "b"], "leq": [[0, 1], [0, 2]]}
    lpath = _write(tmp_path / "l.json", bad_lattice)
    report = tmp_path / "l.report.json"
    assert main(["validate", lpath, "--report", str(report)]) == 1
    doc, chk = _failed(report, "lattice")
    assert chk["law"] == "MissingJoin"
    assert main(["report-verify", str(report)]) == 0
    doc["inputs"][lpath]["doc"]["leq"].append([1, 2])  # now a chain
    assert _replay(tmp_path, doc) == 1
    chk["law"] = "NoBottom"
    doc["inputs"][lpath]["doc"] = bad_lattice
    assert _replay(tmp_path, doc) == 1

    qdoc = ff.quantale_to_doc(omega_quantale())
    qdoc["lattice"] = {"elements": ["0", "1"], "leq": []}  # no bottom
    qpath = _write(tmp_path / "q.json", qdoc)
    report = tmp_path / "q.report.json"
    assert main(["validate", qpath, "--report", str(report)]) == 1
    assert _failed(report, "quantale")[1]["law"] == "NoBottom"
    assert main(["report-verify", str(report)]) == 0


def test_verdict_must_agree_with_the_checks(tmp_path):
    qpath = _write(tmp_path / "q.json",
                   _edited_quantale_doc("pz2", ("mult", 1, 1, 0)))
    report = tmp_path / "q.report.json"
    assert main(["validate", qpath, "--report", str(report)]) == 1
    doc = ff.load_json(report)
    doc["verdict"] = "pass"
    assert _replay(tmp_path, doc) == 1
    ok_path = _write(tmp_path / "ok.json", ff.quantale_to_doc(PZ2))
    assert main(["validate", ok_path, "--report", str(report)]) == 0
    doc = ff.load_json(report)
    doc["verdict"] = "violation"
    assert _replay(tmp_path, doc) == 1


@pytest.mark.parametrize("witness", [[99, 1], [1], [1, 1, 1], [1, "1"],
                                     [True, 1], "1,1"])
def test_witness_outside_its_carrier_is_an_input_error(witness, tmp_path):
    mpath = _write(tmp_path / "sp.json",
                   ff.map_to_doc(sierpinski_closed_point_map()))
    report = tmp_path / "sp.report.json"
    assert main(["check-map", "--map", mpath, "--fr1",
                 "--report", str(report)]) == 1
    doc, chk = _failed(report, "fr1")
    chk["witness"] = witness
    assert _replay(tmp_path, doc) == 2


@pytest.mark.parametrize("element", [
    {"dim": 3, "basis": [["1", "1", "0"]]}, {"dim": 2, "basis": [["1"]]},
    {"dim": 2, "basis": [["1", "x"]]}, {"dim": 2, "basis": [["1/0", "1"]]},
    {"dim": 2, "basis": 1}, {"dim": 2}, [["1", "1"]], 3])
def test_effective_witness_replays_and_is_checked_against_its_carrier(
        element, tmp_path):
    report = tmp_path / "ga.json"
    assert main(["example", "group-algebra", "--group", "z2", "--pool", "12",
                 "--report", str(report)]) == 0
    doc = ff.load_json(report)
    fr2 = next(c for c in doc["frobenius"]["checks"] if c["check"] == "fr2")
    doc["checks"].append(fr2)
    doc["verdict"] = "violation"
    assert _replay(tmp_path, doc) == 0
    fr2["witness"][0] = element
    assert _replay(tmp_path, doc) == 2


@pytest.mark.parametrize("element", [
    {"dim": 2, "basis": [[True, True]]}, {"dim": 2, "basis": [[1.0, 1]]},
    {"dim": 2, "basis": [[1, 1]]}, {"dim": 2, "basis": [["1.0", "1"]]},
    {"dim": 2, "basis": [["2/2", "1"]]}, {"dim": 2, "basis": [[" 1", "1"]]},
    {"dim": 2.0, "basis": [["1", "1"]]}, {"dim": 2, "basis": "11"},
    {"dim": 2, "basis": [["1", None]]}],
    ids=["bools", "floats", "ints", "decimal", "unreduced", "space",
         "float-dim", "string-basis", "null"])
def test_effective_witness_entries_are_the_strings_reports_write(
        element, tmp_path):
    # [[true, true]] and [[1.0, 1]] once replayed as span{[1,1]}
    report = tmp_path / "ga.json"
    assert main(["example", "group-algebra", "--group", "z2",
                 "--report", str(report)]) == 0
    doc = ff.load_json(report)
    fr2 = next(c for c in doc["frobenius"]["checks"] if c["check"] == "fr2")
    doc["checks"].append(fr2)
    doc["verdict"] = "violation"
    assert _replay(tmp_path, doc) == 0
    fr2["witness"][0] = element
    assert _replay(tmp_path, doc) == 2


def test_an_effective_witness_error_names_its_carrier(tmp_path, capsys):
    # the carrier once printed as an object address, which changed per run
    report = tmp_path / "ga.json"
    assert main(["example", "group-algebra", "--group", "z2",
                 "--report", str(report)]) == 0
    doc = ff.load_json(report)
    fr2 = next(c for c in doc["frobenius"]["checks"] if c["check"] == "fr2")
    doc["checks"].append({**fr2, "witness": [3, *fr2["witness"][1:]]})
    doc["verdict"] = "violation"
    capsys.readouterr()
    assert _replay(tmp_path, doc) == 2
    assert capsys.readouterr().err == (
        "error: witness element 3 is not an element of "
        "MaxAlgebraQuantale(Max Q[2])\n")


def test_a_subset_witness_is_a_mask_of_the_arrows(tmp_path, capsys):
    # the x of a suite's fr2 witness is a subset of G, as the bitmask of
    # its arrows: below 2^6 on P(S3)
    report = tmp_path / "ga.json"
    assert main(["example", "group-algebra", "--group", "s3",
                 "--report", str(report)]) == 0
    doc = ff.load_json(report)
    fr2 = next(c for c in doc["frobenius"]["checks"] if c["check"] == "fr2")
    assert fr2["witness"][1] == 1
    doc["checks"].append(fr2)
    doc["verdict"] = "violation"
    capsys.readouterr()
    assert _replay(tmp_path, doc) == 0
    assert capsys.readouterr().out == "replayed 1 witnesses, 0 problems\n"
    fr2["witness"][1] = 64
    assert _replay(tmp_path, doc) == 2
    assert capsys.readouterr().err == (
        "error: witness element 64 is not an element of "
        "GroupoidPowerset(P(G6))\n")


def _matrix_max_fr2_report(tmp_path):
    """An `example matrix-max --n 1` report that also records, as failed, an
    fr2 check at a triple where fr2 holds: one problem on replay."""
    report = tmp_path / "mm.json"
    assert main(["example", "matrix-max", "--n", "1",
                 "--report", str(report)]) == 0
    doc = ff.load_json(report)
    zero = {"dim": 1, "basis": []}
    doc["checks"].append({"check": "fr2", "ok": False,
                          "witness": [zero, 0, zero]})
    doc["verdict"] = "violation"
    return doc


@pytest.mark.parametrize("example", [
    {"name": "matrix-max"}, {"name": "matrix-max", "n": "x"},
    {"name": "matrix-max", "n": True}, [1],
    {"name": ["matrix-max"], "n": 1}],
    ids=["no-n", "string-n", "bool-n", "not-an-object", "list-name"])
def test_a_malformed_example_record_is_an_input_error(example, tmp_path,
                                                      capsys):
    # all but bool-n once ended in a traceback, and n = true was replayed
    # on Max M1(Q)
    doc = _matrix_max_fr2_report(tmp_path)
    capsys.readouterr()
    assert _replay(tmp_path, doc) == 1
    assert "fr2: recorded failure does not replay" in capsys.readouterr().out
    doc["example"] = example
    assert _replay(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: example") or \
        err.startswith("error: the report embeds no map")
    assert err.count("\n") == 1


def test_subspace_witness_json_round_trips():
    # the encoding of reports written before it moved to subspaces.py
    line = RationalSubspace.from_vectors(3, [(2, 1, 0)])
    assert line.to_json() == {"dim": 3, "basis": [["1", "1/2", "0"]]}
    assert RationalSubspace.from_json(
        {"dim": 2, "basis": [["1", "1"]]}, 2) == \
        RationalSubspace.from_vectors(2, [(1, 1)])
    rng = random.Random(2)
    for _ in range(30):
        dim = rng.randint(1, 4)
        space = RationalSubspace.from_vectors(dim, [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for _ in range(dim)] for _ in range(rng.randint(0, dim))])
        assert RationalSubspace.from_json(space.to_json(), dim) == space
        with pytest.raises(ValueError):
            RationalSubspace.from_json(space.to_json(), dim + 1)


def test_search_witness_that_holds_on_recheck_raises():
    # a direct image that answers wrongly once: the sweep finds a witness
    # that the one-element re-run of the same sweep does not confirm.  The
    # premise of the join-irreducible sweep reads p_! on all of Q first,
    # so the wrong answer is the first one the sweep itself reads.
    p = omega_support_map(PZ2)
    calls = []

    def flaky(a):
        calls.append(a)
        right = p.direct_image(a)
        return 1 - right if len(calls) == PZ2.size + 1 else right

    with pytest.raises(UnconfirmedWitness):
        check_fr1(p.with_direct_image(flaky))
    assert check_fr1(p).ok


def _negative_control_report():
    # pullback-verify stops at the failed hypothesis on the negative
    # control, so its relation failures go into a report built here
    p = z2_group_algebra_finite_map()
    f = identity_map(p.target)
    rc = verify_relation_compatibility(
        PullbackContext.build(p, f, verify=False))
    inputs = {role: {"doc": doc, "doc_sha256": ff.doc_digest(doc)}
              for role, doc in (("p", ff.map_to_doc(p)),
                                ("f", ff.map_to_doc(f)))}
    check = {"check": "relation-compatibility", "ok": False, **rc.to_json()}
    return {"schema": SCHEMA, "inputs": inputs, "checks": [check],
            "verdict": "violation"}


def _first_failure(doc):
    return doc["checks"][0]["families"]["mid_qq"]["failures"][0]


def _passing_core(doc):
    # a=a2=bottom: both sides of the core go to bottom under h
    p = ff.map_from_doc(doc["inputs"]["p"]["doc"])
    ctx = PullbackContext.build(p, ff.map_from_doc(doc["inputs"]["f"]["doc"]),
                                verify=False)
    lhs, rhs = family_instance(ctx, "mid_qq", 1, a=0, a2=0)
    failure = _first_failure(doc)
    failure["parameters"] = {"a": 0, "a2": 0}
    failure["instance"].update(x=1, left=lhs.letters, right=rhs.letters)


def _other_words(doc):
    failures = doc["checks"][0]["families"]["mid_qq"]["failures"]
    failures[0]["instance"]["right"] = failures[1]["instance"]["right"]


def _filed_elsewhere(doc):
    families = doc["checks"][0]["families"]
    families["mid_yy"]["failures"].append(
        families["mid_qq"]["failures"].pop(0))


def _copy_field(record, key, source):
    record[key] = record[source]


def test_relation_failures_replay_from_family_x_and_parameters(tmp_path,
                                                                capsys):
    doc = _negative_control_report()
    rc = doc["checks"][0]
    assert [f for f, r in rc["families"].items() if r["failures"]] == \
        ["mid_qq"]
    assert _replay(tmp_path, doc) == 0
    assert "replayed 6 witnesses, 0 problems" in capsys.readouterr().out
    assert _first_failure(doc)["parameters"].keys() == {"a", "a2"}


@pytest.mark.parametrize("edit", [
    lambda d: _first_failure(d)["instance"].update(left=[["y", 1]],
                                                   right=[["y", 2]]),
    _other_words,
    lambda d: _first_failure(d)["parameters"].update(a=0),
    _passing_core,
    lambda d: _copy_field(_first_failure(d), "h_left", "h_right"),
    lambda d: _copy_field(_first_failure(d), "h_right", "h_left"),
    lambda d: _first_failure(d)["instance"].update(hypothesis="surjectivity"),
    lambda d: _copy_field(_first_failure(d)["instance"], "left_display",
                    "right_display"),
    lambda d: _copy_field(_first_failure(d)["instance"], "right_display",
                    "left_display"),
    lambda d: _first_failure(d).update(note="extra"),
    _filed_elsewhere,
], ids=["made-up", "other-words", "moved-parameters", "passing-core",
        "h-left", "h-right", "hypothesis", "left-display", "right-display",
        "extra-field", "filed-elsewhere"])
def test_a_moved_relation_failure_does_not_replay(edit, tmp_path, capsys):
    doc = _negative_control_report()
    edit(doc)
    assert _replay(tmp_path, doc) == 1
    assert "relation-compatibility: recorded failure does not replay" in \
        capsys.readouterr().out


@pytest.mark.parametrize("edit", [
    lambda f: f["instance"].pop("left"),
    lambda f: f["instance"].update(right=[["q", 99]]),
    lambda f: f["instance"].update(right=[["z", 1]]),
    lambda f: f["instance"].update(right=[["q", True]]),
    lambda f: f["instance"].update(left="q0"),
    lambda f: f.pop("parameters"),
    lambda f: f["parameters"].update(y=1),
    lambda f: f["parameters"].update(a2=[0]),
    lambda f: f["instance"].update(family="mid_zz"),
    lambda f: f["instance"].update(family=["mid_qq"]),
    lambda f: f["instance"].update(x=99),
    lambda f: f["instance"].update(x=True),
    lambda f: f.pop("instance"),
], ids=["no-left", "letter-out-of-range", "unknown-tag", "boolean-letter",
        "word-not-a-list", "no-parameters", "extra-parameter",
        "parameter-not-an-element", "unknown-family", "family-not-a-name",
        "x-out-of-range", "boolean-x", "no-instance"])
def test_a_malformed_relation_failure_is_an_input_error(edit, tmp_path,
                                                         capsys):
    doc = _negative_control_report()
    edit(_first_failure(doc))
    assert _replay(tmp_path, doc) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _unnamed_check_report(tmp_path):
    return {"schema": SCHEMA, "checks": [{"check": ["x"], "ok": False}],
            "verdict": "violation"}


def _unnamed_input_report(tmp_path):
    doc, _ = _validate_report(tmp_path)
    assert _replay(tmp_path, doc) == 0
    doc["checks"][0]["input"] = ["x"]
    return doc


@pytest.mark.parametrize("make", [_unnamed_check_report,
                                  _unnamed_input_report],
                         ids=["check-not-a-name", "input-not-a-name"])
def test_a_check_or_input_that_is_not_a_name_is_an_input_error(make,
                                                                tmp_path,
                                                                capsys):
    # both once ended in a TypeError traceback, with exit 1
    doc = make(tmp_path)
    capsys.readouterr()
    assert _replay(tmp_path, doc) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("top", [[], "report", 1, None])
def test_a_report_that_is_not_an_object_is_an_input_error(top, tmp_path,
                                                          capsys):
    assert _replay(tmp_path, top) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _library_nodes():
    """(module file name, node) for every AST node of the library."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "quantales"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def _lint(flagged):
    return [f"{name}:{node.lineno}" for name, node in _library_nodes()
            if flagged(name, node)]


def test_library_holds_no_assert_statements():
    # `python -O` strips asserts, so no invariant may rest on one
    assert _lint(lambda name, node: isinstance(node, ast.Assert)) == []


def _catches_everything(name, node):
    if not isinstance(node, ast.ExceptHandler):
        return False
    if node.type is None:
        return True
    caught = node.type.elts if isinstance(node.type, ast.Tuple) \
        else [node.type]
    return any(isinstance(t, ast.Name)
               and t.id in ("Exception", "BaseException") for t in caught)


def test_library_has_no_bare_or_catch_all_except():
    assert _lint(_catches_everything) == []


def _serializes_json(name, node):
    if name == "fileformats.py":
        return False
    if isinstance(node, ast.ImportFrom):
        return node.module == "json" and any(
            a.name in ("dump", "dumps") for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
            and isinstance(node.value, ast.Name) and node.value.id == "json")


def test_only_fileformats_writes_json():
    # one writer: every document goes out as fileformats.canonical_json
    assert _lint(_serializes_json) == []


def _runs_a_law(name, node):
    return (name != "laws.py" and isinstance(node, ast.Attribute)
            and node.attr in ("holds", "sweep"))


def test_only_the_law_engine_runs_a_law():
    # one runner: every law record is checked, decided and replayed by
    # laws.run, the only reader of a predicate or a hoisted sweep
    assert _lint(_runs_a_law) == []
