"""The compact document forms, tested against the full form.

A quantale that `FiniteInvQuantale.from_join_irreducibles` built is
written with its product on J x J ("mult_on": "join-irreducibles"), and
every lattice by its covering pairs ("leq_is": "covers").  The full form
(`full_form_doc` in _helpers) is what every file held before; both load,
to equal quantales with the same verdicts.  The reports under data/ were
written by the version before the compact forms."""

import copy
import pathlib

import pytest

from quantales import fileformats as ff
from quantales.cli import main
from quantales.examples import (cyclic_group, group_powerset_quantale,
                                standard_map_corpus, symmetric_group_3)
from quantales.fileformats import FormatError
from quantales.openness import frobenius_report
from quantales.quantale import validate_quantale
from quantales.suplattice import (NotAPartialOrder, distributive_peeling,
                                  join_irreducibles, validate_lattice)

from _helpers import (corpus_lattices, full_form_doc, leq_pairs, plain_copy,
                      rebuilt, reduction_corpus, seeded_mutants,
                      small_quantales, validate_quantale_oracle)

DATA = pathlib.Path(__file__).parent / "data"
PZ2 = group_powerset_quantale(cyclic_group(2))
PS3 = group_powerset_quantale(symmetric_group_3())
CORPUS = reduction_corpus()
MAPS = dict(standard_map_corpus(include_effective=False))


def _forms(q):
    """q's documents by form: the full form, its full table over the
    covers, and on a distributive carrier its J x J table."""
    forms = {"full": full_form_doc(q),
             "covers": ff.quantale_to_doc(plain_copy(q))}
    if distributive_peeling(q.carrier) is not None:
        forms["compact"] = ff.quantale_to_doc(rebuilt(q))
    return forms


def _write(path, doc):
    ff.save_json(path, doc)
    return str(path)


@pytest.mark.parametrize("name", sorted(corpus_lattices()))
def test_covers_generate_the_order(name):
    lat = corpus_lattices()[name]
    covers = lat.covers()
    assert covers == [(i, j) for i, j in leq_pairs(lat) if i != j and not any(
        k not in (i, j) and lat.leq(i, k) and lat.leq(k, j)
        for k in lat.elements)]
    # the closure of the covers, or of any pairs that generate the order
    for pairs in (covers, leq_pairs(lat)):
        closed = validate_lattice(pairs, size=lat.size, covers=True)
        for attr in ("up", "down", "bottom", "top", "join_table"):
            assert getattr(closed, attr) == getattr(lat, attr), attr


def test_a_cycle_of_covers_is_not_antisymmetric(tmp_path, capsys):
    with pytest.raises(NotAPartialOrder) as err:
        validate_lattice([(0, 1), (1, 2), (2, 3), (3, 1)], size=4,
                         covers=True)
    assert (err.value.axiom, err.value.witness) == ("antisymmetry", (1, 2))
    path = _write(tmp_path / "cycle.lattice.json",
                  {"elements": ["0", "a", "b", "c"], "leq_is": "covers",
                   "leq": [[0, 1], [1, 2], [2, 3], [3, 1]]})
    report = tmp_path / "cycle.report.json"
    assert main(["validate", path, "--report", str(report)]) == 1
    assert "  lattice: VIOLATION  [NotAPartialOrder at [1, 2]]" in \
        capsys.readouterr().out.splitlines()
    assert main(["report-verify", str(report)]) == 0


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_quantales_load_alike_in_every_form(name):
    q = CORPUS[name]
    forms = _forms(q)
    assert "leq_is" not in forms["full"]["lattice"]
    assert "mult_on" not in forms["covers"]
    if "compact" in forms:
        assert len(forms["compact"]["mult"]) == \
            len(join_irreducibles(q.carrier)) ** 2
    verdict = validate_quantale(plain_copy(q))
    for form, doc in forms.items():
        again = ff.quantale_from_doc(doc, validate=False)
        assert again == q and again.carrier.names == q.carrier.names, form
        assert validate_quantale(again) == verdict, form


def test_the_corpus_has_both_kinds_of_carrier():
    compact = [name for name, q in CORPUS.items() if "compact" in _forms(q)]
    assert "PS3" in compact and "m3" not in compact
    assert 5 <= len(compact) < len(CORPUS)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_corpus_maps_load_alike_in_every_form(name):
    p = MAPS[name]
    reports = {}
    for form in ("full", "covers", "compact"):
        doc = ff.map_to_doc(p)
        for end in ("source", "target"):
            forms = _forms(getattr(p, end))
            doc[end] = forms.get(form, forms["covers"])
        again = ff.map_from_doc(doc)
        assert again.source == p.source and again.target == p.target, form
        assert again.inverse_table() == p.inverse_table(), form
        reports[form] = frobenius_report(again).to_json()
    assert reports["full"] == reports["covers"] == reports["compact"]


def test_writers_choose_the_form_by_how_the_table_was_built(tmp_path):
    doc = ff.map_to_doc(MAPS["omega-support-PZ2"])
    assert doc["source"]["mult_on"] == "join-irreducibles"
    assert "mult_on" not in doc["target"]  # Omega is not built from J
    assert doc["target"]["lattice"]["leq_is"] == "covers"
    # a quotient is written with its full table, on any carrier
    ps3 = _write(tmp_path / "ps3.quantale.json", ff.quantale_to_doc(PS3))
    pairs = _write(tmp_path / "pairs.json", {"pairs": [[1, 2]]})
    out = tmp_path / "quotient.quantale.json"
    assert main(["quotient", "--quantale", ps3, "--relation", pairs,
                 "--out", str(out)]) == 0
    quot = ff.load_json(out)
    assert "mult_on" not in quot
    assert len(quot["mult"]) == len(quot["lattice"]["elements"]) ** 2


def test_a_moved_j_product_fails_and_its_witness_replays(tmp_path):
    # each J x J product of P(S3), moved to the next singleton
    doc = ff.quantale_to_doc(PS3)
    J = join_irreducibles(PS3.carrier)
    assert len(doc["mult"]) == 36
    report = tmp_path / "moved.report.json"
    for position in range(36):
        moved = copy.deepcopy(doc)
        entry = moved["mult"][position]
        entry[2] = J[(J.index(entry[2]) + 1) % len(J)]
        path = _write(tmp_path / "moved.quantale.json", moved)
        assert main(["validate", path, "--report", str(report)]) == 1, entry
        assert main(["report-verify", str(report)]) == 0, entry
        rdoc = ff.load_json(report)
        chk = rdoc["checks"][0]
        chk["witness"] = [0] * len(chk["witness"])  # every law holds there
        edited = _write(tmp_path / "edited.report.json", rdoc)
        assert main(["report-verify", edited]) == 1, entry


def test_seeded_mutants_on_j_x_j_load_to_the_verdict_of_the_n3_loop():
    # the seeded mutants of the reduction tests whose moved entries lie in
    # J x J of a distributive carrier, each written as its J x J products;
    # the loader extends them, and the reduced validator must find the
    # law and witness of the n^3 loop on the table it built
    counted, verdicts = 0, {}
    for name, m in seeded_mutants(CORPUS):
        q = CORPUS[name]
        if distributive_peeling(q.carrier) is None or m == q:
            continue
        J = join_irreducibles(q.carrier)
        if any(m.mult_table[a][b] != q.mult_table[a][b]
               for a in q.elements for b in q.elements
               if a not in J or b not in J):
            continue
        doc = ff.quantale_to_doc(rebuilt(q))
        doc["mult"] = [[i, j, m.mult_table[i][j]] for i in J for j in J]
        doc["inv"] = [[a, m.inv_table[a]] for a in q.elements]
        loaded = ff.quantale_from_doc(doc, validate=False)
        assert loaded == rebuilt(m), name
        v = validate_quantale(loaded)
        assert v == validate_quantale_oracle(plain_copy(loaded)), (name, v)
        counted += 1
        verdicts[v and v.law] = verdicts.get(v and v.law, 0) + 1
    assert counted >= 250
    # the extension preserves joins, so no distributivity law fails
    assert verdicts[None] >= 20 and not {"distrib-left", "distrib-right"} \
        & set(verdicts)
    assert all(verdicts.get(law, 0) >= 5 for law in (
        "assoc", "unit-left", "involution-antimult", "involution-involutive"))


def _pz2(edit):
    doc = ff.quantale_to_doc(PZ2)
    assert [t[:2] for t in doc["mult"]] == [[1, 1], [1, 2], [2, 1], [2, 2]]
    edit(doc)
    return doc


def _m3_on_j():
    # a J x J table for M3, whose lattice is not distributive
    m3 = small_quantales()["m3"]
    J = join_irreducibles(m3.carrier)
    doc = ff.quantale_to_doc(m3)
    doc["mult"] = [t for t in doc["mult"] if t[0] in J and t[1] in J]
    doc["mult_on"] = "join-irreducibles"
    return doc


MALFORMED = {
    "unknown-mult_on": (lambda: _pz2(lambda d: d.update(mult_on="elements")),
                        "unknown mult_on 'elements'"),
    "unknown-leq_is": (lambda: _pz2(
        lambda d: d["lattice"].update(leq_is="pairs")),
        "unknown leq_is 'pairs'"),
    "pair-outside-j": (lambda: _pz2(
        lambda d: d["mult"].__setitem__(1, [1, 3, 3])),
        r"mult pair \(1,3\) is not in J x J"),
    "bottom-pair": (lambda: _pz2(lambda d: d["mult"].append([0, 0, 0])),
                    r"mult pair \(0,0\) is not in J x J"),
    "missing-pair": (lambda: _pz2(lambda d: d["mult"].pop()),
                     r"mult entry for \(2,2\) missing"),
    "duplicated-pair": (lambda: _pz2(lambda d: d["mult"].append([1, 2, 2])),
                        r"duplicate mult entry for \(1,2\)"),
    "boolean": (lambda: _pz2(lambda d: d["mult"][0].__setitem__(2, True)),
                r"mult triple \[1, 1, True\] out of range"),
    "not-distributive": (_m3_on_j, "needs a distributive lattice"),
    "repeated-name": (lambda: _pz2(lambda d: d["lattice"].update(
        elements=["a", "a", "b", "c"])), "element name 'a' is repeated"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_compact_documents_are_input_errors(name, tmp_path,
                                                      capsys):
    make, message = MALFORMED[name]
    with pytest.raises(FormatError, match=message):
        ff.quantale_from_doc(make())
    path = _write(tmp_path / "bad.quantale.json", make())
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_repeated_element_names_are_refused_in_every_form(tmp_path):
    # they once passed `validate`, and witness displays named two
    # elements alike
    names = ["a", "a", "b", "c"]
    docs = [full_form_doc(PZ2), ff.quantale_to_doc(PZ2)]
    docs.append(copy.deepcopy(docs[1]["lattice"]))
    for doc in docs:
        (doc["lattice"] if "lattice" in doc else doc)["elements"] = names
        assert main(["validate", _write(tmp_path / "named.json", doc)]) == 2


@pytest.mark.parametrize("name, replayed", [
    ("validate-pz2-broken", 1), ("check-map-sierpinski", 2),
    ("validate-no-join", 1)])
def test_reports_in_the_full_form_still_replay(name, replayed, capsys):
    path = DATA / f"{name}.report.json"
    assert "leq_is" not in path.read_text()
    assert main(["report-verify", str(path)]) == 0
    assert capsys.readouterr().out == \
        f"replayed {replayed} witnesses, 0 problems\n"


@pytest.mark.parametrize("argv, written", [
    (["rel", "--n", "3"], "rel3.quantale.json"),
    (["delta-embedding", "--n", "3"], "delta-embedding-3.map.json")])
def test_rel3_documents_are_under_100_kb(argv, written, tmp_path):
    # the full Rel(3) table alone is 3.49 MB
    assert main(["example", *argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / written).stat().st_size < 100_000
