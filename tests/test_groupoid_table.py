"""The Frobenius battery of groupoid support maps, decided from the table.

`openness` decides each law of p: Max Q[G] -> P(G) by the lemma beside
`examples._support_map`: FR2 holds iff G is principal, and the rest of the
battery holds for every G.  The tests compare the decided verdicts with
the O(|G|^3) injectivity test of `_helpers.sgt_injective`, confirm every
decided witness on the definition twice (the library's one-element sweep
and `_helpers.support_fr2_violated`), and run the law sweeps on seeded
lines, singletons and lines, which the lemma says is enough: FR2 on the
principal groupoids, the rest of the battery on all of them.  Without its
groupoid an effective map is refused, not sampled.
"""

import random

import pytest

from _helpers import (group_algebra_handles, map_law_swept, probe_pools,
                      sgt_injective, support_fr2_violated, tabulated,
                      validate_quantale_sampled)
from quantales import examples as ex
from quantales import fileformats as ff
from quantales.cli import main
from quantales.examples import (GroupoidPowerset, cyclic_group,
                                group_algebra_support_map,
                                groupoid_support_map, matrix_support_map,
                                pair_groupoid, powerset_quantale,
                                product_groupoid, standard_map_corpus,
                                symmetric_group_3,
                                z2_group_algebra_finite_map)
from quantales.openness import (GROUPOID_TABLE, MAP_LAWS, UnconfirmedWitness,
                                check_direct_image_involution, check_fr1,
                                check_fr1_right, check_fr2, check_semiopen,
                                frobenius_report, violates)
from quantales.quantale import (Undecidable, is_surjective, validate_hom,
                                validate_quantale)
from quantales.subspaces import RationalSubspace

GROUPOIDS = {
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "s3": symmetric_group_3,
    "pair2": lambda: pair_groupoid(2),
    "pair3": lambda: pair_groupoid(3),
    "z2xpair2": lambda: product_groupoid(cyclic_group(2), pair_groupoid(2)),
    "z3xpair2": lambda: product_groupoid(cyclic_group(3), pair_groupoid(2)),
    "pair2xpair2": lambda: product_groupoid(pair_groupoid(2),
                                            pair_groupoid(2)),
}
PRINCIPAL = {"pair2", "pair3", "pair2xpair2"}


def _battery(rep):
    return (rep.semiopen, rep.fr1, rep.fr1_right, rep.fr2,
            rep.direct_image_involution)


def _lines(rng, dim, count):
    """Seeded lines span{u} with small entries and small supports."""
    lines = set()
    while len(lines) < count:
        support = rng.sample(range(dim), rng.randint(1, min(dim, 4)))
        u = [0] * dim
        for k in support:
            u[k] = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])
        lines.add(RationalSubspace.from_vectors(dim, [u]))
    return sorted(lines, key=repr)


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_decided_fr2_is_the_injectivity_test(name):
    g = GROUPOIDS[name]()
    p = groupoid_support_map(g)
    rep = frobenius_report(p)
    assert sgt_injective(g) == (name in PRINCIPAL)
    assert rep.fr2.ok == sgt_injective(g)
    for chk in _battery(rep):
        assert (chk.mode, chk.reduction) == ("decided", GROUPOID_TABLE)
        assert chk.ok or chk.name == "fr2"
        assert chk.to_json()["reduction"] == GROUPOID_TABLE
    # FR2 reads the inverse and both products x x^-1, x^-1 x of each arrow
    assert rep.fr2.evaluations == 3 * g.size
    assert rep.surjective and rep.surjective_mode == "decided"
    assert rep.unit_identity and rep.weakly_open
    assert rep.hypothesis_for_pullback == (name in PRINCIPAL)
    if rep.fr2.ok:
        return
    a, x, b = rep.fr2.witness
    assert violates(p, "fr2", rep.fr2.witness)
    assert support_fr2_violated(g, a.basis, x, b.basis)
    # the witness is the line through the sum of the loops at the first
    # unit y with a loop h != y, the unit y, and the line through y - h
    loops = {y: [k for k in range(g.size)
                 if g.mult[k][g.inv[k]] == y == g.mult[g.inv[k]][k]]
             for y in g.units}
    y = min(y for y in g.units if len(loops[y]) > 1)
    h = min(k for k in loops[y] if k != y)
    assert (a.rank, x, b.rank) == (1, 1 << y, 1)
    assert a.basis[0] == tuple(int(k in loops[y]) for k in range(g.size))
    assert {k for k, c in enumerate(b.basis[0]) if c} == {y, h}


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_sampled_sweep_on_lines_agrees_with_the_decided_battery(name):
    # the laws that hold for every groupoid hold on the lines of each, and
    # FR2 on those of the principal ones
    g = GROUPOIDS[name]()
    p = groupoid_support_map(g).replace(groupoid=None)
    lines = _lines(random.Random(f"lines:{name}"), g.size, 16)
    singletons = [1 << k for k in range(g.size)]
    for law in ("semiopen", "fr1", "fr1_right"):
        witness, count = MAP_LAWS[law].sweep(p, lines, singletons)
        assert witness is None and count == len(lines) * g.size, law
    assert MAP_LAWS["direct_image_involution"].sweep(p, lines) == (
        None, len(lines))
    if name in PRINCIPAL:
        witness, count = MAP_LAWS["fr2"].sweep(p, lines, singletons, lines)
        assert witness is None and count == len(lines) ** 2 * g.size


def test_named_support_maps_record_their_groupoid():
    assert matrix_support_map(2).groupoid == pair_groupoid(2)
    assert group_algebra_support_map(symmetric_group_3()).groupoid \
        is symmetric_group_3()
    p = group_algebra_support_map(cyclic_group(2))
    assert p.with_direct_image(p.direct_image).groupoid is cyclic_group(2)
    enriched, semi = check_semiopen(p)
    assert enriched.groupoid is cyclic_group(2) and semi.mode == "decided"
    # maps built otherwise are swept, not decided
    fragment = z2_group_algebra_finite_map()
    assert fragment.groupoid is None
    assert frobenius_report(fragment).fr2.mode == "exhaustive"
    names = {name for name, _ in standard_map_corpus()}
    assert {"groupoid-Z2xpair2", "groupoid-pair2xpair2"} <= names


def test_a_decided_witness_that_does_not_fail_is_refused():
    # a map that keeps the groupoid with a direct image sending every
    # subspace to the whole group still has FR2 decided false, but the
    # table's witness holds for it on re-check
    p = group_algebra_support_map(cyclic_group(2)).replace(
        direct_image=lambda a: 3)
    with pytest.raises(UnconfirmedWitness):
        check_fr2(p)


def test_a_replaced_direct_image_is_swept_not_decided():
    # the table decides the laws of the support map only, so a replaced
    # direct image drops the groupoid: the library refuses the check, and
    # the sweep on probe pools finds FR1 failing at the zero subspace
    p = group_algebra_support_map(cyclic_group(2)).with_direct_image(
        lambda a: 3)
    assert p.groupoid is None
    with pytest.raises(Undecidable):
        check_fr1(p)
    fr1 = map_law_swept("fr1", p, probe_pools(
        p, 50, 0, group_algebra_handles(cyclic_group(2))))
    assert not fr1.ok and fr1.mode == "sampled"
    assert fr1.witness_display == "a=span{}, x={}"


def test_effective_carriers_without_a_table_are_refused():
    # no sweep proves a law on an effective carrier, so without the
    # groupoid every check raises instead of passing on samples
    p = tabulated(matrix_support_map(2)).replace(groupoid=None)
    for check in (frobenius_report, check_semiopen, check_fr1,
                  check_fr1_right, check_fr2, check_direct_image_involution):
        with pytest.raises(Undecidable):
            check(p)
    with pytest.raises(Undecidable):
        validate_quantale(p.source)
    # p* from the finite Rel(2) is swept on all of its source
    assert validate_hom(p.star, p.target, p.source) is None
    # P(G) as an oracle is an effective target; with its groupoid the
    # battery decides surjectivity, without it nothing does
    q = groupoid_support_map(GROUPOIDS["pair2xpair2"]())
    assert frobenius_report(q).surjective_mode == "decided"
    with pytest.raises(Undecidable):
        is_surjective(q)
    with pytest.raises(Undecidable):
        validate_hom(q.star, q.target, q.source)
    with pytest.raises(Undecidable):
        frobenius_report(q.replace(groupoid=None))


def test_product_groupoid_composes_componentwise():
    g, h = cyclic_group(2), pair_groupoid(2)
    gh = product_groupoid(g, h)
    assert gh.size == 8 and len(gh.units) == 2
    assert gh.names[:2] == ("(e,(1,1))", "(e,(1,2))")
    for (a, b), (c, d) in [((x // 4, x % 4), (y // 4, y % 4))
                           for x in range(8) for y in range(8)]:
        left, right = g.mult[a][c], h.mult[b][d]
        want = None if left is None or right is None else left * 4 + right
        assert gh.mult[a * 4 + b][c * 4 + d] == want


def test_powerset_oracle_is_the_powerset_table():
    g = product_groupoid(cyclic_group(2), pair_groupoid(2))
    table, oracle = powerset_quantale(g), GroupoidPowerset(g)
    rng = random.Random(0)
    for _ in range(500):
        u, v = rng.randrange(256), rng.randrange(256)
        assert oracle.mult(u, v) == table.mult(u, v)
        assert oracle.inv(u) == table.inv(u)
        assert oracle.name_of(u) == table.name_of(u)
        assert oracle.leq(u, v) == table.leq(u, v)
        assert oracle.join([u, v]) == table.join([u, v])
        # the product from the definition, arrow by arrow
        assert oracle.mult(u, v) == sum({
            1 << g.mult[s][t] for s in range(8) for t in range(8)
            if u >> s & 1 and v >> t & 1 and g.mult[s][t] is not None})
    assert oracle.unit == table.unit
    big = GroupoidPowerset(GROUPOIDS["pair2xpair2"]())
    assert validate_quantale_sampled(big, random.Random(1), 20) is None


def test_matrix_max_3_is_decided(tmp_path, capsys):
    # the sampled sweep took over 400 s on Max M3(Q) -> Rel(3)
    report = tmp_path / "mm3.json"
    assert main(["example", "matrix-max", "--n", "3",
                 "--report", str(report)]) == 0
    assert capsys.readouterr().out.endswith(
        "suite (semiopen surjection with fr1 and fr2): ok\n")
    doc = ff.load_json(report)
    assert doc["checks"] == [{"check": "matrix-max-suite", "ok": True}]
    assert {c["mode"] for c in doc["frobenius"]["checks"]} == {"decided"}
    assert main(["report-verify", str(report)]) == 0


SUITE_MAPS = {
    **{f"matrix-max-{n}": (lambda n=n: matrix_support_map(n))
       for n in (1, 2, 3)},
    **{f"group-algebra-{name}": (lambda name=name: group_algebra_support_map(
        GROUPOIDS[name]())) for name in ("z2", "z3", "s3")},
}


@pytest.mark.parametrize("name", sorted(SUITE_MAPS))
def test_suite_reports_are_those_of_the_tabulated_target(name):
    # the battery reads G's table, and the report reads the target only
    # for names and the unit, which the oracle and the table share
    p = SUITE_MAPS[name]()
    assert isinstance(p.target, GroupoidPowerset)
    assert frobenius_report(p).to_json() == \
        frobenius_report(tabulated(p)).to_json()


def test_suites_build_no_tabulated_powerset(monkeypatch, tmp_path, capsys):
    # the cached builders too, so that no earlier build is reused
    def refused(*args, **kwargs):
        raise AssertionError("a suite built a tabulated powerset")
    for builder in ("powerset_quantale", "group_powerset_quantale",
                    "rel_quantale"):
        monkeypatch.setattr(ex, builder, refused)
    for argv in (["matrix-max", "--n", "3"], ["group-algebra", "--group", "s3"]):
        report = tmp_path / "suite.json"
        assert main(["example", *argv, "--report", str(report)]) == 0
        assert main(["report-verify", str(report)]) == 0
    assert not check_fr2(group_algebra_support_map(symmetric_group_3())).ok


def test_matrix_max_4_is_decided_on_the_oracle(tmp_path, capsys):
    # 16 arrows: Rel(4) has 65,536 elements and no table
    report = tmp_path / "mm4.json"
    assert main(["example", "matrix-max", "--n", "4",
                 "--report", str(report)]) == 0
    assert capsys.readouterr().out == (
        "  semiopen: ok\n  fr1: ok\n  fr1_right: ok\n  fr2: ok\n"
        "  direct_image_involution: ok\n  surjective: True\n"
        "suite (semiopen surjection with fr1 and fr2): ok\n")
    doc = ff.load_json(report)
    assert doc["checks"] == [{"check": "matrix-max-suite", "ok": True}]
    assert [(c["check"], c["mode"], c["evaluations"])
            for c in doc["frobenius"]["checks"]] == [
        ("semiopen", "decided", 0), ("fr1", "decided", 0),
        ("fr1_right", "decided", 0), ("fr2", "decided", 48),
        ("direct_image_involution", "decided", 0)]
    assert doc["frobenius"]["surjective_mode"] == "decided"
    assert main(["report-verify", str(report)]) == 0
    assert capsys.readouterr().out == "replayed 0 witnesses, 0 problems\n"
    # a planted fr2 failure at x = the full relation is replayed on the
    # oracle and found to hold
    zero = {"dim": 16, "basis": []}
    doc["checks"].append({"check": "fr2", "ok": False,
                          "witness": [zero, (1 << 16) - 1, zero]})
    doc["verdict"] = "violation"
    ff.save_json(report, doc)
    assert main(["report-verify", str(report)]) == 1
    assert "fr2: recorded failure does not replay" in capsys.readouterr().out
