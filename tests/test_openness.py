import pytest

from quantales import quantale
from quantales.examples import (cyclic_group, discrete_to_point_map,
                                group_algebra_support_map,
                                group_powerset_quantale, matrix_support_map,
                                omega_pair_projection_map, omega_quantale,
                                omega_support_map, open_inclusion_map,
                                sierpinski_closed_point_map,
                                standard_map_corpus, symmetric_group_3,
                                z2_group_algebra_finite_map)
from quantales.openness import (MissingDirectImage, NotALocale, check_fr1,
                                check_fr2, check_locale_meet_lemma,
                                check_semiopen, frobenius_report,
                                is_locale_quantale)
from quantales.quantale import (FiniteInvQuantale, QuantaleMap, identity_map,
                                is_surjective, validate_hom)
from quantales.subspaces import RationalSubspace

from _helpers import (fr2_forces_fr1, map_battery_swept, matrix_max_handles,
                      probe_pools, tabulated)

PZ2 = group_powerset_quantale(cyclic_group(2))


def test_identity_is_semiopen_and_frobenius():
    p = identity_map(PZ2)
    rep = frobenius_report(p)
    assert rep.semiopen.ok and rep.fr1.ok and rep.fr1_right.ok and rep.fr2.ok
    assert rep.surjective and rep.unit_identity
    assert rep.open_by_sufficient_condition


def test_the_battery_decides_that_p_shriek_is_a_sup_map_once(monkeypatch):
    # one facts object per map serves every check of its battery: fr1,
    # fr1_right, fr2 and the involution of p_! all sweep on J(Q)
    ps3 = group_powerset_quantale(symmetric_group_3())
    real, calls = quantale.preserves_joins_on_j, []
    monkeypatch.setattr(quantale, "preserves_joins_on_j",
                        lambda *args: calls.append(args) or real(*args))
    rep = frobenius_report(identity_map(ps3))
    assert [c.reduction for c in (rep.fr1, rep.fr1_right, rep.fr2,
                                  rep.direct_image_involution)] == \
        ["join-irreducibles"] * 4
    assert len(calls) == 1


def test_sierpinski_closed_point_semiopen_with_fr1_witness():
    p = sierpinski_closed_point_map()
    enriched, semi = check_semiopen(p)
    assert semi.ok
    # direct image sends the point's top to the top of the three-chain
    assert [enriched.shriek(a) for a in p.source.elements] == [0, 2]
    fr1 = check_fr1(enriched)
    assert not fr1.ok and fr1.witness == (1, 1)
    # the witness violates the defining equation when re-evaluated
    Q, X = enriched.source, enriched.target
    a, x = fr1.witness
    assert enriched.shriek(Q.mult(a, enriched.star(x))) != \
        X.mult(enriched.shriek(a), x)


def test_discrete_to_point_fr2_witness():
    p, _ = check_semiopen(discrete_to_point_map(2))
    assert check_fr1(p).ok
    fr2 = check_fr2(p)
    assert not fr2.ok and fr2.witness == (1, 1, 2)


def test_open_inclusion_passes_fr2_and_preserves_meets():
    p = open_inclusion_map()
    rep = frobenius_report(p)
    assert rep.fr1.ok and rep.fr2.ok and not rep.surjective
    lm = check_locale_meet_lemma(rep)
    assert lm.applicable and lm.meet_preserved


def test_locale_meet_lemma_not_applicable_when_fr2_fails():
    lm = check_locale_meet_lemma(frobenius_report(discrete_to_point_map(2)))
    assert not lm.applicable and lm.meet_preserved is None


def test_locale_meet_lemma_rejects_non_locales():
    with pytest.raises(NotALocale):
        check_locale_meet_lemma(frobenius_report(identity_map(PZ2)))
    assert is_locale_quantale(omega_quantale())
    assert not is_locale_quantale(PZ2)


def test_matrix_support_map_full_profile():
    # decided from the pair groupoid's table, and swept without it
    p = matrix_support_map(2)
    rep = frobenius_report(p)
    assert rep.semiopen.ok and rep.semiopen.mode == "decided"
    assert rep.surjective_mode == "decided"
    assert rep.fr1.ok and rep.fr1_right.ok and rep.fr2.ok
    assert rep.surjective and rep.unit_identity
    assert rep.direct_image_involution.ok
    assert rep.hypothesis_for_pullback
    q = tabulated(p).replace(groupoid=None)
    swept = map_battery_swept(q, probe_pools(q, 20, 0, matrix_max_handles(2)))
    assert all(c.ok and c.mode == "sampled" for c in swept)
    e = q.target.unit
    assert is_surjective(q) and q.shriek(q.star(e)) == e


def test_group_algebra_fr1_but_not_fr2():
    p = group_algebra_support_map(cyclic_group(2))
    rep = frobenius_report(p)
    assert rep.fr1.ok and rep.fr1_right.ok and rep.surjective
    assert not rep.fr2.ok
    a, x, b = rep.fr2.witness
    assert (a, x, b) == (RationalSubspace.from_vectors(2, [(1, 1)]), 1,
                        RationalSubspace.from_vectors(2, [(1, -1)]))
    assert not rep.open_by_sufficient_condition


@pytest.fixture(scope="module")
def lemma_reports():
    # one report per map, read by every lemma test below
    return {
        "matrix": frobenius_report(matrix_support_map(2)),
        "omega-support": frobenius_report(omega_support_map(PZ2)),
        "pair-projection": frobenius_report(omega_pair_projection_map()),
        "group-algebra": frobenius_report(
            group_algebra_support_map(cyclic_group(2))),
    }


def test_wos_biconditional_three_ways(lemma_reports):
    # surjective with the unit identity
    m = lemma_reports["matrix"]
    assert m.weakly_open and m.unit_identity and m.surjective
    assert m.wos_consistent
    # omega support on the powerset
    w2 = lemma_reports["omega-support"]
    assert w2.unit_identity and w2.surjective and w2.wos_consistent
    # not surjective, and the unit identity fails too
    w3 = lemma_reports["pair-projection"]
    assert w3.weakly_open and not w3.unit_identity and not w3.surjective
    assert w3.wos_consistent


def test_wos_requires_a_unit():
    # without a unit there is no unit identity, and the lemma says nothing
    stripped = FiniteInvQuantale(PZ2.carrier, PZ2.mult_table, PZ2.inv_table)
    p = QuantaleMap.from_table(PZ2, stripped, tuple(PZ2.elements))
    rep = frobenius_report(p)
    assert rep.weakly_open and rep.surjective
    assert rep.unit_identity is None
    assert rep.wos_consistent and fr2_forces_fr1(rep)


def test_fr2_implies_fr1_reports(lemma_reports):
    for name in ("matrix", "omega-support"):
        rep = lemma_reports[name]
        # the premises hold, so the lemma has content
        assert rep.fr2.ok and rep.unit_identity, name
        assert fr2_forces_fr1(rep) and rep.fr1.ok and rep.surjective, name
    vacuous = lemma_reports["group-algebra"]
    assert not vacuous.fr2.ok and fr2_forces_fr1(vacuous)


def test_lemmas_read_the_battery_of_the_report(lemma_reports):
    # a report whose checks contradict a lemma makes its property false
    rep = lemma_reports["pair-projection"]
    assert not rep.replace(unit_identity=True).wos_consistent
    rep = lemma_reports["omega-support"]
    assert not fr2_forces_fr1(rep.replace(fr1=rep.fr1.replace(ok=False)))


def test_report_keeps_the_map_it_certified():
    rep = frobenius_report(sierpinski_closed_point_map())
    assert [rep.certified.shriek(a) for a in rep.certified.source.elements] \
        == [0, 2]
    stripped = QuantaleMap.from_table(PZ2, omega_quantale(), (0, 1))
    assert frobenius_report(stripped).certified is None


def test_missing_direct_image_on_effective_carrier():
    p = matrix_support_map(2)
    stripped = QuantaleMap(p.source, p.target, p.inverse_image)
    with pytest.raises(MissingDirectImage):
        check_semiopen(stripped)


def test_large_finite_carriers_are_swept_on_join_irreducibles():
    # Rel(3) has 512 elements and 9 join-irreducibles: every check of the
    # battery is exhaustive, and each sweeps its Q-arguments on J(Q)
    from quantales.examples import rel_quantale
    rep = frobenius_report(identity_map(rel_quantale(3)))
    checks = (rep.semiopen, rep.fr1, rep.fr1_right, rep.fr2,
              rep.direct_image_involution)
    assert all(c.ok and c.mode == "exhaustive" for c in checks)
    assert not any({"pool", "seed"} & c.to_json().keys() for c in checks)
    assert rep.semiopen.evaluations == 9 * 512
    assert all(c.reduction == "join-irreducibles" for c in checks)
    assert rep.fr2.evaluations == 9 * 512 * 9
    assert rep.fr2.to_json()["reduction"] == "join-irreducibles"


def test_fragment_matches_ambient_support_map():
    # the finite restriction reproduces the ambient verdicts exactly
    p = z2_group_algebra_finite_map()
    rep = frobenius_report(p)
    assert rep.semiopen.ok and rep.fr1.ok and rep.fr1_right.ok
    assert rep.surjective and not rep.fr2.ok
    names = (p.source.name_of(rep.fr2.witness[0]),
             p.target.name_of(rep.fr2.witness[1]),
             p.source.name_of(rep.fr2.witness[2]))
    assert names == ("span{[1,1]}", "{e}", "span{[1,-1]}")


def test_fr1_and_fr1_right_agree_when_p_star_preserves_the_involution():
    # why the fr1 label of head_q and mid_yq suffices: with p* an
    # involutive homomorphism, p_!(a*) = p_!(a)*, and fr1_right at (a, x)
    # is fr1 at (a*, x*) under the involution.  validate_hom refuses an
    # effective target, so only the finite maps pass it
    checked = 0
    for name, p in standard_map_corpus():
        try:
            if validate_hom(p.star, p.target, p.source) is not None:
                continue
        except quantale.Undecidable:
            continue
        rep = frobenius_report(p)
        assert (rep.fr1 is None) == (rep.fr1_right is None), name
        if rep.fr1 is not None:
            assert rep.fr1.ok == rep.fr1_right.ok, name
            checked += 1
    assert checked == 8


def test_corpus_lemma_sweep():
    # on every corpus map: fr1 implies right fr1; the surjectivity
    # biconditional; and fr2 with the unit identity forces fr1 and
    # surjectivity
    for name, p in standard_map_corpus():
        rep = frobenius_report(p)
        # the pullback hypothesis is the paper's sufficient condition
        assert rep.hypothesis_for_pullback == \
            rep.open_by_sufficient_condition, name
        if not rep.semiopen.ok:
            continue
        if rep.fr1.ok:
            assert rep.fr1_right.ok, name
        assert rep.wos_consistent and fr2_forces_fr1(rep), name
