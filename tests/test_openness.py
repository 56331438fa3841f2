from dataclasses import replace

import pytest

from quantales.examples import (cyclic_group, discrete_to_point_map,
                                group_algebra_support_map,
                                group_powerset_quantale, matrix_support_map,
                                omega_pair_projection_map, omega_quantale,
                                omega_support_map, open_inclusion_map,
                                sierpinski_closed_point_map,
                                standard_map_corpus,
                                z2_group_algebra_finite_map)
from quantales.openness import (MissingDirectImage, NotALocale, check_fr1,
                                check_fr2, check_locale_meet_lemma,
                                check_semiopen, frobenius_report,
                                is_locale_quantale)
from quantales.quantale import FiniteInvQuantale, QuantaleMap, identity_map
from quantales.subspaces import RationalSubspace

PZ2 = group_powerset_quantale(cyclic_group(2))


def test_identity_is_semiopen_and_frobenius():
    p = identity_map(PZ2)
    rep = frobenius_report(p)
    assert rep.semiopen.ok and rep.fr1.ok and rep.fr1_right.ok and rep.fr2.ok
    assert rep.surjective and rep.unit_identity
    assert rep.open_by_sufficient_condition


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
    p = matrix_support_map(2)
    rep = frobenius_report(p, pool=20)
    assert rep.semiopen.ok and rep.semiopen.mode == "sampled"
    assert rep.fr1.ok and rep.fr1_right.ok and rep.fr2.ok
    assert rep.surjective and rep.unit_identity
    assert rep.direct_image_involution.ok
    assert rep.hypothesis_for_pullback


def test_group_algebra_fr1_but_not_fr2():
    p = group_algebra_support_map(cyclic_group(2))
    rep = frobenius_report(p, pool=50)
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
        "matrix": frobenius_report(matrix_support_map(2), pool=15),
        "omega-support": frobenius_report(omega_support_map(PZ2)),
        "pair-projection": frobenius_report(omega_pair_projection_map()),
        "group-algebra": frobenius_report(
            group_algebra_support_map(cyclic_group(2)), pool=30),
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
    assert rep.wos_consistent and rep.fr2_forces_fr1


def test_fr2_implies_fr1_reports(lemma_reports):
    for name in ("matrix", "omega-support"):
        rep = lemma_reports[name]
        # the premises hold, so the lemma has content
        assert rep.fr2.ok and rep.unit_identity, name
        assert rep.fr2_forces_fr1 and rep.fr1.ok and rep.surjective, name
    vacuous = lemma_reports["group-algebra"]
    assert not vacuous.fr2.ok and vacuous.fr2_forces_fr1


def test_lemmas_read_the_battery_of_the_report(lemma_reports):
    # a report whose checks contradict a lemma makes its property false
    rep = lemma_reports["pair-projection"]
    assert not replace(rep, unit_identity=True).wos_consistent
    rep = lemma_reports["omega-support"]
    assert not replace(rep, fr1=replace(rep.fr1, ok=False)).fr2_forces_fr1


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


def test_sampled_checks_reproduce_from_the_seed():
    p = group_algebra_support_map(cyclic_group(2))
    enriched, _ = check_semiopen(p, pool=30, seed=9)
    first = check_fr2(enriched, pool=30, seed=9)
    second = check_fr2(enriched, pool=30, seed=9)
    assert first == second
    assert first.seed == 9 and first.mode == "sampled"


def test_large_finite_carriers_downgrade_to_sampling():
    # 512^2 * 512 evaluations would blow the cap, so the checker samples
    # and says so in the report
    from quantales.examples import rel_quantale
    r3 = rel_quantale(3)
    p = identity_map(r3)
    fr1 = check_fr1(p, pool=10, seed=0)
    assert fr1.ok and fr1.mode == "sampled-capped" and fr1.pool == 10
    assert fr1.seed == 0


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


def test_corpus_lemma_sweep():
    # on every corpus map: fr1 implies right fr1; the surjectivity
    # biconditional; and fr2 with the unit identity forces fr1 and
    # surjectivity
    for name, p in standard_map_corpus():
        rep = frobenius_report(p, pool=25)
        if not rep.semiopen.ok:
            continue
        if rep.fr1.ok:
            assert rep.fr1_right.ok, name
        assert rep.wos_consistent and rep.fr2_forces_fr1, name
