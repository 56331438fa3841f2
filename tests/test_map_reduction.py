"""The map laws of finite maps, swept on join-irreducibles, against the
sweep over all of Q (`map_law_swept` in _helpers): the finite corpus, the
identity of P(S3), seeded one-entry perturbations of p_!, some of which
are not sup-maps and must take the full sweep, and seeded perturbations
that stay sup-maps, so that the reduced sweep runs and sometimes fails.
Locale-meet is compared too on the maps between locales.  A planted
fault shows that the comparison catches a reduction taken without its
premise."""

import random

import pytest

from _helpers import map_law_swept
from quantales import quantale
from quantales.examples import (cyclic_group, group_powerset_quantale,
                                standard_map_corpus, symmetric_group_3)
from quantales.openness import (Check, FrobeniusReport, _swept,
                                check_direct_image_involution, check_fr1,
                                check_fr1_right, check_fr2,
                                check_locale_meet_lemma, check_semiopen,
                                is_locale_quantale)
from quantales.quantale import identity_map
from quantales.suplattice import SupMap, is_sup_map, join_irreducibles

CHECKS = {"semiopen": lambda p: check_semiopen(p)[1], "fr1": check_fr1,
          "fr1_right": check_fr1_right, "fr2": check_fr2,
          "direct_image_involution": check_direct_image_involution}


def _certified():
    """Name -> each finite map carrying its certified direct image."""
    maps = standard_map_corpus(include_effective=False)
    maps.append(("identity-PS3",
                 identity_map(group_powerset_quantale(symmetric_group_3()))))
    return {name: check_semiopen(p)[0] for name, p in maps}


CERTIFIED = _certified()


def _is_sup_map(p):
    values = [p.shriek(a) for a in p.source.elements]
    return is_sup_map(SupMap(p.source.carrier, p.target.carrier,
                             values)) is None


def _perturbed(p, seed):
    """p with one entry of its p_! table moved to another element."""
    rng = random.Random(seed)
    table = [p.shriek(a) for a in p.source.elements]
    a = rng.randrange(len(table))
    table[a] = rng.choice([x for x in p.target.elements if x != table[a]])
    return p.with_direct_image(tuple(table).__getitem__)


def _perturbed_sup_map(p, seed):
    """p with p_! moved at random on some join-irreducibles and extended
    by joins, a -> V{v(j) : j <= a}: a sup-map on a distributive carrier,
    whatever the values v on J."""
    rng = random.Random(seed)
    Q, X = p.source, p.target
    J = join_irreducibles(Q.carrier)
    v = {j: rng.choice([p.shriek(j), rng.choice(list(X.elements))])
         for j in J}
    table = tuple(X.join(v[j] for j in J if Q.leq(j, a)) for a in Q.elements)
    return p.with_direct_image(table.__getitem__)


def _agree(p):
    """Each law of p checks as the full sweep does, with no more
    evaluations; the reduction is recorded exactly on reduced passes."""
    reduces = _is_sup_map(p)
    for name, check in CHECKS.items():
        got, want = check(p), map_law_swept(name, p)
        assert (got.ok, got.witness, got.witness_display, got.mode) == \
            (want.ok, want.witness, want.witness_display, want.mode), name
        assert not {"pool", "seed"} & got.to_json().keys()
        if got.ok and reduces:
            assert got.reduction == "join-irreducibles", name
            assert got.evaluations <= want.evaluations, name
        else:
            assert got.reduction is None, name
            assert got.evaluations == want.evaluations, name
    if is_locale_quantale(p.source) and is_locale_quantale(p.target):
        _locale_meet_agrees(p)
    return reduces


def test_every_corpus_map_is_certified_with_a_sup_map():
    assert all(p is not None and _is_sup_map(p) for p in CERTIFIED.values())
    assert all(p.source._validated and p.target._validated
               for p in CERTIFIED.values())


@pytest.mark.parametrize("name", CERTIFIED)
def test_corpus_map_laws_agree_with_the_full_sweep(name):
    assert _agree(CERTIFIED[name])


def test_identity_of_ps3_sweeps_fr2_on_join_irreducibles():
    p = CERTIFIED["identity-PS3"]
    got, want = check_fr2(p), map_law_swept("fr2", p)
    # P(S3) has 64 elements, 6 of them join-irreducible
    assert want.evaluations == 64 ** 3 == 262144
    assert got.ok and got.evaluations == 6 * 64 * 6


@pytest.mark.parametrize("name", CERTIFIED)
def test_perturbed_direct_images_agree_with_the_full_sweep(name):
    reduced = [_agree(_perturbed(CERTIFIED[name], f"{name}:{k}"))
               for k in range(6)]
    # a one-entry change to a sup-map's table breaks it as a rule
    assert not all(reduced)


def test_sup_map_perturbations_agree_and_some_fail_semiopen_on_j():
    failed_on_j = 0
    for name, p in CERTIFIED.items():
        for k in range(6):
            q = _perturbed_sup_map(p, f"{name}:{k}")
            if _agree(q) and not check_semiopen(q)[1].ok:
                failed_on_j += 1  # a sup-map: the J sweep found the witness
    assert failed_on_j > 0


def _not_a_sup_map_of_pz2():
    """The identity of P(Z/2) with p_! = (0, 1, 2, 0): right on J(Q) =
    {{e}, {g}}, but p_!({e,g}) is {} rather than {e} v {g}."""
    pz2 = group_powerset_quantale(cyclic_group(2))
    return identity_map(pz2).with_direct_image((0, 1, 2, 0).__getitem__)


def test_planted_fault_a_reduction_without_its_premise_is_caught(monkeypatch):
    # swept in full, semiopen fails off J; taken as a sup-map, p passes
    # semiopen on J, and the comparison with the full sweep catches it
    assert not _agree(_not_a_sup_map_of_pz2())
    assert check_semiopen(_not_a_sup_map_of_pz2())[1].witness_display == \
        "a={e,g}, x={}"
    monkeypatch.setattr(quantale._HomFacts, "sup_map", True)
    with pytest.raises(AssertionError, match="semiopen"):
        _agree(_not_a_sup_map_of_pz2())


def test_perturbations_cover_sup_maps_and_tables_that_are_not():
    kinds = {_is_sup_map(_perturbed(p, f"{name}:{k}"))
             for name, p in CERTIFIED.items() for k in range(6)}
    assert kinds == {True, False}


# -- locale-meet ------------------------------------------------------------------

LOCALE_MAPS = {name: p for name, p in CERTIFIED.items()
               if is_locale_quantale(p.source) and is_locale_quantale(p.target)}


def _locale_meet_agrees(p):
    """The locale-meet check of p agrees with the full sweep in verdict,
    witness and display, with no more evaluations; the reduction is
    recorded exactly on reduced passes.  So does `check_locale_meet_lemma`
    on a report certifying p with fr2 taken to pass (fr2 fails on two of
    the locale maps).  Returns the verdict."""
    got, want = _swept("locale-meet", p), map_law_swept("locale-meet", p)
    assert (got.ok, got.witness, got.witness_display, got.mode) == \
        (want.ok, want.witness, want.witness_display, want.mode)
    if got.ok and _is_sup_map(p):
        assert got.reduction == "join-irreducibles"
        assert got.evaluations <= want.evaluations
    else:
        assert got.reduction is None and got.evaluations == want.evaluations
    lm = check_locale_meet_lemma(FrobeniusReport(
        p.name, p, Check("semiopen", True), fr2=Check("fr2", True)))
    assert (lm.meet_preserved, lm.witness) == (want.ok, want.witness)
    return got.ok


def test_locale_meet_verdicts_of_the_corpus_locale_maps():
    # the three locale examples of the command line, and two maps of
    # Omega; p_! of the two-point space onto the point fails, because
    # {x} meet {y} is bottom and both points go to the top
    verdicts = {name: _locale_meet_agrees(p)
                for name, p in LOCALE_MAPS.items()}
    assert verdicts == {"discrete2-to-point": False,
                        "omega-pair-projection": True,
                        "omega-support-Omega": True, "open-inclusion": True,
                        "sierpinski-closed-point": True}


def test_sup_map_perturbations_of_locale_maps_agree_with_the_full_sweep():
    verdicts = set()
    for name, p in LOCALE_MAPS.items():
        for k in range(8):
            q = _perturbed_sup_map(p, f"{name}:{k}")
            assert _is_sup_map(q)
            verdicts.add((name, _locale_meet_agrees(q)))
    # a failure found on J is confirmed and reported by the full sweep; on
    # a chain a monotone p_! preserves meets, and the two-point space is
    # the only source here that is not a chain
    assert {v for _, v in verdicts} == {True, False}
    assert {name for name, v in verdicts if not v} == {"discrete2-to-point"}
