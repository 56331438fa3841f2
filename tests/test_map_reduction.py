"""The map laws of finite maps, swept on join-irreducibles, against the
sweep over all of Q (`map_law_swept` in _helpers): the finite corpus, the
identity of P(S3) and seeded one-entry perturbations of p_!, some of which
are not sup-maps and must take the full sweep."""

import random

import pytest

from _helpers import map_law_swept
from quantales.examples import (group_powerset_quantale, standard_map_corpus,
                                symmetric_group_3)
from quantales.openness import (check_direct_image_involution, check_fr1,
                                check_fr1_right, check_fr2, check_semiopen)
from quantales.quantale import identity_map
from quantales.suplattice import SupMap, is_sup_map

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


def _agree(p):
    """Each law of p checks as the full sweep does, with no more
    evaluations; the reduction is recorded exactly on reduced passes."""
    reduces = _is_sup_map(p)
    for name, check in CHECKS.items():
        got, want = check(p), map_law_swept(name, p)
        assert (got.ok, got.witness, got.witness_display, got.mode) == \
            (want.ok, want.witness, want.witness_display, want.mode), name
        assert not {"pool", "seed"} & got.to_json().keys()
        if got.ok and reduces and name != "semiopen":
            assert got.reduction == "join-irreducibles", name
            assert got.evaluations <= want.evaluations, name
        else:
            assert got.reduction is None, name
            assert got.evaluations == want.evaluations, name
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


def test_perturbations_cover_sup_maps_and_tables_that_are_not():
    kinds = {_is_sup_map(_perturbed(p, f"{name}:{k}"))
             for name, p in CERTIFIED.items() for k in range(6)}
    assert kinds == {True, False}
