import itertools
import random

import pytest

from quantales.examples import (cyclic_group, group_powerset_quantale,
                                omega_quantale, rel_quantale,
                                symmetric_group_3)
from quantales.nucleus import (Nucleus, RelationPresentation,
                               nucleus_from_relation, quotient,
                               quotient_by_relation, saturate_relation,
                               saturated_elements)
from quantales.quantale import validate_hom

from _helpers import least_closure_identifying, small_quantales, \
    sup_maps_between, three_clause_saturation

PZ2 = group_powerset_quantale(cyclic_group(2))


def rel(q, pairs):
    return RelationPresentation(q, frozenset(pairs))


def test_saturation_of_empty_relation_is_empty():
    assert saturate_relation(rel(PZ2, [])) == frozenset()


def test_saturation_of_e_g_pair():
    sat = saturate_relation(rel(PZ2, [(1, 2)]))
    assert sat == {(0, 0), (1, 2), (2, 1), (3, 3)}
    # involution closure holds for every pair
    for r, s in sat:
        assert (PZ2.inv(r), PZ2.inv(s)) in sat


def test_saturation_closed_under_one_sided_products():
    rng = random.Random(3)
    for _ in range(10):
        pairs = {(rng.randrange(4), rng.randrange(4))}
        sat = saturate_relation(rel(PZ2, pairs))
        for (r, s), a in itertools.product(sat, PZ2.elements):
            assert (PZ2.mult(a, r), PZ2.mult(a, s)) in sat
            assert (PZ2.mult(r, a), PZ2.mult(s, a)) in sat


def test_saturation_matches_the_three_clause_closure():
    # closing under involution and left products also closes under right
    # products: (r a, s a) = ((a* r*)*, (a* s*)*).  The small corpus is
    # commutative and its involutions fix every atom, so Rel(2), P(Z/3)
    # and P(S3) are what tell the clauses apart
    rng = random.Random(17)
    quantales = [*small_quantales().values(), rel_quantale(2),
                 group_powerset_quantale(cyclic_group(3)),
                 group_powerset_quantale(symmetric_group_3())]
    for q in quantales:
        for _ in range(20):
            pairs = {(rng.choice(q.elements), rng.choice(q.elements))
                     for _ in range(rng.randint(1, 3))}
            assert saturate_relation(rel(q, pairs)) == \
                three_clause_saturation(q, pairs)


def test_left_only_saturation_gives_the_same_saturated_elements():
    # saturate_relation closes under involution and left products only; it
    # must cut out the same elements as the closure that adds right products
    for q in small_quantales().values():
        for r, s in itertools.product(q.elements, repeat=2):
            left_only = saturate_relation(rel(q, [(r, s)]))
            two_sided = three_clause_saturation(q, [(r, s)])
            assert saturated_elements(q, left_only) == \
                saturated_elements(q, two_sided)


def test_saturated_elements():
    assert saturated_elements(PZ2, frozenset()) == frozenset(PZ2.elements)
    sat = saturate_relation(rel(PZ2, [(1, 2)]))
    assert saturated_elements(PZ2, sat) == {0, 3}


def test_nucleus_values():
    assert nucleus_from_relation(rel(PZ2, [])).values == (0, 1, 2, 3)
    assert nucleus_from_relation(rel(PZ2, [(1, 2)])).values == (0, 3, 3, 3)
    # identifying bottom with top collapses everything
    assert nucleus_from_relation(rel(PZ2, [(0, 3)])).values == (3, 3, 3, 3)


def test_nucleus_validates_its_laws():
    nuc = nucleus_from_relation(rel(PZ2, [(1, 2)]))
    nuc.validate()
    j = nuc.values
    for a, b in itertools.product(PZ2.elements, repeat=2):
        assert PZ2.leq(PZ2.mult(j[a], j[b]), j[PZ2.mult(a, b)])
        assert j[PZ2.inv(a)] == PZ2.inv(j[a])


def test_quotient_by_identity_nucleus_is_isomorphic():
    qq, hom = quotient_by_relation(PZ2, [])
    assert qq.quantale.size == PZ2.size
    assert qq.quantale == PZ2


def test_quotient_of_pz2_is_omega():
    qq, hom = quotient_by_relation(PZ2, [(1, 2)])
    assert qq.quantale.size == 2
    assert qq.quantale == omega_quantale()
    assert hom.values == (0, 1, 1, 1)
    v = validate_hom(lambda a: hom.values[a], PZ2, qq.quantale)
    assert v is None


def test_quotient_constant_top_is_trivial():
    qq, _ = quotient_by_relation(PZ2, [(0, 3)])
    assert qq.quantale.size == 1


def test_quotient_roundtrip_recovers_the_nucleus():
    # the closed element of a's class is the nucleus at a, pointwise
    nuc = nucleus_from_relation(rel(PZ2, [(1, 2)]))
    qq, hom = quotient(PZ2, nuc)
    for a in PZ2.elements:
        assert qq.closed[hom.values[a]] == nuc(a)


def test_factorization_equivalence_oracle():
    # a sup-map is constant on the fibers of the nucleus iff it identifies
    # every saturated pair
    om = omega_quantale()
    presentation = rel(PZ2, [(1, 2)])
    nuc = nucleus_from_relation(presentation)
    sat = saturate_relation(presentation)
    for h in sup_maps_between(PZ2.carrier, om.carrier):
        on_fibers = all(h.values[a] == h.values[nuc(a)] for a in PZ2.elements)
        on_pairs = all(h.values[r] == h.values[s] for r, s in sat)
        assert on_fibers == on_pairs


@pytest.mark.parametrize("name", sorted(small_quantales()))
def test_nucleus_matches_least_closure_oracle(name):
    q = small_quantales()[name]
    pairs_pool = [(r, s) for r in q.elements for s in q.elements if r != s]
    rng = random.Random(0)
    picks = [frozenset([p]) for p in pairs_pool]
    picks += [frozenset(rng.sample(pairs_pool, 2)) for _ in range(3)]
    for pairs in picks:
        presentation = rel(q, pairs)
        nuc = nucleus_from_relation(presentation)
        sat = saturate_relation(presentation)
        oracle = least_closure_identifying(q, sat)
        assert nuc.values == oracle, (name, sorted(pairs))


def test_nucleus_is_least_among_valid_identifying_nuclei():
    presentation = rel(PZ2, [(1, 2)])
    nuc = nucleus_from_relation(presentation)
    closed = saturated_elements(PZ2, saturate_relation(presentation))
    # closures from meet-closed subfamilies of the saturated set that happen
    # to satisfy the nucleus laws are all above the least one
    for bits in range(1 << PZ2.size):
        family = [c for c in closed if bits >> c & 1]
        if PZ2.top not in family:
            continue
        if any(PZ2.carrier.meet2(a, b) not in family
               for a in family for b in family):
            continue
        values = tuple(PZ2.meet(c for c in family if PZ2.leq(a, c))
                       for a in PZ2.elements)
        candidate = Nucleus(PZ2, values)
        try:
            candidate.validate()
        except Exception:
            continue
        if any(values[r] != values[s] for r, s in presentation.pairs):
            continue
        assert all(PZ2.leq(nuc(a), values[a]) for a in PZ2.elements)

