import itertools
import random
from collections import deque

import pytest

from quantales.examples import (cyclic_group, group_powerset_quantale,
                                omega_quantale, rel_quantale,
                                symmetric_group_3)
from quantales import nucleus
from quantales.nucleus import (InternalInvariantViolation, Nucleus,
                               RelationPresentation, nucleus_from_relation,
                               quotient, quotient_by_relation,
                               saturate_relation, saturated_elements)
from quantales.quantale import validate_hom

from _helpers import all_closure_operators, least_closure_identifying, \
    nucleus_failure, small_quantales, sup_maps_between, \
    three_clause_saturation

PZ2 = group_powerset_quantale(cyclic_group(2))
PZ3 = group_powerset_quantale(cyclic_group(3))


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
    assert nucleus_failure(PZ2, nuc.values) is None
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
        if nucleus_failure(PZ2, values) is not None:
            continue
        if any(values[r] != values[s] for r, s in presentation.pairs):
            continue
        assert all(PZ2.leq(nuc(a), values[a]) for a in PZ2.elements)


def _seeded_relations(count, seed):
    """(quantale, pairs): `count` relations of one to three pairs on each
    of the small corpus, Rel(2), P(Z/3) and P(S3)."""
    rng = random.Random(seed)
    quantales = [*small_quantales().values(), rel_quantale(2), PZ3,
                 group_powerset_quantale(symmetric_group_3())]
    return [(q, {(rng.choice(q.elements), rng.choice(q.elements))
                 for _ in range(rng.randint(1, 3))})
            for q in quantales for _ in range(count)]


def test_the_construction_satisfies_what_it_no_longer_checks():
    # the module docstring's argument: the saturated elements hold top and
    # are meet-closed, so j is a closure with them as its closed elements,
    # it identifies every saturated pair, and it is an involutive quantic
    # nucleus
    for q, pairs in _seeded_relations(6, 29):
        presentation = rel(q, pairs)
        sat = saturate_relation(presentation)
        closed = saturated_elements(q, sat)
        assert q.top in closed
        assert all(q.carrier.meet2(a, b) in closed
                   for a in closed for b in closed)
        j = nucleus_from_relation(presentation).values
        assert nucleus_failure(q, j) is None, (q, sorted(pairs))
        assert all(j[r] == j[s] for r, s in sat | presentation.pairs)
        assert closed == {a for a in q.elements if j[a] == a}


def test_quotient_names_an_involute_that_is_not_closed():
    # the closure of {{}, {g}, top} on P(Z/3): {g}* = {g2} is not closed
    family = (0, 2, 7)
    values = tuple(PZ3.meet(c for c in family if PZ3.leq(a, c))
                   for a in PZ3.elements)
    with pytest.raises(InternalInvariantViolation,
                       match=r"inv-closed fails at \(2,\)"):
        quotient(PZ3, Nucleus(PZ3, values))


def test_quotient_names_a_value_that_is_not_closed():
    # j(0) = {e}, but j({e}) = top: j is not idempotent
    values = (1, 7, 7, 7, 7, 7, 7, 7)
    with pytest.raises(InternalInvariantViolation,
                       match=r"j\(0\) = 1 is not a closed element above 0"):
        quotient(PZ3, Nucleus(PZ3, values))


def test_quotient_refuses_exactly_the_tables_that_are_not_nuclei():
    # every value table on P(Z/2), and every closure operator on P(Z/3) and
    # the small corpus: quotient raises InternalInvariantViolation iff the
    # brute-force predicate finds a broken nucleus law
    tables = [(PZ2, values)
              for values in itertools.product(PZ2.elements, repeat=4)]
    for q in [PZ3, *small_quantales().values()]:
        tables += [(q, values) for values in all_closure_operators(q.carrier)]
    refused = 0
    for q, values in tables:
        failure = nucleus_failure(q, values)
        if failure is None:
            quotient(q, Nucleus(q, values))
            continue
        with pytest.raises(InternalInvariantViolation):
            quotient(q, Nucleus(q, values))
        refused += 1
    assert 0 < refused < len(tables)


def _saturation_without(clause):
    """saturate_relation with its involution or its left-product clause
    left out."""
    def saturate(rel):
        q = rel.quantale
        done = set()
        todo = deque(rel.pairs)
        while todo:
            pair = todo.popleft()
            if pair in done:
                continue
            done.add(pair)
            r, s = pair
            if clause != "involution":
                todo.append((q.inv(r), q.inv(s)))
            if clause != "left-product":
                for a in q.elements:
                    todo.append((q.mult(a, r), q.mult(a, s)))
        return frozenset(done)
    return saturate


@pytest.mark.parametrize("clause", ["involution", "left-product"])
def test_quotient_refuses_a_planted_saturation_fault(monkeypatch, clause):
    # a saturation missing a clause gives fewer pairs, so its j is still a
    # closure identifying R and lies below the least nucleus identifying
    # R: it is a nucleus exactly when it is that least one.  So the
    # quotient's checks must refuse the relations whose j the fault
    # changes, and only those
    seeded = [(q, pairs) for q, pairs in _seeded_relations(20, 31)
              if q.size > 5]
    least = [nucleus_from_relation(rel(q, pairs)).values
             for q, pairs in seeded]
    monkeypatch.setattr(nucleus, "saturate_relation",
                        _saturation_without(clause))
    refused = 0
    for (q, pairs), values in zip(seeded, least):
        if nucleus_from_relation(rel(q, pairs)).values == values:
            quotient_by_relation(q, pairs)
            continue
        with pytest.raises(InternalInvariantViolation):
            quotient_by_relation(q, pairs)
        refused += 1
    assert refused > 0
