import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quantales.examples import cyclic_group, group_powerset_quantale
from quantales.suplattice import FiniteSupLattice, is_sup_map
from quantales.tensor import (EnumerationBoundExceeded, NotBimorphism,
                              TensorLattice, check_bimorphism,
                              induced_from_bimorphism, swap_map, unit_iso)

from _helpers import (check_bi_ideal_invariants, corpus_lattices,
                      pairwise_tensor_close, pairwise_tensor_elements,
                      sup_maps_between)

TWO = FiniteSupLattice.chain(2)
CORPUS = corpus_lattices()
PAIRS = [pair for pair in itertools.product(CORPUS, repeat=2)
         if CORPUS[pair[0]].size * CORPUS[pair[1]].size <= 64]


def test_omega_tensor_omega_has_two_elements():
    T = TensorLattice((TWO, TWO))
    els = T.elements()
    assert len(els) == 2
    assert T.bottom in els and T.top in els


def test_pure_tensor_with_bottom_coordinate_is_bottom():
    T = TensorLattice((TWO, CORPUS["chain3"]))
    assert T.pure((0, 2)) == T.bottom
    assert T.pure((1, 0)) == T.bottom


def test_pure_tensor_of_top_pair_is_top():
    T = TensorLattice((TWO, TWO))
    assert T.pure((1, 1)) == T.top


def test_pure_tensor_monotone():
    L = CORPUS["powerset2"]
    T = TensorLattice((L, L))
    for t in T.grid():
        for u in T.grid():
            if all(L.leq(a, b) for a, b in zip(t, u)):
                assert T.pure(t).leq(T.pure(u))


def test_closure_equals_direct_pure_formula():
    L = CORPUS["diamond"]
    T = TensorLattice((TWO, L))
    for t in T.grid():
        assert T.close([t]) == T.pure(t)


@pytest.mark.parametrize("factors", [("chain2", "chain3"),
                                     ("powerset2", "chain2"),
                                     ("chain3", "chain3")])
def test_bi_ideal_invariants_hold_on_enumeration(factors):
    lats = tuple(CORPUS[f] for f in factors)
    T = TensorLattice(lats)
    for g in T.elements():
        check_bi_ideal_invariants(g)


@pytest.mark.parametrize("factors", [
    *PAIRS, ("chain2", "chain3", "powerset2"), ("chain3", "diamond", "chain2"),
    ("pentagon", "chain2", "diamond")],
    ids="-".join)
def test_enumeration_agrees_with_the_pairwise_oracle(factors):
    # the trace closure reaches every bi-ideal and no other set, including
    # on the non-distributive diamond (M3) and pentagon (N5), where the
    # join of a line exceeds the union of its down-sets
    lats = tuple(CORPUS[f] for f in factors)
    assert TensorLattice(lats).elements() == \
        pairwise_tensor_elements(TensorLattice(lats))


@pytest.mark.parametrize("factors", [
    ("diamond", "pentagon"), ("pentagon", "grid3x2"), ("powerset2", "chain4"),
    ("chain3", "diamond", "chain2")], ids="-".join)
def test_closure_agrees_with_the_pairwise_oracle(factors):
    T = TensorLattice(tuple(CORPUS[f] for f in factors))
    grid = list(T.grid())
    for t in grid:
        assert T.pure(t) == pairwise_tensor_close(T, [t])
    rng = random.Random(22)
    for _ in range(40):
        seed = rng.sample(grid, rng.randint(0, 6))
        assert T.close(seed) == pairwise_tensor_close(T, seed)


@st.composite
def closure_systems(draw, min_sets, max_sets):
    """The lattice of an intersection-closed family of subsets of a
    3-element set with the whole set on top: the drawn sets, the whole
    set and every intersection of them.  Three drawn sets reach the
    diamond (three disjoint singletons) and the pentagon."""
    family = {0b111, *draw(st.sets(st.integers(1, 0b110),
                                   min_size=min_sets, max_size=max_sets))}
    while True:
        meets = {a & b for a in family for b in family} - family
        if not meets:
            break
        family |= meets
    return FiniteSupLattice.from_sets(
        [{e for e in range(3) if m >> e & 1} for m in sorted(family)])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(closure_systems(3, 4), closure_systems(1, 2))
def test_enumeration_agrees_with_the_oracle_on_closure_systems(left, right):
    T = TensorLattice((left, right))
    assert T.elements() == pairwise_tensor_elements(T)


def test_pure_tensors_join_generate():
    L = CORPUS["powerset2"]
    T = TensorLattice((TWO, L))
    for g in T.elements():
        assert T.join([T.pure(t) for t in g.members]) == g


def test_meet_is_intersection_and_join_closes_union():
    L = CORPUS["chain3"]
    T = TensorLattice((L, L))
    els = T.elements()
    for g, h in itertools.product(els, repeat=2):
        m = g.meet(h)
        assert m in els
        j = T.join([g, h])
        assert j in els
        assert g.leq(j) and h.leq(j)
        assert m.leq(g) and m.leq(h)


@pytest.mark.parametrize("name", ["chain1", "chain2", "chain3", "chain4",
                                  "chain5", "powerset2", "diamond",
                                  "pentagon"])
def test_unit_tensor_collapse(name):
    L = CORPUS[name]
    T = TensorLattice((TWO, L))
    to_l, from_l = unit_iso(T)
    assert is_sup_map(to_l) is None
    assert is_sup_map(from_l) is None
    assert [to_l.values[from_l.values[l]] for l in L.elements] == \
        list(L.elements)
    n = len(T.elements())
    assert [from_l.values[to_l.values[i]] for i in range(n)] == list(range(n))


def test_swap_symmetry():
    L, M = CORPUS["chain3"], CORPUS["powerset2"]
    T = TensorLattice((L, M))
    T_rev = TensorLattice((M, L))
    swapped = {swap_map(T_rev, g) for g in T.elements()}
    assert swapped == set(T_rev.elements())


def test_meet_bimorphism_induces_the_collapse():
    # binary meet on the two-element lattice is a bimorphism whose induced
    # map realizes the unit collapse
    target = TWO
    b = lambda t: min(t)
    fn, sup = induced_from_bimorphism(b, (TWO, TWO), target)
    T = TensorLattice((TWO, TWO))
    assert fn(T.bottom) == 0 and fn(T.top) == 1
    assert sup is not None


def test_constant_bottom_bimorphism():
    fn, sup = induced_from_bimorphism(lambda t: 0, (TWO, TWO), TWO)
    T = TensorLattice((TWO, TWO))
    assert fn(T.top) == 0


def test_quantale_multiplication_is_a_bimorphism():
    q = group_powerset_quantale(cyclic_group(2))
    assert check_bimorphism(lambda t: q.mult(*t),
                            (q.carrier, q.carrier), q.carrier) is None


def test_join_is_not_a_bimorphism():
    # the empty join in one coordinate is not preserved by coordinate join
    w = check_bimorphism(lambda t: TWO.join2(*t), (TWO, TWO), TWO)
    assert w is not None


def test_not_bimorphism_raises():
    with pytest.raises(NotBimorphism):
        induced_from_bimorphism(lambda t: TWO.join2(*t), (TWO, TWO), TWO)


def _or_bimorphism(dom_l, dom_m, target, s, t):
    def b(pair):
        l, m = pair
        if l == dom_l.bottom or m == dom_m.bottom:
            return target.bottom
        return target.join2(s.values[l], t.values[m])
    return b


def test_universal_property_on_seeded_random_bimorphisms():
    rng = random.Random(7)
    names = ["chain2", "chain3", "chain4", "powerset2"]
    cache = {}
    for _ in range(30):
        ln, mn, tn = (rng.choice(names) for _ in range(3))
        L, M, N = CORPUS[ln], CORPUS[mn], CORPUS[tn]
        smaps = cache.setdefault((ln, tn), sup_maps_between(L, N))
        tmaps = cache.setdefault((mn, tn), sup_maps_between(M, N))
        b = _or_bimorphism(L, M, N, rng.choice(smaps), rng.choice(tmaps))
        fn, sup = induced_from_bimorphism(b, (L, M), N)
        T = TensorLattice((L, M))
        for t in T.grid():
            assert fn(T.pure(t)) == b(t)
        assert sup is not None and is_sup_map(sup) is None
        # join-generation makes the extension unique among sup-maps
        for g in T.elements():
            assert fn(g) == N.join(b(t) for t in g.members)


def test_enumeration_bound():
    L = CORPUS["chain3"]
    T = TensorLattice((L, L), bound=4)
    # past the bound no bi-ideal can be built, as the error message says
    for build in (T.elements, lambda: T.pure((1, 1)), lambda: T.bottom,
                  lambda: T.top, lambda: T.close([(1, 1)]),
                  lambda: T.join([])):
        with pytest.raises(EnumerationBoundExceeded,
                           match="only meets and order tests of given ones"):
            build()
    # while meets and order tests of given bi-ideals still work
    whole = TensorLattice((L, L))
    a, b = whole.pure((1, 2)), whole.pure((2, 1))
    assert a.meet(b) == whole.pure((1, 1)) and whole.pure((1, 1)).leq(a)
