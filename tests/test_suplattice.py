import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quantales.suplattice import (FiniteSupLattice, MissingJoin, NoBottom,
                                  NoLeftAdjoint, NotAPartialOrder,
                                  NotSupPreserving, SupMap,
                                  distributive_peeling, is_sup_map,
                                  join_irreducibles, left_adjoint,
                                  right_adjoint, validate_lattice)

from _helpers import brute_force_join, brute_force_left_adjoints, \
    brute_force_meet, closure_failure, corpus_lattices, leq_pairs, \
    sup_maps_between

CORPUS = corpus_lattices()


def test_two_chain_join_is_max():
    lat = validate_lattice([(0, 1)], size=2)
    assert lat.bottom == 0 and lat.top == 1
    for i, j in itertools.product(range(2), repeat=2):
        assert lat.join2(i, j) == max(i, j)
        assert lat.meet2(i, j) == min(i, j)


def test_transitivity_failure_reported_with_witness():
    with pytest.raises(NotAPartialOrder) as err:
        validate_lattice([(0, 1), (1, 2)], size=3)
    assert err.value.axiom == "transitivity"
    i, j, k = err.value.witness
    assert (i, k) == (0, 2)


def test_antisymmetry_failure():
    with pytest.raises(NotAPartialOrder) as err:
        validate_lattice([(0, 1), (1, 0)], size=2)
    assert err.value.axiom == "antisymmetry"


def test_no_bottom():
    with pytest.raises(NoBottom):
        validate_lattice([], size=2)


def test_missing_join():
    # bottom plus two incomparable atoms, no common upper bound
    with pytest.raises(MissingJoin) as err:
        validate_lattice([(0, 1), (0, 2)], size=3)
    assert err.value.witness == (1, 2)


def test_powerset_joins_are_unions():
    lat = FiniteSupLattice.powerset(2)
    assert lat.join2(0b01, 0b10) == 0b11
    assert lat.join([]) == 0
    assert lat.join([0b01]) == 0b01
    assert lat.names[3] == "{0,1}"


@pytest.mark.parametrize("atoms", range(10))
def test_powerset_order_is_inclusion(atoms):
    # the powerset is built without validate_lattice; validating its order
    # gives the same lattice, with the same join-irreducibles and peeling
    n = 1 << atoms
    lat = FiniteSupLattice.powerset(atoms)
    assert sorted(leq_pairs(lat)) == [(i, j) for i in range(n)
                                       for j in range(n) if i & ~j == 0]
    generic = validate_lattice(leq_pairs(lat), size=n, names=lat.names)
    for attr in ("up", "down", "bottom", "top", "join_table", "names"):
        assert getattr(lat, attr) == getattr(generic, attr), attr
    assert join_irreducibles(lat) == join_irreducibles(generic)
    assert distributive_peeling(lat) == distributive_peeling(generic)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_join_is_least_upper_bound(name):
    lat = CORPUS[name]
    for bits in range(1 << lat.size):
        subset = [e for e in lat.elements if bits >> e & 1]
        assert lat.join(subset) == brute_force_join(lat, subset)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_meet_is_greatest_lower_bound(name):
    # meets are read from the lower-set masks; the empty meet is the top
    lat = CORPUS[name]
    for bits in range(1 << lat.size):
        subset = [e for e in lat.elements if bits >> e & 1]
        assert lat.meet(subset) == brute_force_meet(lat, subset)
        if len(subset) == 2:
            assert lat.meet2(*subset) == brute_force_meet(lat, subset)


@pytest.mark.parametrize("atoms", range(7))
def test_meet_is_greatest_lower_bound_on_powersets(atoms):
    # meet is intersection: the AND of the indices
    lat = FiniteSupLattice.powerset(atoms)
    for a in lat.elements:
        for b in lat.elements:
            assert lat.meet2(a, b) == a & b


def test_is_sup_map_identity_and_constant_bottom():
    lat = CORPUS["diamond"]
    assert is_sup_map(SupMap(lat, lat, tuple(lat.elements))) is None
    const = SupMap(lat, lat, tuple(lat.bottom for _ in lat.elements))
    assert is_sup_map(const) is None


def test_is_sup_map_counterexample():
    three = FiniteSupLattice.chain(3)
    two = FiniteSupLattice.chain(2)
    f = SupMap(three, two, (0, 1, 0))
    assert is_sup_map(f) == (1, 2)


def test_is_sup_map_bottom_violation_is_empty_witness():
    two = FiniteSupLattice.chain(2)
    f = SupMap(two, two, (1, 1))
    assert is_sup_map(f) == ()


def test_right_adjoint_identity_and_constants():
    lat = CORPUS["powerset2"]
    ident = SupMap(lat, lat, tuple(lat.elements))
    assert right_adjoint(ident).values == ident.values
    other = CORPUS["chain3"]
    const_bot = SupMap(lat, other, tuple(other.bottom for _ in lat.elements))
    ra = right_adjoint(const_bot)
    assert ra.values == tuple(lat.top for _ in other.elements)


def test_right_adjoint_of_chain_inclusion():
    two, three = FiniteSupLattice.chain(2), FiniteSupLattice.chain(3)
    f = SupMap(two, three, (0, 2))
    assert right_adjoint(f).values == (0, 0, 1)


def test_right_adjoint_rejects_non_sup_map():
    three, two = FiniteSupLattice.chain(3), FiniteSupLattice.chain(2)
    with pytest.raises(NotSupPreserving):
        right_adjoint(SupMap(three, two, (0, 1, 0)))


def test_left_adjoint_identity_and_chain_inclusion():
    two, three = FiniteSupLattice.chain(2), FiniteSupLattice.chain(3)
    assert left_adjoint(SupMap(three, three, tuple(three.elements))).values == (0, 1, 2)
    g = left_adjoint(SupMap(two, three, (0, 2)))
    assert g.values == (0, 1, 1)


def test_left_adjoint_missing_with_witness():
    # 1 goes to the identity relation inside the powerset of four pairs;
    # the map misses the empty meet, so no left adjoint can exist
    two = FiniteSupLattice.chain(2)
    rel2 = FiniteSupLattice.powerset(4)
    diag = 0b1001
    f = SupMap(two, rel2, (0, diag))
    with pytest.raises(NoLeftAdjoint) as err:
        left_adjoint(f)
    assert err.value.witness == (2, 1)


@pytest.mark.parametrize("dom,cod", [("chain3", "powerset2"),
                                     ("powerset2", "chain3"),
                                     ("diamond", "chain2"),
                                     ("pentagon", "pentagon"),
                                     ("chain4", "powerset2"),
                                     ("powerset2", "diamond"),
                                     ("grid3x2", "chain3"),
                                     ("pentagon", "grid3x2")])
def test_adjunctions_against_brute_force(dom, cod):
    dl, cl = CORPUS[dom], CORPUS[cod]
    for f in sup_maps_between(dl, cl):
        ra = right_adjoint(f)
        for m in cl.elements:
            for l in dl.elements:
                assert cl.leq(f.values[l], m) == dl.leq(l, ra.values[m])
        adjoints = brute_force_left_adjoints(f)
        try:
            g = left_adjoint(f)
        except NoLeftAdjoint:
            assert adjoints == []
        else:
            assert adjoints == [g.values]


def test_closure_laws_validate():
    lat = CORPUS["diamond"]
    # closed family {bottom, one atom, top}
    values = (0, 1, 4, 4, 4)
    assert closure_failure(lat, values) is None
    for a in lat.elements:
        assert lat.leq(a, values[a])
        assert values[values[a]] == values[a]


@pytest.mark.parametrize("name", ["chain3", "powerset2", "diamond",
                                  "pentagon"])
def test_a_valid_closure_has_meet_closed_fixed_points(name):
    # the closure laws check no meet-closure: it follows from the three
    lat = CORPUS[name]
    for values in itertools.product(lat.elements, repeat=lat.size):
        if closure_failure(lat, values) is not None:
            continue
        closed = [a for a in lat.elements if values[a] == a]
        assert all(values[lat.meet2(a, b)] == lat.meet2(a, b)
                   for a in closed for b in closed)


def test_bad_closure_fails_validation():
    lat = FiniteSupLattice.chain(3)
    deflating = (0, 0, 2)
    assert closure_failure(lat, deflating) == "not inflationary at 1"


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(CORPUS)), st.data())
def test_join_upper_bound_property(name, data):
    lat = CORPUS[name]
    subset = data.draw(st.lists(st.integers(0, lat.size - 1), max_size=6))
    j = lat.join(subset)
    assert all(lat.leq(s, j) for s in subset)
    ubs = [u for u in lat.elements if all(lat.leq(s, u) for s in subset)]
    assert all(lat.leq(j, u) for u in ubs)

