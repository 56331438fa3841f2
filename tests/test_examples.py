import hashlib
import random
from dataclasses import astuple
from fractions import Fraction

import pytest

from quantales.examples import (FiniteGroupoidData, FiniteTopology,
                                HypothesisFailure, InvalidGroupTable,
                                NotContinuous, NotOpen, cyclic_group,
                                delta_embedding_map, discrete_topology,
                                finite_locale_map, group_algebra_quantale,
                                group_algebra_support_map,
                                group_powerset_quantale,
                                groupoid_support_map, locale_quantale,
                                matrix_max_quantale, matrix_support_map,
                                omega_quantale, omega_support_map,
                                pair_groupoid, point_topology,
                                product_groupoid, rel_quantale,
                                sierpinski_topology,
                                standard_map_corpus, symmetric_group_3)
from quantales.quantale import is_surjective, validate_hom, validate_quantale
from quantales.subspaces import RationalSubspace
from quantales.suplattice import join_irreducibles

from _helpers import (FIVE_ELEMENT_LOOP, associativity_witness_swept,
                      matrix_max_handles, permuted, plain_copy,
                      raw_product_tables, reduction_corpus, sample_element,
                      tabulated, validate_quantale_sampled,
                      zero_product_swept)


def test_rref_is_representation_independent():
    rng = random.Random(11)
    for _ in range(50):
        dim = rng.randint(1, 5)
        k = rng.randint(1, dim)
        vectors = [[Fraction(rng.randint(-4, 4)) for _ in range(dim)]
                   for _ in range(k)]
        space = RationalSubspace.from_vectors(dim, vectors)
        # randomly remix the generating set: shuffle, scale, add rows
        mixed = [list(v) for v in vectors]
        rng.shuffle(mixed)
        for i in range(len(mixed)):
            scale = Fraction(rng.choice([1, 2, 3, -1, -5]))
            j = rng.randrange(len(mixed))
            mixed[i] = [scale * a + b for a, b in zip(mixed[i], mixed[j])] \
                if i != j else [scale * a for a in mixed[i]]
        remixed = RationalSubspace.from_vectors(dim, mixed)
        assert remixed.leq(space)
        if remixed.rank == space.rank:
            assert remixed == space


def test_subspace_order_join_and_membership():
    # a join of subspaces is their sum, as the library takes it
    q = group_algebra_quantale(cyclic_group(3))
    v = RationalSubspace.from_vectors(3, [(1, 0, 0)])
    w = RationalSubspace.from_vectors(3, [(0, 1, 0)])
    both = q.join([v, w])
    assert v.leq(both) and w.leq(both)
    assert both.contains_vector((2, -3, 0))
    assert not both.contains_vector((0, 0, 1))
    assert q.join([v, RationalSubspace.zero(3)]) == v


def test_matrix_unit_products():
    mm = matrix_max_quantale(2)
    e11 = RationalSubspace.from_vectors(4, [(1, 0, 0, 0)])
    e12 = RationalSubspace.from_vectors(4, [(0, 1, 0, 0)])
    e21 = RationalSubspace.from_vectors(4, [(0, 0, 1, 0)])
    assert mm.mult(e11, e12) == e12
    assert mm.inv(e12) == e21
    assert mm.join([e11, mm.bottom]) == e11
    assert mm.mult(mm.unit, e12) == e12


def test_matrix_support_map_adjunction_and_fr2_instance():
    p = tabulated(matrix_support_map(2))
    r2 = p.target
    # support adjunction V <= p*(U) iff supp(V) <= U, sampled subspaces
    rng = random.Random(5)
    for _ in range(40):
        v = sample_element(p.source, rng)
        for u in r2.elements:
            assert v.leq(p.star(u)) == r2.leq(p.shriek(v), u)
    # p_!(span{e11} p*({(1,2)}) span{e21}) = {(1,1)} = {(1,1)}o{(1,2)}o{(2,1)}
    e11 = RationalSubspace.from_vectors(4, [(1, 0, 0, 0)])
    e21 = RationalSubspace.from_vectors(4, [(0, 0, 1, 0)])
    mid = p.star(1 << 1)
    lhs = p.shriek(p.source.mult(p.source.mult(e11, mid), e21))
    assert lhs == 1 << 0
    assert r2.mult(r2.mult(1 << 0, 1 << 1), 1 << 2) == 1 << 0
    assert p.star(0) == RationalSubspace.zero(4)


def test_group_algebra_support_and_the_zero_divisor_guard():
    p = group_algebra_support_map(cyclic_group(2))
    ga = p.source
    plus = RationalSubspace.from_vectors(2, [(1, 1)])
    minus = RationalSubspace.from_vectors(2, [(1, -1)])
    # supp(V.W) is strictly below supp(V)supp(W) here: (1+g)(1-g) = 0
    assert ga.mult(plus, minus) == ga.bottom
    assert p.shriek(ga.mult(plus, minus)) == 0
    assert p.target.mult(p.shriek(plus), p.shriek(minus)) == 3
    # while (1+g)(1+g) = 2+2g keeps full support
    assert p.shriek(ga.mult(plus, plus)) == 3
    assert p.star(0) == RationalSubspace.zero(2)


def test_group_algebra_involution_moves_coefficients():
    g3 = symmetric_group_3()
    ga = group_algebra_quantale(g3)
    for g in range(6):
        line = RationalSubspace.from_vectors(
            6, [[Fraction(int(i == g)) for i in range(6)]])
        assert ga.inv(line) == RationalSubspace.from_vectors(
            6, [[Fraction(int(i == g3.inv[g])) for i in range(6)]])


def test_constructed_examples_validate():
    assert validate_quantale(group_powerset_quantale(cyclic_group(2))) is None
    assert validate_quantale(group_powerset_quantale(cyclic_group(3))) is None
    assert validate_quantale(group_powerset_quantale(symmetric_group_3())) \
        is None
    assert validate_quantale(rel_quantale(2)) is None
    assert validate_quantale(locale_quantale(sierpinski_topology())) is None
    mm = matrix_max_quantale(2)
    assert validate_quantale_sampled(mm, random.Random(0), 10,
                                     matrix_max_handles(2)) is None


def test_rel_quantale_composition_and_converse():
    r2 = rel_quantale(2)
    a = 1 << 1  # (1,2)
    b = 1 << 2  # (2,1)
    assert r2.mult(a, b) == 1 << 0  # (1,1)
    assert r2.inv(a) == b
    assert r2.unit == (1 << 0) | (1 << 3)


def test_pair_groupoid_units_are_the_diagonal():
    g = pair_groupoid(3)
    assert [g.names[u] for u in g.units] == ["(1,1)", "(2,2)", "(3,3)"]


def test_groups_are_one_unit_groupoids():
    for g in (cyclic_group(2), cyclic_group(3), symmetric_group_3()):
        assert isinstance(g, FiniteGroupoidData)
        assert [g.names[u] for u in g.units] == ["e"]
        assert all(x is not None for row in g.mult for x in row)


def _z2_with(**tables):
    z2 = cyclic_group(2)
    return FiniteGroupoidData(z2.names, tables.get("mult", z2.mult),
                              tables.get("inv", z2.inv),
                              tables.get("units", z2.units))


@pytest.mark.parametrize("tables", [
    {"units": (0, 1)},                # g is not an identity arrow
    {"units": (1,)},                  # g does not fix e
    {"inv": (0, 0)},                  # g g^-1 = g is not a unit
    {"mult": ((0, 1), (1, None))},    # g g undefined in a group
    {"mult": ((0, 1), (1, 1))},       # g g = g: a monoid, not a group
    {"mult": ((0, 1), (1, 2))},       # entry outside the arrows
    {"mult": ((0, 1),)},              # a row short
])
def test_groupoid_validation_rejects_broken_tables(tables):
    with pytest.raises(InvalidGroupTable):
        _z2_with(**tables).validate()


@pytest.mark.parametrize("tables,message", [
    (FIVE_ELEMENT_LOOP, "associativity fails at (1,1,2)"),
    # partial composition: the pairs that do not compose are skipped
    (raw_product_tables(FIVE_ELEMENT_LOOP, astuple(pair_groupoid(2))),
     "associativity fails at (4,4,8)")],
    ids=["loop", "loop-x-pair2"])
def test_associativity_is_checked_on_composable_triples(tables, message):
    # the composable triples hold the first failure of the n^3 sweep
    witness = associativity_witness_swept(tables[1])
    assert message == "associativity fails at ({},{},{})".format(*witness)
    with pytest.raises(InvalidGroupTable) as e:
        FiniteGroupoidData(*tables)
    assert str(e.value) == message


def test_a_groupoid_is_validated_once_when_built(monkeypatch):
    z2, z3 = cyclic_group(2), cyclic_group(3)
    calls = []
    validate = FiniteGroupoidData.validate

    def counted(g):
        calls.append(g)
        validate(g)

    monkeypatch.setattr(FiniteGroupoidData, "validate", counted)
    groupoid_support_map(pair_groupoid(3))
    assert len(calls) == 1
    calls.clear()
    g = product_groupoid(z2, z3)
    # past the caches, so that each builder runs
    group_algebra_quantale.__wrapped__(g)
    group_powerset_quantale.__wrapped__(g)
    assert calls == [g]


def test_groupoid_constructors_give_the_pinned_tables():
    # element indices, witnesses and written documents rest on these
    # names, tables and units
    z2, s3 = cyclic_group(2), symmetric_group_3()
    gs = [z2, cyclic_group(3), cyclic_group(5), s3, pair_groupoid(1),
          pair_groupoid(2), pair_groupoid(3),
          product_groupoid(z2, pair_groupoid(2)),
          product_groupoid(pair_groupoid(2), pair_groupoid(2)),
          product_groupoid(s3, z2)]
    tables = repr([(g.names, g.mult, g.inv, g.units) for g in gs])
    assert hashlib.sha256(tables.encode()).hexdigest() == (
        "8a5e9d0a81c8179957fd2e998828b11e09d8c29e6988aaefffaa12ba8b771c7f")


def _dense_matrix_product(n, u, v):
    return [sum((u[i * n + k] * v[k * n + j] for k in range(n)), Fraction(0))
            for i in range(n) for j in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_groupoid_algebra_is_the_matrix_algebra(n):
    # the composite of arrows (i,j)(j,l) = (i,l) is the product of matrix
    # units, and the arrow inverse is the transpose
    mm = matrix_max_quantale(n)
    rng = random.Random(n)
    for _ in range(20):
        u, v = ([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(n * n)] for _ in range(2))
        a = RationalSubspace.from_vectors(n * n, [u])
        b = RationalSubspace.from_vectors(n * n, [v])
        assert mm.mult(a, b) == RationalSubspace.from_vectors(
            n * n, [_dense_matrix_product(n, u, v)])
        transpose = [u[j * n + i] for i in range(n) for j in range(n)]
        assert mm.inv(a) == RationalSubspace.from_vectors(n * n, [transpose])
    identity = [Fraction(int(i == j)) for i in range(n) for j in range(n)]
    assert mm.unit == RationalSubspace.from_vectors(n * n, [identity])


def test_omega_support_map_requires_the_hypothesis():
    assert omega_support_map(group_powerset_quantale(cyclic_group(2))) \
        .shriek(3) == 1
    with pytest.raises(HypothesisFailure):
        omega_support_map(rel_quantale(2))  # {(1,2)} o {(1,2)} = empty
    trivial = omega_support_map(omega_quantale())
    assert is_surjective(trivial)


def test_omega_hypothesis_on_j_x_j_agrees_with_the_n2_sweep():
    # a validated quantale is decided on J x J, its unvalidated copy swept
    # on all pairs; both report the first failing pair of the sweep, also
    # with the indices reversed, where that pair need not lie in J x J
    failing, outside_j = [], []
    for name, q in reduction_corpus().items():
        n = q.size
        reversed_q = permuted(q, [n - 1 - a for a in range(n)])
        assert validate_quantale(reversed_q) is None
        for r in (q, plain_copy(q), reversed_q):
            witness = zero_product_swept(r)
            try:
                omega_support_map(r)
                got = None
            except HypothesisFailure as e:
                got = (str(e), e.witness)
            assert got == (None if witness is None else (
                f"nonbottom elements multiply to bottom: {witness}",
                witness)), name
        if zero_product_swept(q) is not None:
            failing.append(name)
        witness = zero_product_swept(reversed_q)
        if witness is not None and not set(witness) <= set(
                join_irreducibles(reversed_q.carrier)):
            outside_j.append(name)
    # {(1,1)} o {(2,1)} = empty in Rel(2); reversed, the first failing
    # pair is ({(1,2),(2,2)}, {(1,1),(1,2)})
    assert failing == ["omega-squared", "discrete2-locale", "swap4", "rel2",
                       "m3xPZ2"]
    assert "rel2" in outside_j


def test_delta_embedding_is_a_hom():
    f = delta_embedding_map(2)
    assert validate_hom(f.inverse_image, f.target, f.source) is None
    assert f.star(1) == rel_quantale(2).unit


def test_finite_topology_validation():
    with pytest.raises(ValueError):
        FiniteTopology.build(2, [frozenset(), frozenset({0})])
    top = sierpinski_topology()
    assert len(top.opens) == 3


def test_finite_topology_rejects_an_open_with_points_outside_the_space():
    # closed under union and intersection, but {0,1,5} is not a subset of
    # the two points, and it would become the locale's top and unit
    with pytest.raises(ValueError, match="outside range"):
        FiniteTopology.build(2, [set(), {0, 1}, {0, 1, 5}])
    with pytest.raises(ValueError, match="outside range"):
        FiniteTopology.build(1, [set(), {0}, {-1}, {-1, 0}])


def test_locale_maps_continuity_and_openness():
    indiscrete = FiniteTopology.build(2, [frozenset(), frozenset({0, 1})])
    with pytest.raises(NotContinuous):
        # the preimage of the open point {1} is a singleton, which is not
        # open in the indiscrete domain
        finite_locale_map([1, 0], indiscrete, sierpinski_topology())
    with pytest.raises(NotOpen):
        # the image of the point is the closed point of the Sierpinski space
        finite_locale_map([0], discrete_topology(1), sierpinski_topology(),
                          with_direct_image=True)


def test_locale_maps_reject_points_outside_the_codomain():
    # without the check these built maps: p* constant bottom, (0, 0, 0),
    # and p* sending the top of the codomain to a proper open, (0, 0, 2)
    with pytest.raises(ValueError, match="points of the codomain"):
        finite_locale_map([5], point_topology(), sierpinski_topology())
    with pytest.raises(ValueError, match="points of the codomain"):
        finite_locale_map([-1, 0], discrete_topology(2),
                          sierpinski_topology())


def test_standard_corpus_builds():
    names = [name for name, _ in standard_map_corpus()]
    assert "omega-support-PZ2" in names
    assert "group-algebra-S3" in names
    finite_only = [name for name, _ in standard_map_corpus(False)]
    assert "matrix-support-2" not in finite_only
