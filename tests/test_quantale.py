import random

import pytest

from quantales.examples import (cyclic_group, group_powerset_quantale,
                                matrix_max_quantale, matrix_support_map,
                                omega_pair_projection_map, omega_quantale,
                                product_quantale, rel_quantale,
                                symmetric_group_3, z2_group_algebra_finite_map)
from quantales.quantale import (FiniteInvQuantale, QuantaleMap, Undecidable,
                                find_unit, identity_map, is_surjective,
                                validate_hom, validate_quantale)

from _helpers import (group_algebra_handles, matrix_max_handles, tabulated,
                      validate_quantale_sampled)


def test_powerset_z2_is_a_quantale():
    q = group_powerset_quantale(cyclic_group(2))
    assert validate_quantale(q) is None
    # setwise product and elementwise inverse
    assert q.mult(3, 2) == 3          # {e,g}{g} = {e,g}
    assert q.inv(2) == 2              # {g}* = {g}
    assert q.unit == 1                # {e}


def test_rel1_is_isomorphic_to_omega():
    r1 = rel_quantale(1)
    assert validate_quantale(r1) is None
    assert r1 == omega_quantale()  # equal tables: the identity is one


def test_broken_multiplication_is_rejected_with_witness():
    q = group_powerset_quantale(cyclic_group(2))
    mult = [list(r) for r in q.mult_table]
    mult[1][2] = 1  # {e}{g} = {e}
    broken = FiniteInvQuantale(q.carrier, mult, q.inv_table, unit=q.unit)
    v = validate_quantale(broken)
    assert v is not None
    assert v.witness


def _axioms_hold_oracle(q):
    # independent of validate_quantale: plain loops over the definitions
    els = list(q.elements)
    bot = q.bottom
    if any(q.mult(a, bot) != bot or q.mult(bot, a) != bot for a in els):
        return False
    for a in els:
        for b in els:
            for c in els:
                if q.mult(q.mult(a, b), c) != q.mult(a, q.mult(b, c)):
                    return False
                j = q.join2(b, c)
                if q.mult(a, j) != q.join2(q.mult(a, b), q.mult(a, c)):
                    return False
                if q.mult(j, a) != q.join2(q.mult(b, a), q.mult(c, a)):
                    return False
    for a in els:
        if q.inv(q.inv(a)) != a:
            return False
        for b in els:
            if q.inv(q.mult(a, b)) != q.mult(q.inv(b), q.inv(a)):
                return False
            if q.leq(a, b) and not q.leq(q.inv(a), q.inv(b)):
                return False
    if q.unit is not None and any(
            q.mult(q.unit, a) != a or q.mult(a, q.unit) != a for a in els):
        return False
    return True


@pytest.mark.parametrize("build,expected_survivors", [
    (omega_quantale, 0),
    (lambda: rel_quantale(1), 0),
    # {g}{g} -> {e,g} happens to satisfy every axiom, so exactly one
    # mutation of the group powerset survives; the checker must agree with
    # the independent oracle on all 48 mutants either way
    (lambda: group_powerset_quantale(cyclic_group(2)), 1),
])
def test_single_entry_mutations_against_oracle(build, expected_survivors):
    q = build()
    n = q.size
    survivors = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if k == q.mult_table[i][j]:
                    continue
                mult = [list(r) for r in q.mult_table]
                mult[i][j] = k
                mutant = FiniteInvQuantale(q.carrier, mult, q.inv_table,
                                           unit=q.unit)
                verdict = validate_quantale(mutant)
                assert (verdict is None) == _axioms_hold_oracle(mutant), \
                    (i, j, k, verdict)
                survivors += verdict is None
    assert survivors == expected_survivors


def test_validate_hom_identity_and_matrix_star():
    pz2 = group_powerset_quantale(cyclic_group(2))
    assert validate_hom(lambda a: a, pz2, pz2) is None
    p = tabulated(matrix_support_map(2))
    # inverse image of the matrix support map is a homomorphism, checked
    # exhaustively over the sixteen relations
    assert validate_hom(p.inverse_image, p.target, p.source) is None


def test_validate_hom_counterexample():
    pz2 = group_powerset_quantale(cyclic_group(2))
    om = omega_quantale()
    contains_e = lambda u: 1 if u & 1 else 0
    v = validate_hom(contains_e, pz2, om)
    assert v is not None
    assert v.law == "hom-mult" and v.witness == (2, 2)


def test_is_surjective():
    p = tabulated(matrix_support_map(2))
    assert is_surjective(p) is True
    assert is_surjective(identity_map(omega_quantale())) is True
    assert is_surjective(omega_pair_projection_map()) is False


def test_is_surjective_via_injectivity_without_direct_image():
    om = omega_quantale()
    pair = product_quantale(om, om)
    diag = QuantaleMap.from_table(pair, om, (0, 3), name="diagonal")
    # p*: Omega -> Omega^2 injective, so the map is a surjection
    assert is_surjective(diag) is True


def test_is_surjective_reads_the_inverse_image_not_the_direct_image():
    # p* is injective, and the supplied p_! (constantly bottom) is not its
    # left adjoint: surjectivity is a property of p* alone
    p = identity_map(omega_quantale()).with_direct_image(lambda a: 0)
    assert p.shriek(p.star(1)) != 1
    assert is_surjective(p) is True


def test_is_surjective_undecidable_for_effective_target():
    mm = matrix_max_quantale(2)
    om = omega_quantale()
    p = QuantaleMap(om, mm, lambda v: 1 if v.rank else 0)
    with pytest.raises(Undecidable):
        is_surjective(p)


def test_section_identity_iff_injective_inverse_image():
    # for a finite semiopen map, p_! p* = id exactly when p* is injective
    from quantales.examples import standard_map_corpus
    from quantales.openness import check_semiopen
    checked = 0
    for name, p in standard_map_corpus(include_effective=False):
        enriched, semi = check_semiopen(p)
        if not semi.ok:
            continue
        p = enriched
        section = all(p.shriek(p.star(x)) == x for x in p.target.elements)
        values = [p.star(x) for x in p.target.elements]
        injective = len(set(values)) == len(values)
        assert section == injective, name
        checked += 1
    assert checked >= 6


def test_find_unit():
    q = group_powerset_quantale(cyclic_group(2))
    stripped = FiniteInvQuantale(q.carrier, q.mult_table, q.inv_table)
    assert stripped.unit is None
    assert find_unit(stripped) == 1


def test_pz2_not_isomorphic_to_omega_squared():
    # an isomorphism maps idempotents to idempotents: every element of
    # Omega x Omega is one, and {g} of P(Z/2) is not, as {g}{g} = {e}
    pz2 = group_powerset_quantale(cyclic_group(2))
    sq = product_quantale(omega_quantale(), omega_quantale())
    assert pz2.size == sq.size == 4
    assert all(sq.mult(a, a) == a for a in sq.elements)
    assert pz2.mult(2, 2) == 1


def test_finite_fragment_of_group_algebra():
    p = z2_group_algebra_finite_map()
    assert p.source.size == 6
    assert validate_quantale(p.source) is None
    assert p.source.unit is not None
    # the fragment holds both lines that witness the two-sided failure
    names = [p.source.name_of(a) for a in p.source.elements]
    assert "span{[1,1]}" in names and "span{[1,-1]}" in names


def test_effective_quantale_laws_on_samples():
    mm = matrix_max_quantale(2)
    assert validate_quantale_sampled(mm, random.Random(1), 12,
                                     matrix_max_handles(2)) is None
    from quantales.examples import group_algebra_quantale
    ga = group_algebra_quantale(symmetric_group_3())
    assert validate_quantale_sampled(
        ga, random.Random(1), 10,
        group_algebra_handles(symmetric_group_3())) is None


def test_s3_powerset_quantale_validates():
    q = group_powerset_quantale(symmetric_group_3())
    assert q.size == 64
    assert validate_quantale(q) is None


def test_rel3_constructs_and_composes():
    r3 = rel_quantale(3)
    assert r3.size == 512
    # ({(1,2)} o {(2,3)}) = {(1,3)}
    a = 1 << 1   # arrow (1,2) sits at index 0*3+1
    b = 1 << 5   # arrow (2,3) at index 1*3+2
    assert r3.mult(a, b) == 1 << 2  # arrow (1,3) at index 0*3+2
    from quantales.examples import TooLarge
    with pytest.raises(TooLarge):
        rel_quantale(4)
