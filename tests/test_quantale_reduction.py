"""The exhaustive quantale validator sweeps the ternary laws on
join-irreducibles: associativity on J^3, left distributivity on Q x Q x J,
right distributivity derived.  It is compared against the n^3 loop it
replaced (`validate_quantale_oracle` in _helpers)."""

import itertools
import random

from quantales.examples import rel_quantale
from quantales.quantale import (DERIVED, QUANTALE_LAWS, FiniteInvQuantale,
                                validate_quantale)
from quantales.suplattice import join_irreducibles

from _helpers import corpus_lattices, reduction_corpus, validate_quantale_oracle

CORPUS = reduction_corpus()
LAW = {law.name: law for law in QUANTALE_LAWS}
BEFORE_DISTRIB_RIGHT = QUANTALE_LAWS[:[law.name for law in QUANTALE_LAWS]
                                     .index("distrib-right")]


def _mutants(q, count, rng):
    """`count` tables of q with one or two entries moved.

    Two in three move a product ij of non-bottom elements to k together
    with its mirror j*i* to k*, so that the unary and binary laws before
    the ternary ones keep holding; the rest move one or two entries of
    the product or the involution at random.
    """
    n, inv = q.size, q.inv_table
    nonbottom = [a for a in q.elements if a != q.bottom]
    for _ in range(count):
        mult = [list(r) for r in q.mult_table]
        invs = list(inv)
        if rng.random() < 2 / 3:
            i, j = rng.choice(nonbottom), rng.choice(nonbottom)
            mirror = (inv[j], inv[i])
            # an entry that is its own mirror can only take a k = k*
            ks = [k for k in q.elements if k != mult[i][j]
                  and ((i, j) != mirror or inv[k] == k)]
            if not ks:
                continue
            k = rng.choice(ks)
            mult[i][j] = k
            mult[mirror[0]][mirror[1]] = inv[k]
        else:
            for _ in range(rng.choice((1, 2))):
                if rng.random() < 0.2:
                    i = rng.randrange(n)
                    invs[i] = rng.choice([k for k in q.elements
                                          if k != invs[i]])
                else:
                    i, j = rng.randrange(n), rng.randrange(n)
                    mult[i][j] = rng.choice([k for k in q.elements
                                             if k != mult[i][j]])
        yield FiniteInvQuantale(q.carrier, mult, invs, unit=q.unit)


# corpus entry -> mutants drawn from it; P(S3) is the dearest for the oracle
MUTANTS_PER_ENTRY = {name: 60 if q.size <= 25 else 25
                     for name, q in CORPUS.items()}


def _all_mutants():
    rng = random.Random(9)
    for name, q in CORPUS.items():
        for m in _mutants(q, MUTANTS_PER_ENTRY[name], rng):
            yield name, m


def _fails_somewhere(law, q):
    return any(not law.holds(q, *w)
               for w in itertools.product(q.elements, repeat=law.arity))


def test_join_irreducibles_match_their_definition():
    carriers = [q.carrier for q in CORPUS.values()]
    carriers += list(corpus_lattices().values())
    for lat in carriers:
        expected = [j for j in lat.elements if j != lat.bottom and not any(
            lat.join2(a, b) == j and j not in (a, b)
            for a in lat.elements for b in lat.elements)]
        J = join_irreducibles(lat)
        assert J == expected
        # the fact the reduction rests on: each element joins the J below it
        assert all(lat.join(j for j in J if lat.leq(j, x)) == x
                   for x in lat.elements)


def test_ternary_laws_declare_their_finite_sweep():
    assert {law.name: law.finite for law in QUANTALE_LAWS if law.arity == 3} \
        == {"assoc": ("J", "J", "J"), "distrib-left": ("Q", "Q", "J"),
            "distrib-right": DERIVED}
    assert all(law.finite is None for law in QUANTALE_LAWS if law.arity < 3)


def test_corpus_quantales_pass_both_validators():
    for name, q in CORPUS.items():
        fresh = FiniteInvQuantale(q.carrier, q.mult_table, q.inv_table, q.unit)
        assert validate_quantale(fresh) is None, name
        assert validate_quantale_oracle(fresh) is None, name


def test_reduced_validator_agrees_with_the_n3_loop_on_mutants():
    counted = survivors = 0
    for name, m in _all_mutants():
        reduced = validate_quantale(m)
        oracle = validate_quantale_oracle(m)
        assert (reduced is None) == (oracle is None), (name, reduced, oracle)
        for v in (reduced, oracle):
            if v is not None:
                assert not LAW[v.law].holds(m, *v.witness), (name, v)
        counted += 1
        survivors += reduced is None
    assert counted >= 600
    assert 0 < survivors < counted


def test_a_table_failing_distrib_right_fails_an_earlier_law():
    # the derivation of distrib-right, checked law by law on the definition
    # (the carriers of up to 25 elements, where the full sweeps are cheap)
    failing = binary_laws_hold = 0
    for name, m in _all_mutants():
        if m.size > 25 or not _fails_somewhere(LAW["distrib-right"], m):
            continue
        failing += 1
        earlier = [law.name for law in BEFORE_DISTRIB_RIGHT
                   if _fails_somewhere(law, m)]
        assert earlier, name
        # then assoc or distrib-left is what fails
        binary_laws_hold += earlier[0] in ("assoc", "distrib-left")
        assert validate_quantale(m).law != "distrib-right"
    assert failing >= 300 and binary_laws_hold >= 200


class _CountingQuantale(FiniteInvQuantale):
    """A finite quantale that counts its products."""
    calls = 0

    def mult(self, a, b):
        self.calls += 1
        return self.mult_table[a][b]


def test_ps3_validation_makes_the_reduced_number_of_products():
    ps3 = CORPUS["PS3"]
    n, nj = ps3.size, len(join_irreducibles(ps3.carrier))
    assert (n, nj) == (64, 6)
    q = _CountingQuantale(ps3.carrier, ps3.mult_table, ps3.inv_table,
                          ps3.unit)
    for law in QUANTALE_LAWS:
        if law.arity < 3:
            for w in itertools.product(q.elements, repeat=law.arity):
                law.holds(q, *w)
    other = q.calls
    q.calls = 0
    assert validate_quantale(q) is None
    ternary = q.calls - other
    # distrib-left makes three products per triple of Q x Q x J, assoc
    # four per triple of J^3; the n^3 sweep made ten per triple
    assert ternary == 3 * n * n * nj + 4 * nj ** 3 == 74_592


def test_rel3_is_validated_exhaustively():
    r3 = rel_quantale(3)
    assert r3.size == 512 and len(join_irreducibles(r3.carrier)) == 9
    # only the exhaustive path marks a quantale validated
    assert r3._validated
    fresh = FiniteInvQuantale(r3.carrier, r3.mult_table, r3.inv_table, r3.unit)
    assert validate_quantale(fresh) is None
    # {(1,2)}{(1,2)} moved from the empty relation to {(1,1)}
    mult = [list(r) for r in r3.mult_table]
    mult[1 << 1][1 << 1] = 1
    broken = FiniteInvQuantale(r3.carrier, mult, r3.inv_table, r3.unit)
    v = validate_quantale(broken)
    assert v is not None and not LAW[v.law].holds(broken, *v.witness)
