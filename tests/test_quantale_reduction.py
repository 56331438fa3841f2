"""The exhaustive quantale validator sweeps the ternary laws on
join-irreducibles: associativity on J^3, left distributivity on Q x Q x J,
right distributivity derived.  It is compared against the n^3 loop it
replaced (`validate_quantale_oracle` in _helpers).  On a distributive
carrier a pass of left distributivity is decided from the J-extension of
each row, on the others from the raw tables, and the binary involution
laws are decided on Q x J; all are compared against the sweeps they
replaced (`validate_quantale_swept`)."""

import itertools
import random

from quantales.examples import rel_quantale
from quantales.quantale import (DERIVED, QUANTALE_LAWS, FiniteInvQuantale,
                                _QuantaleFacts, validate_quantale)
from quantales.suplattice import distributive_peeling, join_irreducibles

from _helpers import (corpus_lattices, reduction_corpus, seeded_mutants,
                      transposition_automorphisms, validate_quantale_oracle,
                      validate_quantale_swept)

CORPUS = reduction_corpus()
LAW = {law.name: law for law in QUANTALE_LAWS}
BEFORE_DISTRIB_RIGHT = QUANTALE_LAWS[:[law.name for law in QUANTALE_LAWS]
                                     .index("distrib-right")]


def _one_entry_mutants(name):
    """Every table of the corpus entry with one product moved: on m3 some
    of them fail distrib-left only at the last join-irreducible."""
    q = CORPUS[name]
    for i, j in itertools.product(q.elements, repeat=2):
        for k in q.elements:
            if k != q.mult_table[i][j]:
                mult = [list(r) for r in q.mult_table]
                mult[i][j] = k
                yield name, FiniteInvQuantale(q.carrier, mult, q.inv_table,
                                              q.unit)


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


def _distributive_by_definition(lat):
    return all(lat.meet2(a, lat.join2(b, c))
               == lat.join2(lat.meet2(a, b), lat.meet2(a, c))
               for a, b, c in itertools.product(lat.elements, repeat=3))


def test_distributive_peeling_matches_its_definition():
    carriers = [q.carrier for q in CORPUS.values()]
    carriers += list(corpus_lattices().values())
    for lat in carriers:
        peel = distributive_peeling(lat)
        assert (peel is not None) == _distributive_by_definition(lat)
        if peel is None:
            continue
        J = join_irreducibles(lat)

        def below(a):
            return {j for j in J if lat.leq(j, a)}
        for a, (rest, j) in zip(lat.elements, peel):
            if a == lat.bottom:
                assert (rest, j) == (a, a)
                continue
            # j is a maximal join-irreducible below a, and rest holds the others
            assert j in below(a) and not any(
                k != j and lat.leq(j, k) for k in below(a))
            assert below(rest) == below(a) - {j}
            assert lat.join2(rest, j) == a


def test_ternary_laws_declare_their_finite_sweep():
    assert {law.name: law.pools for law in QUANTALE_LAWS if law.arity == 3} \
        == {"assoc": ("J", "J", "J"), "distrib-left": ("Q", "Q", "J"),
            "distrib-right": ("Q", "Q", "Q")}
    assert [d.reduction for d in LAW["distrib-right"].decisions] == [DERIVED]
    assert all(law.pools == ("Q",) * law.arity
               for law in QUANTALE_LAWS if law.arity < 3)


def test_corpus_quantales_pass_both_validators():
    for name, q in CORPUS.items():
        fresh = FiniteInvQuantale(q.carrier, q.mult_table, q.inv_table, q.unit)
        assert validate_quantale(fresh) is None, name
        assert validate_quantale_oracle(fresh) is None, name


def test_reduced_validator_agrees_with_the_n3_loop_on_mutants():
    counted = survivors = 0
    for name, m in seeded_mutants(CORPUS):
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


def test_deciding_distrib_left_keeps_every_violation_of_the_sweep():
    # the same law and witness as the Q x Q x J sweep, mutant by mutant;
    # the decision, from the rows on distributive carriers and from the
    # raw tables on the others, passes the mutants that fail no law up to
    # distrib-left and hands those failing it to the sweep
    order = [law.name for law in QUANTALE_LAWS]
    decided, swept = {True: 0, False: 0}, {True: 0, False: 0}
    raw = {True: 0, False: 0}
    law = LAW["distrib-left"]
    for name, m in itertools.chain(seeded_mutants(CORPUS),
                                   _one_entry_mutants("m3")):
        v = validate_quantale(m)
        assert v == validate_quantale_swept(m), (name, v)
        distributive = distributive_peeling(m.carrier) is not None
        first = len(order) if v is None else order.index(v.law)
        decided[distributive] += first > order.index("distrib-left")
        swept[distributive] += first == order.index("distrib-left")
        if not distributive:
            # the raw-table pass is the Q x Q x J sweep, whatever the
            # laws before it do
            J = join_irreducibles(m.carrier)
            holds = all(law.holds(m, a, b, c) for a, b, c in
                        itertools.product(m.elements, m.elements, J))
            assert _QuantaleFacts(m).distrib_left() == holds, name
            raw[holds] += 1
    assert decided[True] >= 100 and swept[True] >= 150
    assert swept[False] >= 100 and raw[True] >= 20 and raw[False] >= 100


def test_a_table_failing_distrib_right_fails_an_earlier_law():
    # the derivation of distrib-right, checked law by law on the definition
    # (the carriers of up to 25 elements, where the full sweeps are cheap)
    failing = binary_laws_hold = 0
    for name, m in seeded_mutants(CORPUS):
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


def _validation_products(q):
    """(n, |J|, products) of validating a counting copy of q."""
    q = _CountingQuantale(q.carrier, q.mult_table, q.inv_table, q.unit)
    assert validate_quantale(q) is None
    return q.size, len(join_irreducibles(q.carrier)), q.calls


def test_ps3_validation_makes_the_reduced_number_of_products():
    n, nj, products = _validation_products(CORPUS["PS3"])
    assert (n, nj) == (64, 6)
    # bottom absorption and the unit laws make one product per element on
    # each side, and assoc four per triple of J^3; the decisions of the
    # binary laws and of distrib-left read the raw tables.  Before them
    # antimult made two products on each of the n^2 pairs and
    # distrib-left read the n^2 products through `mult`:
    # 4n + 2n^2 + n^2 + 4|J|^3 = 13,408.  The Q x Q x J sweep of
    # distrib-left made 74,592 ternary products and the n^3 sweep 2,621,440
    assert products == 4 * n + 4 * nj ** 3 == 1_120


class _CountingReads(tuple):
    """A table that counts the entries read from it."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def _counting_inv(q):
    """A copy of q whose involution table counts its reads."""
    q = FiniteInvQuantale(q.carrier, q.mult_table, q.inv_table, q.unit)
    q.inv_table = _CountingReads(q.inv_table)
    return q


def test_ps3_binary_law_decisions_evaluate_q_times_j():
    n, nj = CORPUS["PS3"].size, len(join_irreducibles(CORPUS["PS3"].carrier))
    assert n * nj == 384
    # each evaluation reads the involution three times: inv(a v j),
    # inv(a), inv(j) for the join decision, inv(aj), inv(j), inv(a) for
    # the antimult one; involution-monotone reuses the join decision
    q = _counting_inv(CORPUS["PS3"])
    facts = _QuantaleFacts(q)
    reads = {}
    for name in ("involution-monotone", "involution-antimult",
                 "involution-join"):
        before = q.inv_table.reads
        assert LAW[name].decisions[0].premise(facts)
        reads[name] = q.inv_table.reads - before
    assert reads == {"involution-monotone": 3 * 384,
                     "involution-antimult": 3 * 384, "involution-join": 0}
    # a whole validation: involution-involutive reads twice per element,
    # then the two decisions, and no binary law is swept (the sweep read
    # the involution 2 + 3 + 3 times on each of the n^2 = 4,096 pairs)
    q = _counting_inv(CORPUS["PS3"])
    assert validate_quantale(q) is None
    assert q.inv_table.reads == 2 * n + 2 * 3 * n * nj == 2_432


def test_non_distributive_carriers_sweep_distrib_left():
    names = [name for name, q in CORPUS.items()
             if distributive_peeling(q.carrier) is None]
    assert names == ["m3", "m3xPZ2", "PS3/(3,25)", "PS3/(6,34)"]
    for name in names:
        n, nj, products = _validation_products(CORPUS[name])
        # antimult is not decided there: two products per pair.  A passing
        # distrib-left is read from the raw tables, with no product through
        # `mult`; only a table that fails it is swept on Q x Q x J, which
        # made 3n^2|J| products here before the raw-table pass
        unary = 2 * n if CORPUS[name].unit is None else 4 * n
        assert products == unary + 2 * n * n + 4 * nj ** 3, name


def _involutive_inv_mutants():
    """Tables of the corpus whose involution is replaced by another
    involution, so that involution-involutive holds and the decisions of
    the binary laws meet a failing table: the images of two 2-cycles
    {a, a*}, {b, b*} swapped (a -> b*, b -> a*), the images of two fixed
    points swapped, and the involution conjugated by an automorphism of
    the lattice, which keeps it join-preserving."""
    rng = random.Random(13)
    for name, q in CORPUS.items():
        inv = q.inv_table
        cycles = sorted({tuple(sorted((a, inv[a]))) for a in q.elements
                         if inv[a] != a})
        fixed = [a for a in q.elements if inv[a] == a]
        tables = {tuple(inv)}
        for _ in range(12):
            new = list(inv)
            if len(cycles) >= 2 and (len(fixed) < 2 or rng.random() < 0.5):
                (a, a2), (b, b2) = rng.sample(cycles, 2)
                new[a], new[b2], new[b], new[a2] = b2, a, a2, b
            elif len(fixed) >= 2:
                c, d = rng.sample(fixed, 2)
                new[c], new[d] = d, c
            tables.add(tuple(new))
        autos = list(transposition_automorphisms(q.carrier))
        for sigma in rng.sample(autos, min(len(autos), 6)):
            tables.add(tuple(sigma[inv[sigma[a]]] for a in q.elements))
        tables.remove(tuple(inv))
        for new in sorted(tables):
            yield name, FiniteInvQuantale(q.carrier, q.mult_table, new, q.unit)


def test_involutive_inv_mutants_keep_every_violation_of_the_sweep():
    outcomes = {}
    decided_failures = 0
    for name, m in _involutive_inv_mutants():
        assert all(m.inv(m.inv(a)) == a for a in m.elements)
        v = validate_quantale(m)
        assert v == validate_quantale_swept(m), (name, v)
        facts = _QuantaleFacts(m)
        outcome = (facts.inv_preserves_joins, v and v.law)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        decided_failures += outcome == (True, "involution-antimult") \
            and facts.rows_are_j_extensions
    # the join decision fails and the sweep finds the first failing pair
    # under any of the three laws; or it passes and antimult fails, after
    # its decision met the failing table on a distributive carrier (P(S3),
    # P(Z/2), Rel(2)) and swept on the others; or the table is a quantale
    assert all(outcomes.get((False, law), 0) >= 20 for law in (
        "involution-monotone", "involution-antimult", "involution-join"))
    assert outcomes[True, "involution-antimult"] >= 15
    assert decided_failures >= 8
    assert outcomes[True, None] >= 1
    assert len(outcomes) == 5


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
    assert v == validate_quantale_swept(broken)
