"""Between finite quantales that have both been validated, the laws of a
homomorphism h: X -> Q are decided on join-irreducibles: hom-join on
X x J(X), hom-mult on J x J and hom-involution on J.  Compared against
the sweep over every pair (`validate_hom_swept` in _helpers)."""

import random

from quantales.examples import standard_map_corpus
from quantales.nucleus import quotient_by_relation
from quantales.quantale import (FiniteInvQuantale, _HomFacts, validate_hom,
                                validate_quantale)

from _helpers import (reduction_corpus, small_quantales,
                      transposition_automorphisms, validate_hom_swept)


def _corpus_homs():
    """(name, table of h, X, Q) for the inverse images of the finite map
    corpus and the quotient homs of the corpus quantales."""
    out = [(name, p.inverse_table(), p.target, p.source)
           for name, p in standard_map_corpus(include_effective=False)]
    rng = random.Random(5)
    corpus = {**small_quantales(), "PS3": reduction_corpus()["PS3"]}
    for name, q in corpus.items():
        for _ in range(3):
            pairs = {(rng.randrange(q.size), rng.randrange(q.size))}
            quot, hom = quotient_by_relation(q, pairs)
            out.append((f"{name}/{sorted(pairs)}", hom.values, q,
                        quot.quantale))
    return out


HOMS = _corpus_homs()


def _perturbed(table, X, Q, rng):
    """Tables of h with one entry moved, and composed with automorphisms of
    Q's lattice: sup-maps that need not be multiplicative."""
    out = set()
    for _ in range(12 if Q.size > 1 else 0):
        new = list(table)
        x = rng.randrange(X.size)
        new[x] = rng.choice([a for a in Q.elements if a != table[x]])
        out.add(tuple(new))
    autos = list(transposition_automorphisms(Q.carrier))
    for sigma in rng.sample(autos, min(len(autos), 4)):
        out.add(tuple(sigma[a] for a in table))
    out.discard(tuple(table))
    return sorted(out)


class _Counting:
    """A value table called as a function, counting its calls."""

    def __init__(self, table):
        self.table, self.calls = table, 0

    def __call__(self, x):
        self.calls += 1
        return self.table[x]


def test_corpus_homs_run_on_validated_carriers():
    assert len(HOMS) >= 30
    for name, table, X, Q in HOMS:
        assert X._validated and Q._validated, name
        h = _Counting(table)
        assert validate_hom(h, X, Q) is None, name
        assert validate_hom_swept(h, X, Q) is None, name


def test_a_decided_hom_evaluates_h_once_per_element():
    for name, table, X, Q in HOMS:
        h = _Counting(table)
        assert validate_hom(h, X, Q) is None
        # hom-bottom, then the value table the decisions read
        assert h.calls == 1 + X.size, name
        # an unvalidated carrier is swept: three calls per pair for each
        # of hom-join and hom-mult, two per element for hom-involution
        fresh = FiniteInvQuantale(X.carrier, X.mult_table, X.inv_table,
                                  X.unit)
        h = _Counting(table)
        assert validate_hom(h, fresh, Q) is None
        assert h.calls == 1 + 6 * X.size ** 2 + 2 * X.size, name


def test_perturbed_homs_keep_every_violation_of_the_sweep():
    rng = random.Random(21)
    outcomes = {}
    for name, table, X, Q in HOMS:
        for new in _perturbed(table, X, Q, rng):
            v = validate_hom(new.__getitem__, X, Q)
            assert v == validate_hom_swept(new.__getitem__, X, Q), (name, v)
            joins = new[X.bottom] == Q.bottom \
                and _HomFacts(new.__getitem__, X, Q).preserves_joins
            outcome = (joins, v and v.law)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # the decisions are skipped when hom-bottom fails; the join decision
    # fails and the sweep finds the first failing pair (under hom-join or
    # hom-mult); or it passes and the mult decision meets a failing table,
    # or the table is a homomorphism again
    assert outcomes[False, "hom-bottom"] >= 25
    assert outcomes[False, "hom-join"] >= 40
    assert outcomes[True, "hom-mult"] >= 25
    assert outcomes[True, None] >= 10
    assert outcomes.get((True, "hom-join"), 0) == 0


def test_a_multiplicative_sup_map_failing_only_the_involution():
    # P(Z/3) is commutative, so the identity involution makes it a
    # quantale too; the identity map from that quantale to P(Z/3) with
    # S* = S^-1 preserves joins and products but not the involution
    from quantales.examples import cyclic_group, group_powerset_quantale
    q = group_powerset_quantale(cyclic_group(3))
    plain = FiniteInvQuantale(q.carrier, q.mult_table, list(q.elements),
                              q.unit)
    assert validate_quantale(plain) is None and q._validated

    def h(x):
        return x
    facts = _HomFacts(h, plain, q)
    assert facts.preserves_joins and facts.mult_on_j()
    assert not facts.involution_on_j()
    v = validate_hom(h, plain, q)
    assert v.law == "hom-involution" and v == validate_hom_swept(h, plain, q)


class _Pool:
    """range(n) that counts the walks over it."""

    def __init__(self, n):
        self.n, self.walks = n, 0

    def __iter__(self):
        self.walks += 1
        return iter(range(self.n))


class _CountedQuantale(FiniteInvQuantale):
    """A finite quantale whose element pool counts the walks over it."""

    @property
    def elements(self):
        return self.pool


def test_a_run_of_decided_laws_walks_no_pool():
    # once hom-bottom holds, hom-join and hom-mult (one run) and
    # hom-involution are all decided on J; the one walk over the source
    # is the value table the decisions read.  A sweep of a decided run
    # with no laws left would still walk X x X: about 15 ms of a 16 ms
    # Rel(3) quotient before it was skipped
    for name, table, X, Q in HOMS[:12]:
        source = _CountedQuantale(X.carrier, X.mult_table, X.inv_table,
                                  X.unit)
        source.pool = _Pool(X.size)
        assert validate_quantale(source) is None
        source.pool.walks = 0
        assert validate_hom(table.__getitem__, source, Q) is None, name
        assert source.pool.walks == 1, name
