"""Shared corpora and brute-force oracles for the test suite.

The oracles deliberately avoid the library's own formulas: joins are found
by scanning upper bounds, adjoints by enumerating all value tables, least
nuclei by enumerating all closure operators, and the pullback verdicts by
enumerating flanked instances instead of using the flank lemma or the
Y-letter lemma, with the nine relation families written out one by one
instead of derived from the swap rule, the relation and unit cores are
swept over their Y-neighbours instead of decided by the Y-free
corollary, the subspace oracles
eliminate in `Fraction`s where the library reduces integer rows, the
quantale laws are swept on all n^3 triples instead of on
join-irreducibles, distrib-left is swept on Q x Q x J instead of decided
from the rows of a distributive carrier or the raw tables of another,
the binary involution laws and
the homomorphism laws are swept on every pair instead of decided on
join-irreducibles, and FR2 of a groupoid support map is decided by
injectivity of (s, t) -> s.g.t instead of by the isotropy groups, and
the bi-ideals of a tensor come from closing every pure tensor under
binary joins, each join closed on the grid pairwise along every line,
instead of closing bitmask traces on the tuples of join-irreducibles
along each line at once, and the map
laws of a finite map are swept over all of Q instead of over its
join-irreducibles, and the powerset quantale of a groupoid is tabulated
by multiplying every pair of subsets instead of extended from the
products of singletons, and "nonbottom elements never multiply to
bottom" is swept on every pair instead of decided on J x J, and the
associativity of a groupoid table is swept on all n^3 triples instead of
on the composable ones, and a relation is saturated under left products
by every element instead of by join-irreducibles, and the counit and
the Beck-Chevalley square are evaluated on every one-letter word instead
of decided by the definition of the candidate direct image.  The support
maps have the `GroupoidPowerset` oracle as their target; the tests that
list its elements run on the map's `tabulated` twin instead.  The
library decides the maps and laws of effective carriers from a groupoid
table or refuses them; the probe pools on which
the tests sweep those instead (curated handles padded with seeded random
elements) are built here.
Expected values frozen in the tests were computed with these.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

from quantales.freeprod import (CORE_PARAMETERS, FAMILIES, FAMILY_HYPOTHESIS,
                                Q_TAG, Y_TAG, ChainFailure, FamilyResult,
                                Instance, Word, _unit_chain, all_words,
                                core_failure, word_direct_image)
from quantales.openness import BATTERY, MAP_LAWS, Check, violates
from quantales.quantale import (DERIVED, HOM_LAWS, QUANTALE_LAWS,
                                FiniteInvQuantale, Violation,
                                validate_quantale)
from quantales.subspaces import RationalSubspace
from quantales.suplattice import (FiniteSupLattice, SupMap, is_sup_map,
                                  join_irreducibles, validate_lattice)
from quantales.tensor import BiIdeal


def corpus_lattices():
    out = {f"chain{n}": FiniteSupLattice.chain(n) for n in range(1, 6)}
    out["powerset2"] = FiniteSupLattice.powerset(2)
    # diamond: bottom, three incomparable atoms, top
    out["diamond"] = validate_lattice(
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)], size=5)
    # pentagon: 0 < a < c < 1 and 0 < b < 1
    out["pentagon"] = validate_lattice(
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)],
        size=5)
    # grid3x2: chain 3 x chain 2, ordered componentwise, (i, j) at 2i + j
    grid = list(itertools.product(range(3), range(2)))
    out["grid3x2"] = validate_lattice(
        [(2 * i + j, 2 * k + l) for i, j in grid for k, l in grid
         if i <= k and j <= l], size=6, names=[f"({i},{j})" for i, j in grid])
    return out


def small_quantales():
    """Corpus quantales with at most 5 elements, for nucleus oracles.

    swap4 and m3 have an involution that swaps two atoms, and m3 is
    noncommutative, so a saturation that drops its involution clause
    shows on this corpus.
    """
    from quantales.examples import (cyclic_group, group_powerset_quantale,
                                    locale_quantale, omega_quantale,
                                    product_quantale, rel_quantale,
                                    sierpinski_topology, discrete_topology,
                                    FiniteTopology)
    chain5_top = FiniteTopology.build(4, [
        frozenset(), frozenset({3}), frozenset({2, 3}), frozenset({1, 2, 3}),
        frozenset({0, 1, 2, 3})])
    return {
        "omega": omega_quantale(),
        "rel1": rel_quantale(1),
        "sierpinski-locale": locale_quantale(sierpinski_topology()),
        "PZ2": group_powerset_quantale(cyclic_group(2)),
        "omega-squared": product_quantale(omega_quantale(), omega_quantale()),
        "discrete2-locale": locale_quantale(discrete_topology(2)),
        "chain5-locale": locale_quantale(chain5_top),
        # subsets of {a, b}: a* = b, aa = a, bb = b, ab = ba = 0, unit top
        "swap4": _atomic_quantale(FiniteSupLattice.powerset(["a", "b"]),
                                  {(1, 1): 1, (2, 2): 2}, (0, 2, 1, 3), 3),
        # M3 = 0 < a, b, c < 1 with a* = b, c* = c
        "m3": _atomic_quantale(
            corpus_lattices()["diamond"],
            {(1, 1): 1, (1, 2): 4, (1, 3): 3, (2, 1): 4, (2, 2): 2,
             (2, 3): 4, (3, 1): 4, (3, 2): 3, (3, 3): 4}, (0, 2, 1, 3, 4)),
    }


def _atomic_quantale(lattice, atom_products, inv, unit=None):
    """The validated quantale whose product joins the products of atoms
    below its arguments (pairs missing from atom_products give bottom)."""
    atoms = [e for e in lattice.elements
             if e != lattice.bottom and all(
                 d in (e, lattice.bottom) for d in lattice.elements
                 if lattice.leq(d, e))]

    def mult(x, y):
        return lattice.join(atom_products.get((i, j), lattice.bottom)
                            for i in atoms if lattice.leq(i, x)
                            for j in atoms if lattice.leq(j, y))
    q = FiniteInvQuantale(lattice, [[mult(x, y) for y in lattice.elements]
                                    for x in lattice.elements], inv, unit)
    violation = validate_quantale(q)
    if violation is not None:
        raise ValueError(f"not a quantale: {violation}")
    return q


def powerset_quantale_oracle(groupoid):
    """P(G) with the product of every pair of subsets computed by
    `GroupoidPowerset.mult`, validated; the table `powerset_quantale`
    built before it extended the products of singletons."""
    from quantales.examples import GroupoidPowerset
    subsets = GroupoidPowerset(groupoid)
    n = 1 << groupoid.size
    q = FiniteInvQuantale(FiniteSupLattice.powerset(groupoid.names),
                          [[subsets.mult(u, v) for v in range(n)]
                           for u in range(n)],
                          [subsets.inv(u) for u in range(n)],
                          unit=subsets.unit)
    violation = validate_quantale(q)
    if violation is not None:
        raise ValueError(f"not a quantale: {violation}")
    return q


def tabulated(p):
    """The support map p with the tabulated P(G), `powerset_quantale` of
    its groupoid under the same label, as its target in place of the
    `GroupoidPowerset` oracle: the twin whose target elements a sweep
    over X, or a check that reads X's table, can list."""
    from quantales.examples import powerset_quantale
    return replace(p, target=powerset_quantale(p.groupoid, p.target.label))


def leq_pairs(lat):
    """Every pair (i, j) with i <= j, in index order."""
    return [(i, j) for i in lat.elements for j in lat.elements
            if lat.leq(i, j)]


def permuted(q, sigma):
    """q with element a renamed sigma[a]."""
    n = q.size
    inverse = sorted(range(n), key=sigma.__getitem__)
    carrier = validate_lattice(
        [(sigma[a], sigma[b]) for a, b in leq_pairs(q.carrier)], size=n,
        names=[q.carrier.names[a] for a in inverse])
    mult = [[sigma[q.mult(a, b)] for b in inverse] for a in inverse]
    inv = [sigma[q.inv(a)] for a in inverse]
    unit = None if q.unit is None else sigma[q.unit]
    return FiniteInvQuantale(carrier, mult, inv, unit)


def j_table(q):
    """q's products of pairs of join-irreducibles, keyed by the pair."""
    J = join_irreducibles(q.carrier)
    return {(i, j): q.mult(i, j) for i in J for j in J}


def rebuilt(q):
    """q's table extended from its J x J products by
    `from_join_irreducibles`, which refuses a carrier that is not
    distributive."""
    return FiniteInvQuantale.from_join_irreducibles(
        q.carrier, j_table(q), q.inv_table, q.unit, q.label)


def plain_copy(q):
    """q's tables in a quantale that `from_join_irreducibles` did not
    build, so that `quantale_to_doc` writes its full table."""
    return FiniteInvQuantale(q.carrier, q.mult_table, q.inv_table, q.unit)


def full_form_doc(q):
    """q's document in the full form, the only one written before the
    compact forms: the non-reflexive pairs of the order and the product
    of every pair of elements."""
    from quantales import fileformats as ff
    doc = ff.quantale_to_doc(plain_copy(q))
    doc["lattice"] = {"elements": list(q.carrier.names),
                      "leq": [[i, j] for i, j in leq_pairs(q.carrier)
                              if i != j]}
    return doc


def validate_quantale_oracle(q):
    """The exhaustive validator before the join-irreducible reduction:
    every law of QUANTALE_LAWS on every tuple of elements, the ternary laws
    on all n^3 triples, interleaved per triple."""
    pool = list(q.elements)
    runs = [(arity, [(law.name, law.holds) for law in run])
            for arity, run in itertools.groupby(QUANTALE_LAWS,
                                                lambda law: law.arity)]
    for arity, laws in runs:
        if arity < 3:
            for w in itertools.product(pool, repeat=arity):
                for name, holds in laws:
                    if not holds(q, *w):
                        return Violation(name, w)
            continue
        for a, b, c in itertools.product(pool, repeat=3):
            for name, holds in laws:
                if not holds(q, a, b, c):
                    return Violation(name, (a, b, c))
    return None


def validate_quantale_swept(q):
    """The exhaustive validator before any law was decided: the unary and
    binary laws on every element and pair, then assoc on J^3 and
    distrib-left on Q x Q x J, each swept."""
    pools = {"Q": list(q.elements), "J": join_irreducibles(q.carrier)}
    for arity, run in itertools.groupby(QUANTALE_LAWS,
                                        lambda law: law.arity):
        laws = list(run)
        if arity < 3:
            for w in itertools.product(pools["Q"], repeat=arity):
                for law in laws:
                    if not law.holds(q, *w):
                        return Violation(law.name, w)
            continue
        for law in laws:
            if any(d.reduction == DERIVED for d in law.decisions):
                continue
            for w in itertools.product(*(pools[kind] for kind in law.pools)):
                if not law.holds(q, *w):
                    return Violation(law.name, w)
    return None


def validate_hom_swept(h, source, target):
    """The exhaustive homomorphism validator before its laws were decided
    on join-irreducibles: each law of HOM_LAWS on every tuple of source
    elements, the laws of equal arity interleaved per tuple."""
    for arity, run in itertools.groupby(HOM_LAWS, lambda law: law.arity):
        laws = list(run)
        for w in itertools.product(source.elements, repeat=arity):
            for law in laws:
                if not law.holds(h, source, target, *w):
                    return Violation(law.name, w)
    return None


def map_law_swept(name, p, pools=None):
    """The exhaustive check of a map law, locale-meet included, before its
    Q-arguments were swept on join-irreducibles: the law's sweep over all
    of Q and X, for a map between finite carriers that carries its direct
    image; a witness is re-checked on one-element pools.  Given pools
    (qs, xs), such as those of `probe_pools`, the sweep runs on them
    instead, in mode "sampled"."""
    roles, sweep = MAP_LAWS[name].roles, MAP_LAWS[name].sweep
    carriers = [p.target if r == "x" else p.source for r in roles]
    if pools is None:
        mode, args = "exhaustive", [list(c.elements) for c in carriers]
    else:
        mode, args = "sampled", [pools[r == "x"] for r in roles]
    witness, count = sweep(p, *args)
    if witness is None:
        return Check(name, True, mode=mode, evaluations=count)
    assert violates(p, name, witness)
    display = ", ".join(f"{r}={c.name_of(w)}"
                        for r, c, w in zip(roles, carriers, witness))
    return Check(name, False, witness, display, mode, evaluations=count)


def map_battery_swept(p, pools=None):
    """The checks of the Frobenius battery, in report order, each by
    `map_law_swept`."""
    return [map_law_swept(name, p, pools) for name in BATTERY]


def zero_product_swept(q):
    """The first pair (a, b) of nonbottom elements of a finite q, in index
    order over all n^2 pairs, with ab = bottom; or None.  The hypothesis
    of `omega_support_map` is decided on J x J instead."""
    bot = q.bottom
    return next(((a, b) for a in q.elements for b in q.elements
                 if a != bot and b != bot and q.mult(a, b) == bot), None)


def fr2_forces_fr1(report):
    """The lemma on a `FrobeniusReport`: fr2 together with p_!(p*(e)) = e
    forces fr1 and surjectivity.  True when its premises fail."""
    if not (report.fr2 is not None and report.fr2.ok
            and report.unit_identity):
        return True
    return bool(report.fr1.ok and report.surjective)


# -- probe pools of effective carriers ------------------------------------------
#
# Drawn as the sampled mode of the library drew them, draw for draw, so
# that the evaluation counts and witnesses pinned from that mode stay as
# they were: the bottom, the curated handles and the top, then seeded
# random elements until the pool has `count` distinct members.

def _span(dim, rows):
    return RationalSubspace.from_vectors(dim, rows)


def _unit_rows(dim, arrows):
    return [[int(i == a) for i in range(dim)] for a in arrows]


def _indicator(dim, arrows):
    return [int(i in arrows) for i in range(dim)]


def matrix_max_handles(n):
    """The curated handles of Max M_n(Q): each matrix unit, the identity,
    the diagonal and the upper triangle."""
    dim = n * n
    units = [i * n + i for i in range(n)]
    handles = [_span(dim, [row]) for row in _unit_rows(dim, range(dim))]
    handles.append(_span(dim, [_indicator(dim, units)]))
    handles.append(_span(dim, _unit_rows(dim, units)))
    handles.append(_span(dim, _unit_rows(
        dim, [i * n + j for i in range(n) for j in range(n) if j >= i])))
    return handles


def group_algebra_handles(group):
    """The curated handles of Max Q[G]: the augmentation line, the lines
    through e - h and e + h for each h != e, and each group element."""
    e, dim = group.units[0], group.size
    others = [h for h in range(dim) if h != e]
    handles = [_span(dim, [_indicator(dim, range(dim))])]
    handles += [_span(dim, [[(i == e) - (i == h) for i in range(dim)]])
                for h in others]
    handles += [_span(dim, [_indicator(dim, (e, h))]) for h in others]
    handles += [_span(dim, [row]) for row in _unit_rows(dim, range(dim))]
    return handles


def sample_element(carrier, rng):
    """A seeded random element of P(G) (`GroupoidPowerset`) or of a
    subspace quantale: a random subset, or the span of at most three
    random rows with entries in [-9, 9]."""
    from quantales.examples import GroupoidPowerset
    if isinstance(carrier, GroupoidPowerset):
        return rng.getrandbits(carrier.groupoid.size)
    dim = carrier.dim
    k = rng.randint(0, min(dim, 3))
    return _span(dim, [[rng.randint(-9, 9) for _ in range(dim)]
                       for _ in range(k)])


def probe_elements(carrier, rng, count, handles=()):
    """A pool of `count` distinct elements of an effective carrier: bottom,
    then the singletons of P(G) or the given handles of a subspace
    quantale, then top, padded with `sample_element` draws (at most
    20 * count of them)."""
    from quantales.examples import GroupoidPowerset
    if isinstance(carrier, GroupoidPowerset):
        n = carrier.groupoid.size
        curated = [0] + [1 << x for x in range(n)] + [(1 << n) - 1]
    else:
        dim = carrier.dim
        curated = [carrier.bottom, *handles,
                   _span(dim, _unit_rows(dim, range(dim)))]
    pool = list(dict.fromkeys(curated))
    seen = set(pool)
    for _ in range(20 * count):
        if len(pool) >= count:
            break
        h = sample_element(carrier, rng)
        if h not in seen:
            seen.add(h)
            pool.append(h)
    return pool


def probe_pools(p, count, seed, handles=()):
    """(qs, xs) for p: Q -> X: every element of a finite carrier, and a
    probe pool of an effective one, drawn from one generator seeded with
    `seed`, Q's pool first."""
    rng = random.Random(seed)
    return tuple(list(c.elements) if c.is_finite
                 else probe_elements(c, rng, count, handles)
                 for c in (p.source, p.target))


def validate_quantale_sampled(q, rng, samples, handles=()):
    """The laws of QUANTALE_LAWS on an effective carrier: the unary and
    binary ones on every tuple of a probe pool of `samples` elements, the
    ternary ones on 5 * samples triples drawn from it.  None, or the first
    Violation."""
    pool = probe_elements(q, rng, samples, handles)
    for arity, run in itertools.groupby(QUANTALE_LAWS,
                                        lambda law: law.arity):
        laws = list(run)
        if arity < 3:
            tuples = itertools.product(pool, repeat=arity)
        else:
            tuples = ((rng.choice(pool), rng.choice(pool), rng.choice(pool))
                      for _ in range(5 * samples))
        for w in tuples:
            for law in laws:
                if not law.holds(q, *w):
                    return Violation(law.name, w)
    return None


def transposition_automorphisms(lat):
    """The lattice automorphisms swapping two join-irreducibles, as value
    tables: the join-irreducibles below each element are swapped."""
    J = join_irreducibles(lat)
    below = [frozenset(j for j in J if lat.leq(j, a)) for a in lat.elements]
    by_below = {s: a for a, s in enumerate(below)}
    for j1, j2 in itertools.combinations(J, 2):
        swap = {j1: j2, j2: j1}
        sigma = [by_below.get(frozenset(swap.get(j, j) for j in s))
                 for s in below]
        if None not in sigma and all(
                sigma[lat.join2(a, b)] == lat.join2(sigma[a], sigma[b])
                for a, b in itertools.product(lat.elements, repeat=2)):
            yield sigma


def reduction_corpus():
    """Name -> finite quantale: small_quantales(), P(S3), Rel(2), the
    product of the noncommutative m3 with P(Z/2) and two quotients of
    P(S3); the last three, like m3, have lattices that are not
    distributive."""
    from quantales.examples import (group_powerset_quantale, product_quantale,
                                    rel_quantale, symmetric_group_3)
    from quantales.nucleus import quotient_by_relation
    small = small_quantales()
    ps3 = group_powerset_quantale(symmetric_group_3())
    return {**small, "PS3": ps3, "rel2": rel_quantale(2),
            "m3xPZ2": product_quantale(small["m3"], small["PZ2"]),
            "PS3/(3,25)": quotient_by_relation(ps3, {(3, 25)})[0].quantale,
            "PS3/(6,34)": quotient_by_relation(ps3, {(6, 34)})[0].quantale}


def _table_mutants(q, count, rng):
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


def seeded_mutants(corpus):
    """(name, mutant) for the seeded mutants of `reduction_corpus()`:
    tables with one or two entries moved, 60 per entry of up to 25
    elements and 25 of each larger one (P(S3) is the dearest for the n^3
    oracle)."""
    rng = random.Random(9)
    for name, q in corpus.items():
        for m in _table_mutants(q, 60 if q.size <= 25 else 25, rng):
            yield name, m


def brute_force_join(lat, subset):
    """Least upper bound located by scanning all elements, or None."""
    ubs = [u for u in lat.elements
           if all(lat.leq(s, u) for s in subset)]
    least = [u for u in ubs if all(lat.leq(u, v) for v in ubs)]
    return least[0] if least else None


def brute_force_meet(lat, subset):
    """Greatest lower bound located by scanning all elements, or None."""
    lbs = [u for u in lat.elements
           if all(lat.leq(u, s) for s in subset)]
    greatest = [u for u in lbs if all(lat.leq(v, u) for v in lbs)]
    return greatest[0] if greatest else None


def brute_force_left_adjoints(f):
    """All value tables g with g(m) <= l iff m <= f(l), by raw enumeration."""
    dom, cod = f.dom, f.cod
    out = []
    for values in itertools.product(range(dom.size), repeat=cod.size):
        if all(dom.leq(values[m], l) == cod.leq(m, f.values[l])
               for m in cod.elements for l in dom.elements):
            out.append(values)
    return out


def all_closure_operators(lat):
    """Every closure operator, as the closure of a meet-closed family."""
    elems = list(lat.elements)
    for bits in range(1 << lat.size):
        family = [e for e in elems if bits >> e & 1]
        if lat.top not in family:
            continue
        if any(lat.meet2(a, b) not in family
               for a in family for b in family):
            continue
        yield tuple(lat.meet(c for c in family if lat.leq(a, c))
                    for a in elems)


def closure_failure(lat, values):
    """The first closure law the value table breaks, with its witness, or
    None: inflationary, idempotent and monotone, swept over every element
    and every pair."""
    for a in lat.elements:
        if not lat.leq(a, values[a]):
            return f"not inflationary at {a}"
        if values[values[a]] != values[a]:
            return f"not idempotent at {a}"
        for b in lat.elements:
            if lat.leq(a, b) and not lat.leq(values[a], values[b]):
                return f"not monotone at ({a},{b})"
    return None


def nucleus_failure(q, values):
    """The first law of an involutive quantic nucleus the value table
    breaks, or None: the closure laws, then j(a*) = j(a)* and
    j(a)j(b) <= j(ab) over every pair."""
    failure = closure_failure(q.carrier, values)
    if failure is not None:
        return failure
    for a in q.elements:
        if values[q.inv(a)] != q.inv(values[a]):
            return f"involution not respected at {a}"
        for b in q.elements:
            if not q.leq(q.mult(values[a], values[b]),
                         values[q.mult(a, b)]):
                return f"j(a)j(b) <= j(ab) fails at ({a},{b})"
    return None


def least_closure_identifying(q, pairs):
    """Pointwise minimum of all closure operators identifying the pairs."""
    lat = q.carrier
    kept = [j for j in all_closure_operators(lat)
            if all(j[r] == j[s] for r, s in pairs)]
    assert kept
    return tuple(lat.meet(j[a] for j in kept) for a in lat.elements)


def left_saturation(q, pairs, generators=None):
    """Least superset of the pairs closed under involution and under left
    products by the generators, every element by default: the brute-force
    oracle of `nucleus.saturate_relation`, which takes left products by
    join-irreducibles only.  Read from the columns of the table,
    so that a Rel(3) relation saturates in well under a second."""
    if generators is None:
        generators = q.elements
    rows = [q.mult_table[a] for a in generators]
    columns = [tuple(row[r] for row in rows) for r in q.elements]
    done = set()
    todo = list(pairs)
    while todo:
        pair = todo.pop()
        if pair in done:
            continue
        done.add(pair)
        r, s = pair
        todo.append((q.inv(r), q.inv(s)))
        todo += set(zip(columns[r], columns[s])) - done
    return frozenset(done)


def three_clause_saturation(q, pairs):
    """Least superset of the pairs closed under involution, left and right
    products, each clause applied directly."""
    done = set()
    todo = list(pairs)
    while todo:
        pair = todo.pop()
        if pair in done:
            continue
        done.add(pair)
        r, s = pair
        todo.append((q.inv(r), q.inv(s)))
        for a in q.elements:
            todo.append((q.mult(a, r), q.mult(a, s)))
            todo.append((q.mult(r, a), q.mult(s, a)))
    return frozenset(done)


def sup_maps_between(dom, cod, limit=None):
    maps = []
    for values in itertools.product(range(cod.size), repeat=dom.size):
        if values[dom.bottom] != cod.bottom:
            continue
        f = SupMap(dom, cod, values)
        if is_sup_map(f) is None:
            maps.append(f)
            if limit and len(maps) >= limit:
                break
    return maps


def _below(lat, x):
    return [u for u in lat.elements if lat.leq(u, x)]


def pairwise_tensor_close(T, seed):
    """Least bi-ideal of T containing the seed tuples: down-closure, then
    every binary join along every line of a coordinate, to a fixpoint."""
    facs = T.factors
    members = {t for t in T.grid()
               if any(x == lat.bottom for lat, x in zip(facs, t))}
    pending = list(seed)
    while pending:
        while pending:
            t = pending.pop()
            if t not in members:
                members.add(t)
                pending.extend(t[:i] + (u,) + t[i + 1:]
                               for i, lat in enumerate(facs)
                               for u in _below(lat, t[i]))
        lines = {}
        for t in members:
            for i in range(len(facs)):
                lines.setdefault((i, t[:i] + t[i + 1:]), set()).add(t[i])
        for (i, rest), vals in lines.items():
            for u, v in itertools.combinations(vals, 2):
                t = rest[:i] + (facs[i].join2(u, v),) + rest[i:]
                if t not in members:
                    pending.append(t)
    return BiIdeal(T.factors, frozenset(members))


def pairwise_tensor_elements(T):
    """The bi-ideals of an enumerable TensorLattice, as the closure of all
    its pure tensors under binary joins (O(|T|^2) joins, each union closed
    once), sorted as `TensorLattice.elements` sorts them."""
    pures = {pairwise_tensor_close(T, [t]) for t in T.grid()}
    found = set(pures)
    frontier = list(pures)
    joins = {}
    while frontier:
        g = frontier.pop()
        for h in list(found):
            union = g.members | h.members
            if union not in joins:
                joins[union] = pairwise_tensor_close(T, union)
            u = joins[union]
            if u not in found:
                found.add(u)
                frontier.append(u)
    return sorted(found, key=lambda g: (len(g.members), sorted(g.members)))


def check_bi_ideal_invariants(g):
    """Down-closure and coordinatewise join-closure of a bi-ideal, by
    membership scan; raises AssertionError at the first tuple missing."""
    facs = g.factors
    for t in g.members:
        for i, lat in enumerate(facs):
            for u in _below(lat, t[i]):
                if t[:i] + (u,) + t[i + 1:] not in g.members:
                    raise AssertionError(f"not down-closed at {t} coord {i}")
    by_rest = {}
    for t in g.members:
        for i in range(len(facs)):
            by_rest.setdefault((i, t[:i] + t[i + 1:]), []).append(t[i])
    for (i, rest), vals in by_rest.items():
        lat = facs[i]
        for u, v in itertools.combinations(vals, 2):
            t = rest[:i] + (lat.join2(u, v),) + rest[i:]
            if t not in g.members:
                raise AssertionError(
                    f"not join-closed at coord {i}, rest {rest}")
    for t in itertools.product(*(range(l.size) for l in facs)):
        if any(t[i] == facs[i].bottom for i in range(len(facs))):
            if t not in g.members:
                raise AssertionError(f"axis tuple {t} missing")


# -- the word algebra of the free product --------------------------------------
#
# The pullback verifiers build words through `family_instance` and `Word`;
# the word-algebra acceptance test checks these operations.

def word(*letters):
    """The word of the given (tag, element) letters."""
    return Word(tuple(letters))


class GradeIndex(NamedTuple):
    n: int
    start: str
    end: str
    length: int


def grade_of(w):
    """The unique grade whose letter pattern matches the word."""
    length = len(w)
    start, end = w.letters[0][0], w.letters[-1][0]
    if length % 2 == 1:
        k = (length - 1) // 2
        n = 4 * k + 1 if start == Y_TAG else 4 * k + 2
    else:
        k = (length - 2) // 2
        n = 4 * k + 3 if start == Y_TAG else 4 * k + 4
    return GradeIndex(n, start, end, length)


def word_multiply(Y, Q, w1, w2):
    """Concatenate, merging boundary letters of equal tag through Y or Q."""
    a, b = w1.letters, w2.letters
    if a[-1][0] != b[0][0]:
        return Word(a + b)
    tag = a[-1][0]
    alg = Y if tag == Y_TAG else Q
    merged = (tag, alg.mult(a[-1][1], b[0][1]))
    return Word(a[:-1] + (merged,) + b[1:])


def word_involution(Y, Q, w):
    """Reverse the letters and apply the letterwise involutions."""
    out = tuple(
        (t, (Y if t == Y_TAG else Q).inv(e)) for t, e in reversed(w.letters))
    return Word(out)


# -- brute-force oracle for the pullback verifiers ------------------------------
#
# The bounded enumerations the reduced verifiers in quantales.freeprod
# replace: every flanked instance, every word and every flanked Frobenius
# case up to a word length.

def words_shaped(Y, Q, max_len, start=None, end=None, allow_empty=False):
    """Words filtered by boundary tags; optionally include the empty flank."""
    if allow_empty:
        yield ()
    for w in all_words(Y, Q, max_len):
        if start is not None and w.first_tag != start:
            continue
        if end is not None and w.letters[-1][0] != end:
            continue
        yield w.letters


def family_instance_oracle(ctx, family, x, a=None, a2=None, y=None, y2=None,
                           left=(), right=()):
    """One generated relation pair (left word, right word), family by family.

    The per-family form that `freeprod.family_instance` derives from the
    swap rule.  Here the head families take their trailing flank as
    `left`, and standalone takes no flank.

    Shapes, with x^ = p*(x) and fx = f*(x), t/t' the optional flanks:
      standalone:  (x^)                ~ (fx)
      head_q:      (x^ a | t)          ~ (fx | a | t)
      head_y:      (x^ | y | t)        ~ (fx.y | t)
      tail_q:      (t | a x^)          ~ (t | a | fx)
      tail_y:      (t | y | x^)        ~ (t | y.fx)
      mid_qq:      (t | a x^ a' | t')  ~ (t | a | fx | a' | t')
      mid_yq:      (t | y | x^ a | t') ~ (t | y.fx | a | t')
      mid_qy:      (t | a x^ | y | t') ~ (t | a | fx.y | t')
      mid_yy:      (t | y | x^ | y' | t') ~ (t | y.fx.y' | t')
    """
    Y, Q = ctx.Y, ctx.Q
    xh = ctx.p.star(x)
    fx = ctx.f.star(x)
    if family == "standalone":
        return Word(((Q_TAG, xh),)), Word(((Y_TAG, fx),))
    if family == "head_q":
        lhs = ((Q_TAG, Q.mult(xh, a)),) + left
        rhs = ((Y_TAG, fx), (Q_TAG, a)) + left
    elif family == "head_y":
        lhs = ((Q_TAG, xh), (Y_TAG, y)) + left
        rhs = ((Y_TAG, Y.mult(fx, y)),) + left
    elif family == "tail_q":
        lhs = left + ((Q_TAG, Q.mult(a, xh)),)
        rhs = left + ((Q_TAG, a), (Y_TAG, fx))
    elif family == "tail_y":
        lhs = left + ((Y_TAG, y), (Q_TAG, xh))
        rhs = left + ((Y_TAG, Y.mult(y, fx)),)
    elif family == "mid_qq":
        mid = Q.mult(Q.mult(a, xh), a2)
        lhs = left + ((Q_TAG, mid),) + right
        rhs = left + ((Q_TAG, a), (Y_TAG, fx), (Q_TAG, a2)) + right
    elif family == "mid_yq":
        lhs = left + ((Y_TAG, y), (Q_TAG, Q.mult(xh, a))) + right
        rhs = left + ((Y_TAG, Y.mult(y, fx)), (Q_TAG, a)) + right
    elif family == "mid_qy":
        lhs = left + ((Q_TAG, Q.mult(a, xh)), (Y_TAG, y)) + right
        rhs = left + ((Q_TAG, a), (Y_TAG, Y.mult(fx, y))) + right
    elif family == "mid_yy":
        lhs = left + ((Y_TAG, y), (Q_TAG, xh), (Y_TAG, y2)) + right
        rhs = left + ((Y_TAG, Y.mult(Y.mult(y, fx), y2)),) + right
    else:
        raise ValueError(f"unknown family {family!r}")
    return Word(lhs), Word(rhs)


def pullback_relation_instances(ctx, maxlen=4):
    """All instances of the nine families with both sides within the budget.

    The flanks range over every alternating word of the appropriate
    boundary tags (plus the empty flank); an instance is kept when both of
    its sides fit in maxlen letters.
    """
    Y, Q, X = ctx.Y, ctx.Q, ctx.X
    out = []

    def emit(family, x, **kw):
        lhs, rhs = family_instance_oracle(ctx, family, x, **kw)
        if len(lhs) <= maxlen and len(rhs) <= maxlen:
            out.append(Instance(family, FAMILY_HYPOTHESIS[family], x,
                                lhs, rhs))

    ys = range(Y.size)
    qs = range(Q.size)

    def flank_pairs(budget, end_tag, start_tag):
        # total flank letters bounded by the longer side's slack
        for t in words_shaped(Y, Q, budget, end=end_tag, allow_empty=True):
            rest = budget - len(t)
            for t2 in words_shaped(Y, Q, rest, start=start_tag,
                                   allow_empty=True):
                yield t, t2

    for x in X.elements:
        emit("standalone", x)
        for t in words_shaped(Y, Q, maxlen - 2, start=Y_TAG, allow_empty=True):
            for a in qs:
                emit("head_q", x, a=a, left=t)
        for t in words_shaped(Y, Q, maxlen - 2, start=Q_TAG, allow_empty=True):
            for y in ys:
                emit("head_y", x, y=y, left=t)
        for t in words_shaped(Y, Q, maxlen - 2, end=Y_TAG, allow_empty=True):
            for a in qs:
                emit("tail_q", x, a=a, left=t)
        for t in words_shaped(Y, Q, maxlen - 2, end=Q_TAG, allow_empty=True):
            for y in ys:
                emit("tail_y", x, y=y, left=t)
        for t, t2 in flank_pairs(maxlen - 3, Y_TAG, Y_TAG):
            for a in qs:
                for a2 in qs:
                    emit("mid_qq", x, a=a, a2=a2, left=t, right=t2)
        for t, t2 in flank_pairs(maxlen - 2, Q_TAG, Y_TAG):
            for y in ys:
                for a in qs:
                    emit("mid_yq", x, y=y, a=a, left=t, right=t2)
        for t, t2 in flank_pairs(maxlen - 2, Y_TAG, Q_TAG):
            for a in qs:
                for y in ys:
                    emit("mid_qy", x, a=a, y=y, left=t, right=t2)
        for t, t2 in flank_pairs(maxlen - 3, Q_TAG, Q_TAG):
            for y in ys:
                for y2 in ys:
                    emit("mid_yy", x, y=y, y2=y2, left=t, right=t2)
    return out


def check_cores_swept(ctx, families, xs):
    """The core check before the Y-free corollary: every core of each
    family at every x in xs and every choice of its parameters, y and y2
    included, through `core_failure`; family -> FamilyResult."""
    results = {}
    for fam in families:
        res = results[fam] = FamilyResult(fam, FAMILY_HYPOTHESIS[fam])
        names = CORE_PARAMETERS[fam]
        ranges = [ctx.Q.elements if n.startswith("a") else ctx.Y.elements
                  for n in names]
        for x, values in itertools.product(xs, itertools.product(*ranges)):
            res.instances += 1
            failure = core_failure(ctx, fam, x, dict(zip(names, values)))
            if failure is not None:
                res.failures.append(failure)
    return results


def oracle_relation_failures(ctx, maxlen):
    """Family -> the enumerated instances up to maxlen on which h differs."""
    out = {fam: [] for fam in FAMILIES}
    for inst in pullback_relation_instances(ctx, maxlen):
        if word_direct_image(ctx, inst.left_word) != \
                word_direct_image(ctx, inst.right_word):
            out[inst.family].append(inst)
    return out


def oracle_counit_failures(ctx):
    """The counit evaluated on every one-letter Y-word: the elements y
    with h(y) != y."""
    return [y for y in ctx.Y.elements
            if word_direct_image(ctx, Word(((Y_TAG, y),))) != y]


def oracle_adjunction_ok(ctx, maxlen):
    """Counit on every letter, and the unit chain of every word up to maxlen."""
    if oracle_counit_failures(ctx):
        return False
    for w in all_words(ctx.Y, ctx.Q, maxlen):
        try:
            _unit_chain(ctx, w)
        except ChainFailure:
            return False
    return True


def oracle_beck_chevalley_failures(ctx):
    """The square of direct and inverse images evaluated on every
    one-letter Q-word: the elements a with h(a) != f*(p_!(a))."""
    failures = []
    for a in ctx.Q.elements:
        lhs = word_direct_image(ctx, Word(((Q_TAG, a),)))
        rhs = ctx.f.star(ctx.p.shriek(a))
        if lhs != rhs:
            failures.append({"a": a, "lhs": ctx.Y.name_of(lhs),
                             "rhs": ctx.Y.name_of(rhs)})
    return failures


def oracle_frobenius_failures(ctx, maxlen, flank_budget=1):
    """Module condition on every word up to maxlen, and the sixteen case
    shapes with flanks up to flank_budget letters; failing case names."""
    Y, Q = ctx.Y, ctx.Q
    failing = set()

    def h(w):
        return word_direct_image(ctx, w)

    def mul(w1, w2):
        return word_multiply(Y, Q, w1, w2)

    for w in all_words(Y, Q, maxlen):
        hw = h(w)
        for y in Y.elements:
            yw = Word(((Y_TAG, y),))
            if h(mul(w, yw)) != Y.mult(hw, y):
                failing.add("right-action")
            if h(mul(yw, w)) != Y.mult(y, hw):
                failing.add("left-action")

    def letters_of(tag):
        alg = Y if tag == Y_TAG else Q
        return [(tag, e) for e in alg.elements]

    for lflank, ztag, z2tag, rflank in itertools.product(
            (False, True), (Y_TAG, Q_TAG), (Y_TAG, Q_TAG), (False, True)):
        case = (f"{'t|' if lflank else ''}{ztag}.y.{z2tag}"
                f"{'|t' if rflank else ''}")
        lefts = [()] if not lflank else list(
            words_shaped(Y, Q, flank_budget,
                         end=Q_TAG if ztag == Y_TAG else Y_TAG))
        rights = [()] if not rflank else list(
            words_shaped(Y, Q, flank_budget,
                         start=Q_TAG if z2tag == Y_TAG else Y_TAG))
        for lf in lefts:
            for z in letters_of(ztag):
                alpha = Word(lf + (z,))
                ha = h(alpha)
                for rf in rights:
                    for z2 in letters_of(z2tag):
                        beta = Word((z2,) + rf)
                        hb = h(beta)
                        for y in Y.elements:
                            prod = mul(mul(alpha, Word(((Y_TAG, y),))), beta)
                            if h(prod) != Y.mult(Y.mult(ha, y), hb):
                                failing.add(case)
    return failing


def rref_oracle(vectors, dim):
    """Reduced row echelon form of the span of the vectors; zero rows dropped."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    for v in rows:
        if len(v) != dim:
            raise ValueError("vector has wrong length")
    rank = 0
    for col in range(dim):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1, 1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return tuple(tuple(r) for r in rows[:rank])


def mult_oracle(q, a, b):
    """The product of two subspaces of a groupoid algebra, from the
    definition: the span of the products of their RREF rows, in Fractions."""
    mult = q.groupoid.mult
    products = []
    for u in a.basis:
        for v in b.basis:
            out = [Fraction(0)] * q.dim
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    if mult[i][j] is not None:
                        out[mult[i][j]] += x * y
            products.append(out)
    return rref_oracle(products, q.dim)


def sgt_injective(groupoid):
    """Whether (s, t) -> s.g.t is injective on the pairs where it is
    defined, for every arrow g: the O(|G|^3) form of FR2 for the support
    map Max Q[G] -> P(G), with no cancellation possible."""
    mult, n = groupoid.mult, groupoid.size
    for g in range(n):
        seen = set()
        for s in range(n):
            sg = mult[s][g]
            if sg is None:
                continue
            for t in range(n):
                k = mult[sg][t]
                if k is not None:
                    if k in seen:
                        return False
                    seen.add(k)
    return True


def support_fr2_violated(groupoid, a_rows, x, b_rows):
    """p_!(a p*(x) b) != p_!(a) x p_!(b) for the support map of the
    groupoid, evaluated in Fractions on spanning vectors of a and b and the
    arrows of the bitmask x: the support of a span is the union of the
    supports of its spanning vectors."""
    mult, n = groupoid.mult, groupoid.size
    arrows = [g for g in range(n) if x >> g & 1]

    def support(rows):
        return {k for row in rows for k in range(n) if row[k] != 0}

    products = []
    for u in a_rows:
        for g in arrows:
            for v in b_rows:
                out = [Fraction(0)] * n
                for s in range(n):
                    for t in range(n):
                        sg = mult[s][g]
                        if u[s] and v[t] and sg is not None \
                                and mult[sg][t] is not None:
                            out[mult[sg][t]] += Fraction(u[s]) * v[t]
                products.append(out)
    rhs = {mult[mult[s][g]][t] for s in support(a_rows) for g in arrows
           for t in support(b_rows)
           if mult[s][g] is not None and mult[mult[s][g]][t] is not None}
    return support(products) != rhs


# -- raw groupoid tables ------------------------------------------------------

# (names, mult, inv, units) of a five-element loop: a unit, inverses and
# the unit law, but (1 1) 2 = 2 while 1 (1 2) = 4
FIVE_ELEMENT_LOOP = (
    ("e", "a", "b", "c", "d"),
    ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1),
     (4, 3, 1, 2, 0)),
    (0, 1, 2, 3, 4),
    (0,))


def raw_product_tables(g, h):
    """The (names, mult, inv, units) of G x H from the raw tables of G and
    H, composed componentwise where both compose, with no validation."""
    names_g, mult_g, inv_g, units_g = g
    names_h, mult_h, inv_h, units_h = h
    m = len(names_h)
    pairs = list(itertools.product(range(len(names_g)), range(m)))

    def compose(x, y):
        a, b = mult_g[x[0]][y[0]], mult_h[x[1]][y[1]]
        return None if a is None or b is None else a * m + b

    return (tuple(f"({names_g[a]},{names_h[b]})" for a, b in pairs),
            tuple(tuple(compose(x, y) for y in pairs) for x in pairs),
            tuple(inv_g[a] * m + inv_h[b] for a, b in pairs),
            tuple(sorted(u * m + v for u in units_g for v in units_h)))


def associativity_witness_swept(mult):
    """The first (i, j, k) of all n^3 triples, in index order, with i j
    and j k defined and (i j) k != i (j k), or None."""
    n = len(mult)
    for i, j, k in itertools.product(range(n), repeat=3):
        ij, jk = mult[i][j], mult[j][k]
        if ij is not None and jk is not None and mult[ij][k] != mult[i][jk]:
            return i, j, k
    return None
