"""Shared corpora and brute-force oracles for the test suite.

The oracles deliberately avoid the library's own formulas: joins are found
by scanning upper bounds, adjoints by enumerating all value tables, least
nuclei by enumerating all closure operators, and the pullback verdicts by
enumerating flanked instances instead of using the flank lemma or the
Y-letter lemma.  Expected
values frozen in the tests were computed with these.
"""

import itertools

from quantales.freeprod import (FAMILIES, FAMILY_HYPOTHESIS, Q_TAG, Y_TAG,
                                ChainFailure, Instance, Word, _unit_chain,
                                all_words, family_instance,
                                word_direct_image, word_multiply)
from quantales.quantale import FiniteInvQuantale, validate_quantale
from quantales.suplattice import (FiniteSupLattice, SupMap, is_sup_map,
                                  validate_lattice)


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
    out["grid3x2"] = FiniteSupLattice.product(
        FiniteSupLattice.chain(3), FiniteSupLattice.chain(2))
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


def brute_force_join(lat, subset):
    """Least upper bound located by scanning all elements, or None."""
    ubs = [u for u in lat.elements
           if all(lat.leq(s, u) for s in subset)]
    least = [u for u in ubs if all(lat.leq(u, v) for v in ubs)]
    return least[0] if least else None


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


def least_closure_identifying(q, pairs):
    """Pointwise minimum of all closure operators identifying the pairs."""
    lat = q.carrier
    kept = [j for j in all_closure_operators(lat)
            if all(j[r] == j[s] for r, s in pairs)]
    assert kept
    return tuple(lat.meet(j[a] for j in kept) for a in lat.elements)


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
        if end is not None and w.last_tag != end:
            continue
        yield w.letters


def pullback_relation_instances(ctx, maxlen=4):
    """All instances of the nine families with both sides within the budget.

    The flanks range over every alternating word of the appropriate
    boundary tags (plus the empty flank); an instance is kept when both of
    its sides fit in maxlen letters.
    """
    Y, Q, X = ctx.Y, ctx.Q, ctx.X
    out = []

    def emit(family, x, **kw):
        lhs, rhs = family_instance(ctx, family, x, **kw)
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


def oracle_relation_failures(ctx, maxlen):
    """Family -> the enumerated instances up to maxlen on which h differs."""
    out = {fam: [] for fam in FAMILIES}
    for inst in pullback_relation_instances(ctx, maxlen):
        if word_direct_image(ctx, inst.left_word) != \
                word_direct_image(ctx, inst.right_word):
            out[inst.family].append(inst)
    return out


def oracle_adjunction_ok(ctx, maxlen):
    """Counit on every letter, and the unit chain of every word up to maxlen."""
    if any(word_direct_image(ctx, Word(((Y_TAG, y),))) != y
           for y in ctx.Y.elements):
        return False
    for w in all_words(ctx.Y, ctx.Q, maxlen):
        try:
            _unit_chain(ctx, w)
        except ChainFailure:
            return False
    return True


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
