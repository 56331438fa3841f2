"""Quantic nuclei presented by relations, and the quotients they define.

The saturation and the closed elements are computed on the
join-irreducibles J of the finite involutive quantale Q and on the order's
bitmasks (`suplattice`).  J(a) is the set of join-irreducibles below a,
so a = V J(a).

Saturation.  A binary relation R is closed, by a worklist fixpoint, under
involution and under left products by join-irreducibles only.  An element
alpha respects a pair (r, s) when r <= alpha iff s <= alpha.  The elements
respecting this J-saturation S_J are those respecting the closure S of R
under involution and under left and right products by every element.  By
induction on how a pair of S is built, it is (V r_t, V s_t) for pairs
(r_t, s_t) of S_J over one index set: the pairs of R are; the involution
preserves joins and S_J is closed under it; a left product is
a(V r_t) = V{i r_t : i in J(a)}, and S_J is closed under left products by
J; a right product is r a = (a* r*)*.  The empty join is bottom on both
sides, which every alpha respects.  And alpha respects such a pair iff it
respects each (r_t, s_t), as V r_t <= alpha iff every r_t <= alpha.

Closed elements.  Bit alpha of up[r] ^ up[s] is set exactly when alpha
does not respect (r, s), so the respecting elements are the complement of
the OR of these masks.  They hold top and are meet-closed, since
r <= alpha ^ beta iff r <= alpha and r <= beta.  So j(a), the meet of
those above a, is one of them: j is a closure (inflationary, monotone,
idempotent) whose closed elements they are, and it identifies each
saturated pair, whose sides lie below the same ones.  It is the least
involutive quantic nucleus identifying the pairs of R.

The laws.  None of this is checked.  `quotient` raises
InternalInvariantViolation exactly when its j is not an involutive quantic
nucleus, and checks each law once.  Each value j(a) must be a closed
element above a, and the closed elements a lattice holding the products
j(cd) and involutes c* it tabulates (`quantale.tabulate_quantale` names
one that is not).  Such a j is a closure iff h preserves joins (hom-join
of `validate_hom`): a closure has j(a v b) = j(j(a) v j(b)), and a
monotone h makes j monotone.  The two nucleus laws are hom-mult,
j(ab) = j(j(a)j(b)), which for a closure holds iff j(a)j(b) <= j(ab), and
hom-involution, j(a*) = j(a)*.  Its closed elements carry the quotient
quantale, with multiplication (a, b) -> j(ab), and the hom h(a) = [j(a)]
is onto, as j(c) = c for closed c.
"""

from __future__ import annotations

from .quantale import InvalidQuantale, tabulate_quantale, validate_hom
from .records import FrozenRecord, setfield
from .suplattice import LatticeError, SupMap, _bits, join_irreducibles


class InternalInvariantViolation(RuntimeError):
    """The constructed nucleus failed its own laws; this signals a bug."""


class RelationPresentation(FrozenRecord):
    __slots__ = ("quantale", "pairs")

    def __init__(self, quantale, pairs):
        n = quantale.size
        pairs = [(int(r), int(s)) for r, s in pairs]
        for r, s in pairs:
            if not (0 <= r < n and 0 <= s < n):
                raise ValueError(f"pair ({r},{s}) out of range")
        setfield(self, "quantale", quantale)
        setfield(self, "pairs", frozenset(pairs))


def saturate_relation(rel):
    """Least superset of the pairs closed under involution and left
    products by join-irreducibles (module docstring)."""
    q = rel.quantale
    inv = q.inv_table
    rows = [q.mult_table[i] for i in join_irreducibles(q.carrier)]
    done = set(rel.pairs)
    todo = list(done)
    while todo:
        r, s = todo.pop()
        for pair in [(inv[r], inv[s])] + [(row[r], row[s]) for row in rows]:
            if pair not in done:
                done.add(pair)
                todo.append(pair)
    return frozenset(done)


def saturated_elements(q, saturated):
    """Elements seeing both sides of every saturated pair the same way."""
    up = q.carrier.up
    differ = 0
    for r, s in saturated:
        differ |= up[r] ^ up[s]
    return frozenset(_bits(((1 << q.size) - 1) & ~differ))


class Nucleus(FrozenRecord):
    __slots__ = ("quantale", "values")

    def __init__(self, quantale, values):
        setfield(self, "quantale", quantale)
        setfield(self, "values", values)

    def __call__(self, a):
        return self.values[a]


def nucleus_from_relation(rel):
    """Least involutive quantic nucleus identifying the given pairs."""
    q = rel.quantale
    closed = sum(1 << c for c in
                 saturated_elements(q, saturate_relation(rel)))
    lat = q.carrier
    return Nucleus(q, tuple(lat.meet(_bits(up & closed)) for up in lat.up))


class QuotientQuantale(FrozenRecord):
    __slots__ = ("quantale", "closed")

    def __init__(self, quantale, closed):
        setfield(self, "quantale", quantale)
        setfield(self, "closed", closed)


def quotient(q, nuc):
    """The quotient quantale on the closed elements, with its surjective
    hom; InternalInvariantViolation when nuc is not an involutive quantic
    nucleus (module docstring)."""
    closed = tuple(a for a in q.elements if nuc(a) == a)
    index = {c: k for k, c in enumerate(closed)}
    hom_values = tuple(index.get(v) for v in nuc.values)
    for a in q.elements:
        if hom_values[a] is None or not q.leq(a, nuc(a)):
            raise InternalInvariantViolation(
                f"j({a}) = {nuc(a)} is not a closed element above {a}")
    try:
        quot = tabulate_quantale(closed, q.leq,
                                 lambda a, b: nuc(q.mult(a, b)), q.inv,
                                 q.name_of, label=f"{q.label or 'Q'}/j")
    except (InvalidQuantale, LatticeError) as e:
        raise InternalInvariantViolation(
            f"quotient is not a quantale: {e}") from e
    v = validate_hom(hom_values.__getitem__, q, quot)
    if v is not None:
        raise InternalInvariantViolation(f"quotient hom is not a hom: {v}")
    return QuotientQuantale(quot, closed), SupMap(q.carrier, quot.carrier,
                                                  hom_values)


def quotient_by_relation(q, pairs):
    return quotient(q, nucleus_from_relation(RelationPresentation(q, pairs)))
