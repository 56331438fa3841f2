"""Quantic nuclei presented by relations, and the quotients they define.

A binary relation R on a finite involutive quantale is first saturated by
a worklist fixpoint closing pairs under involution and under left
multiplication by arbitrary elements.  The result is closed under right
multiplication too, since (r a, s a) = ((a* r*)*, (a* s*)*).  The
elements alpha with "r <= alpha iff s <= alpha" for every saturated pair
hold top and are meet-closed, since r <= alpha ^ beta iff r <= alpha and
r <= beta.  So j(a), the meet of those above a, is one of them: j is a
closure (inflationary, monotone, idempotent) whose closed elements they
are, and it identifies each saturated pair, whose sides lie below the
same ones.  It is the least involutive quantic nucleus identifying the
pairs of R.  Its closed elements carry the quotient quantale, with
multiplication (a, b) -> j(ab), and the hom h(a) = [j(a)] is onto, as
j(c) = c for closed c.  None of this is checked.  `quotient` raises
InternalInvariantViolation exactly when its j is not an involutive
quantic nucleus, and checks each law once.  Each value j(a) must be a
closed element above a, and the closed elements a lattice holding the
products j(cd) and involutes c* it tabulates (`quantale.tabulate_quantale`
names one that is not).  Such a j is a closure iff h preserves joins
(hom-join of `validate_hom`): a closure has j(a v b) = j(j(a) v j(b)),
and a monotone h makes j monotone.  The two nucleus laws are hom-mult,
j(ab) = j(j(a)j(b)), which for a closure holds iff j(a)j(b) <= j(ab), and
hom-involution, j(a*) = j(a)*.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .quantale import FiniteInvQuantale, InvalidQuantale, \
    tabulate_quantale, validate_hom
from .suplattice import LatticeError, SupMap


class InternalInvariantViolation(RuntimeError):
    """The constructed nucleus failed its own laws; this signals a bug."""


@dataclass(frozen=True)
class RelationPresentation:
    quantale: FiniteInvQuantale
    pairs: frozenset

    def __post_init__(self):
        n = self.quantale.size
        object.__setattr__(self, "pairs",
                           frozenset((int(r), int(s)) for r, s in self.pairs))
        for r, s in self.pairs:
            if not (0 <= r < n and 0 <= s < n):
                raise ValueError(f"pair ({r},{s}) outside the carrier")


def saturate_relation(rel):
    """Least superset of the pairs closed under involution and one-sided
    products; closing under involution and left products suffices."""
    q = rel.quantale
    done = set()
    todo = deque(rel.pairs)
    while todo:
        pair = todo.popleft()
        if pair in done:
            continue
        done.add(pair)
        r, s = pair
        todo.append((q.inv(r), q.inv(s)))
        for a in q.elements:
            todo.append((q.mult(a, r), q.mult(a, s)))
    return frozenset(done)


def saturated_elements(q, saturated):
    """Elements seeing both sides of every saturated pair the same way."""
    return frozenset(
        alpha for alpha in q.elements
        if all(q.leq(r, alpha) == q.leq(s, alpha) for r, s in saturated))


@dataclass(frozen=True)
class Nucleus:
    quantale: FiniteInvQuantale
    values: tuple

    def __call__(self, a):
        return self.values[a]


def nucleus_from_relation(rel):
    """Least involutive quantic nucleus identifying the given pairs."""
    q = rel.quantale
    saturated = saturate_relation(rel)
    closed = saturated_elements(q, saturated)
    values = tuple(
        q.meet(c for c in closed if q.leq(a, c)) for a in q.elements)
    return Nucleus(q, values)


@dataclass(frozen=True)
class QuotientQuantale:
    quantale: FiniteInvQuantale
    closed: tuple


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
    rel = RelationPresentation(q, frozenset(pairs))
    return quotient(q, nucleus_from_relation(rel))

