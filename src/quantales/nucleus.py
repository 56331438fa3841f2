"""Quantic nuclei presented by relations, and the quotients they define.

A binary relation R on a finite involutive quantale is first saturated by
a worklist fixpoint closing pairs under involution and under left
multiplication by arbitrary elements.  The result is closed under right
multiplication too, since (r a, s a) = ((a* r*)*, (a* s*)*).  The
elements alpha with "r <= alpha iff s <= alpha" for every saturated pair
form a meet-closed family, and the closure operator it induces is the
least involutive quantic nucleus identifying the pairs of R.  Its fixed
points carry the quotient quantale, with multiplication (a, b) -> j(ab).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .quantale import FiniteInvQuantale, find_unit, validate_hom, \
    validate_quantale
from .suplattice import ClosureOperator, SupMap, validate_lattice


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
    out = frozenset(
        alpha for alpha in q.elements
        if all(q.leq(r, alpha) == q.leq(s, alpha) for r, s in saturated))
    if q.top not in out:
        raise InternalInvariantViolation("top is not saturated")
    for a in out:  # meet-closure is forced by the defining condition
        for b in out:
            if q.carrier.meet2(a, b) not in out:
                raise InternalInvariantViolation(
                    f"saturated elements not meet-closed at ({a},{b})")
    return out


@dataclass(frozen=True)
class Nucleus:
    quantale: FiniteInvQuantale
    values: tuple

    def __call__(self, a):
        return self.values[a]

    def closure(self):
        return ClosureOperator(self.quantale.carrier, self.values)

    def closed_elements(self):
        return tuple(a for a in self.quantale.elements if self.values[a] == a)

    def validate(self):
        """Closure laws plus j(a)j(b) <= j(ab) and j(a*) = j(a)*."""
        self.closure().validate()
        q, j = self.quantale, self.values
        for a in q.elements:
            if j[q.inv(a)] != q.inv(j[a]):
                raise InternalInvariantViolation(
                    f"involution not respected at {a}")
            for b in q.elements:
                if not q.leq(q.mult(j[a], j[b]), j[q.mult(a, b)]):
                    raise InternalInvariantViolation(
                        f"j(a)j(b) <= j(ab) fails at ({a},{b})")


def nucleus_from_relation(rel):
    """Least involutive quantic nucleus identifying the given pairs."""
    q = rel.quantale
    saturated = saturate_relation(rel)
    closed = saturated_elements(q, saturated)
    values = tuple(
        q.meet(c for c in closed if q.leq(a, c)) for a in q.elements)
    nuc = Nucleus(q, values)
    nuc.validate()
    for r, s in rel.pairs:
        if values[r] != values[s]:
            raise InternalInvariantViolation(f"pair ({r},{s}) not identified")
    return nuc


@dataclass(frozen=True)
class QuotientQuantale:
    quantale: FiniteInvQuantale
    base: FiniteInvQuantale
    nucleus: Nucleus
    closed: tuple
    hom: SupMap


def quotient(q, nuc):
    """The quotient quantale on the closed elements, with its surjective hom."""
    closed = tuple(sorted(nuc.closed_elements()))
    index = {c: k for k, c in enumerate(closed)}
    n = len(closed)
    pairs = [(i, j) for i in range(n) for j in range(n)
             if q.leq(closed[i], closed[j])]
    names = [q.name_of(c) for c in closed]
    carrier = validate_lattice(pairs, size=n, names=names)
    mult = [[index[nuc(q.mult(closed[i], closed[j]))] for j in range(n)]
            for i in range(n)]
    inv = [index[q.inv(closed[i])] for i in range(n)]
    quot = FiniteInvQuantale(carrier, mult, inv,
                             label=f"{q.label or 'Q'}/j")
    quot.unit = find_unit(quot)
    v = validate_quantale(quot)
    if v is not None:
        raise InternalInvariantViolation(f"quotient is not a quantale: {v}")
    hom_values = tuple(index[nuc(a)] for a in q.elements)
    hom = SupMap(q.carrier, carrier, hom_values)
    v = validate_hom(hom_values.__getitem__, q, quot)
    if v is not None:
        raise InternalInvariantViolation(f"quotient hom is not a hom: {v}")
    if set(hom_values) != set(range(n)):  # surjective by construction
        raise InternalInvariantViolation("quotient hom is not onto")
    return QuotientQuantale(quot, q, nuc, closed, hom), hom


def quotient_by_relation(q, pairs):
    rel = RelationPresentation(q, frozenset(pairs))
    return quotient(q, nucleus_from_relation(rel))

