"""Tensor products of finite sup-lattices, their bimorphisms, and the
symmetry and unit isomorphisms.

Tensor elements are bi-ideals: subsets of the cartesian grid of the factor
carriers that are down-closed and closed under joins in each coordinate
separately, including the empty join, which forces every tuple with a
bottom coordinate into every bi-ideal.  Order is inclusion, meets are
intersections, and joins close the union.

Full enumeration, when the grid is within the configured bound, closes
the bottom under joins with the generators pure(j1, ..., jn), one per
tuple of join-irreducibles ji of the factors Li.  These reach every
bi-ideal:

- every bi-ideal is the join of the pure tensors (least bi-ideals through
  one tuple) of its members;
- a pure tensor with a bottom coordinate is the bottom;
- in any finite lattice ti = join {j in J(Li) : j <= ti}, and the pure
  tensor preserves joins in each coordinate, so pure(t) is the join of
  the generators pure(j) with every ji <= ti.

No distributivity is needed.  A generator already below a found bi-ideal
g is skipped, which is a membership test of its tuple, so the
enumeration costs at most |T| * prod |J(Li)| joins; joining every pair of
found bi-ideals, the oracle of the tests, costs O(|T|^2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .suplattice import (NotSupPreserving, SupMap, is_sup_map,
                         join_irreducibles, validate_lattice)


class EnumerationBoundExceeded(RuntimeError):
    def __init__(self, grid, bound):
        super().__init__(
            f"grid of {grid} tuples exceeds the enumeration bound {bound}; "
            "only pure-tensor arithmetic is available")


class NotBimorphism(ValueError):
    def __init__(self, coordinate, witness):
        self.coordinate = coordinate
        self.witness = witness
        super().__init__(
            f"map does not preserve joins in coordinate {coordinate} "
            f"at {witness}")


@dataclass(frozen=True)
class BiIdeal:
    factors: tuple
    members: frozenset

    def leq(self, other):
        if self.factors != other.factors:
            raise ValueError("bi-ideals of different tensor products")
        return self.members <= other.members

    def meet(self, other):
        if self.factors != other.factors:
            raise ValueError("bi-ideals of different tensor products")
        return BiIdeal(self.factors, self.members & other.members)

    def __contains__(self, t):
        return t in self.members


class TensorLattice:
    """Tensor product of a list of finite sup-lattices.

    Enumeration of all elements is available while the grid (product of
    carrier sizes) stays within `bound`; beyond it, pure tensors, meets,
    joins and order tests on explicitly constructed bi-ideals still work.
    """

    def __init__(self, factors, bound=4096):
        self.factors = tuple(factors)
        self.bound = bound
        self.grid_size = 1
        for lat in self.factors:
            self.grid_size *= lat.size
        self._axes = None
        self._elements = None

    def grid(self):
        return itertools.product(*(range(l.size) for l in self.factors))

    @property
    def axes(self):
        if self._axes is None:
            if self.grid_size > self.bound:
                raise EnumerationBoundExceeded(self.grid_size, self.bound)
            bots = tuple(l.bottom for l in self.factors)
            self._axes = frozenset(
                t for t in self.grid()
                if any(t[i] == bots[i] for i in range(len(t))))
        return self._axes

    def close(self, seed):
        """Least bi-ideal containing the seed tuples.

        Alternates down-closure with one join per line (a coordinate i and
        fixed other coordinates): a down-closed set whose line values
        contain their own join is closed under the binary joins along it.
        """
        members = set(self.axes)
        facs = self.factors
        arity = len(facs)

        def down_close(pending):
            while pending:
                t = pending.pop()
                if t in members:
                    continue
                members.add(t)
                for i in range(arity):
                    for u in facs[i].downset(t[i]):
                        if u != t[i]:
                            t2 = t[:i] + (u,) + t[i + 1:]
                            if t2 not in members:
                                pending.append(t2)

        down_close(list(seed))
        while True:
            by_rest = {}
            for t in members:
                for i in range(arity):
                    by_rest.setdefault((i, t[:i] + t[i + 1:]), set()).add(t[i])
            new = []
            for (i, rest), vals in by_rest.items():
                t = rest[:i] + (facs[i].join(vals),) + rest[i:]
                if t not in members:
                    new.append(t)
            if not new:
                break
            down_close(new)
        return BiIdeal(self.factors, frozenset(members))

    def pure(self, t):
        """Least bi-ideal containing the tuple: its downset plus the axes."""
        facs = self.factors
        if any(t[i] == facs[i].bottom for i in range(len(t))):
            return self.bottom
        downs = [lat.downset(x) for lat, x in zip(facs, t)]
        return BiIdeal(self.factors,
                       self.axes | frozenset(itertools.product(*downs)))

    @property
    def bottom(self):
        return BiIdeal(self.factors, self.axes)

    @property
    def top(self):
        if self.grid_size > self.bound:
            raise EnumerationBoundExceeded(self.grid_size, self.bound)
        return BiIdeal(self.factors, frozenset(self.grid()))

    def join(self, ideals):
        ideals = list(ideals)
        if not ideals:
            return self.bottom
        united = set()
        for g in ideals:
            united |= g.members
        return self.close(united)

    def elements(self):
        """All bi-ideals, as joins of join-irreducible pure tensors (within
        the bound), sorted by size and then by members."""
        if self._elements is None:
            if self.grid_size > self.bound:
                raise EnumerationBoundExceeded(self.grid_size, self.bound)
            gens = [(t, self.pure(t)) for t in itertools.product(
                *(join_irreducibles(l) for l in self.factors))]
            found = {self.bottom}
            frontier = [self.bottom]
            while frontier:
                g = frontier.pop()
                for t, p in gens:
                    if t in g.members:
                        continue
                    u = self.join([g, p])
                    if u not in found:
                        found.add(u)
                        frontier.append(u)
            self._elements = sorted(
                found, key=lambda g: (len(g.members), sorted(g.members)))
        return self._elements

    def as_suplattice(self):
        """The enumerated tensor as a FiniteSupLattice plus the element list."""
        elems = self.elements()
        n = len(elems)
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if elems[i].members <= elems[j].members]
        return validate_lattice(pairs, size=n), elems


def check_bimorphism(b, factors, target):
    """None if b preserves joins (including empty) in every coordinate."""
    factors = tuple(factors)
    for i, lat in enumerate(factors):
        contexts = itertools.product(
            *(range(l.size) for k, l in enumerate(factors) if k != i))
        for rest in contexts:
            def at(v):
                return rest[:i] + (v,) + rest[i:]
            if b(at(lat.bottom)) != target.bottom:
                return (i, (rest, "empty"))
            for u in range(lat.size):
                for v in range(u + 1, lat.size):
                    if b(at(lat.join2(u, v))) != target.join2(b(at(u)), b(at(v))):
                        return (i, (rest, u, v))
    return None


def induced_from_bimorphism(b, factors, target, tensor=None):
    """Extend a verified bimorphism to a join-preserving map on the tensor.

    The extension sends a bi-ideal to the target join of b over its member
    tuples, which agrees with b on pure tensors.  Returns (fn, sup_map)
    where sup_map is materialized only when the tensor is enumerable.
    """
    factors = tuple(factors)
    w = check_bimorphism(b, factors, target)
    if w is not None:
        raise NotBimorphism(*w)
    T = tensor or TensorLattice(factors)

    def fn(ideal):
        return target.join(b(t) for t in ideal.members)

    sup_map = None
    if T.grid_size <= T.bound:
        lat, elems = T.as_suplattice()
        sup_map = SupMap(lat, target, tuple(fn(g) for g in elems))
        w = is_sup_map(sup_map)
        if w is not None:
            raise NotSupPreserving(w)
        for t in T.grid():  # agreement on pure tensors
            if fn(T.pure(t)) != b(t):
                raise RuntimeError(f"extension disagrees with b at {t}")
    return fn, sup_map


def swap_map(T_ml, ideal):
    """Image of a bi-ideal of L (x) M under the symmetry L (x) M ~ M (x) L,
    as a bi-ideal of T_ml = M (x) L."""
    return BiIdeal(T_ml.factors, frozenset(t[::-1] for t in ideal.members))


def unit_iso(T):
    """For factors (2-chain, L): mutually inverse sup-maps to and from L.

    Sends a bi-ideal G to the join of { l : (top, l) in G } and an element
    l back to the pure tensor at (top, l).
    """
    two, L = T.factors
    if two.size != 2:
        raise ValueError("first factor must be the two-element lattice")
    lat, elems = T.as_suplattice()
    to_l = SupMap(lat, L, tuple(
        L.join(l for (o, l) in g.members if o == two.top) for g in elems))
    from_l = SupMap(L, lat, tuple(
        elems.index(T.pure((two.top, l))) for l in L.elements))
    return to_l, from_l

