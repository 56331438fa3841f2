"""Tensor products of finite sup-lattices, their bimorphisms, and the
symmetry and unit isomorphisms.

Tensor elements are bi-ideals: subsets of the cartesian grid of the factor
carriers that are down-closed and closed under joins in each coordinate
separately, including the empty join, which forces every tuple with a
bottom coordinate into every bi-ideal.  Order is inclusion, meets are
intersections, and joins close the union.

Every closure works on traces.  Write J(x) for the join-irreducibles
below x, and call a J-tuple one with every coordinate ji in J(Li).  The
trace of a bi-ideal G is S = G & (J(L1) x ... x J(Ln)), a bitmask over
the prod |J(Li)| J-tuples.  A line fixes every coordinate but one, i, at
join-irreducibles; S is line-closed when every line holds J(v) for v the
join of the ji of S on it.  G -> S is an inclusion-preserving bijection
from the bi-ideals onto the line-closed traces, with inverse
S -> G(S) = {t : J(t1) x ... x J(tn) <= S}:

- the trace of G is line-closed: its tuples on a line lie in G, so does
  their join in coordinate i, and so does everything below that;
- a line-closed S is down-closed among the J-tuples, since J(v) holds
  J(ji) on each line and a smaller J-tuple is reached by lowering one
  coordinate at a time;
- G(S) is a bi-ideal.  It is down-closed because J is monotone, and
  holds every tuple with a bottom coordinate, whose box is empty.  If t
  and t' differ only in coordinate i, at a and a', the line through
  each J-tuple of the other coordinates' boxes holds J(a) | J(a'),
  whose join is a v a', so it holds J(a v a') too;
- the trace of G(S) is S, because S is down-closed; and G(S) for S the
  trace of G is G, because t in G puts its box in G, and conversely t
  is the join, one coordinate after another, of the J-tuples of its box
  (a coordinate with an empty J(ti) is bottom, and the tuple lies on an
  axis).

Nothing here needs distributivity, so the diamond M3 and the pentagon N5
take the same path.  On distributive factors J(a v b) = J(a) | J(b), line
closure is down-closure, and the tensor is the down-set lattice of
J(L1) x ... x J(Ln), as D(P) (x) D(P') = D(P x P') says.

The closure sweeps every line of every coordinate, adding J(v) to it
(looked up per bit pattern of the trace on the line), until a sweep adds
nothing.  Full enumeration, when the grid is within the configured
bound, closes the empty trace under adding one J-tuple at a time, which
reaches every line-closed trace because each is the closure of its own
bits.  That is at most |T| * prod |J(Li)| closures on prod |J(Li)| bits,
plus one pass over the grid per element to build its bi-ideal.
"""

from __future__ import annotations

import itertools
import math

from .records import FrozenRecord, setfield
from .suplattice import (NotSupPreserving, SupMap, _bits, is_sup_map,
                         join_irreducibles, validate_lattice)


class EnumerationBoundExceeded(RuntimeError):
    def __init__(self, grid, bound):
        super().__init__(
            f"grid of {grid} tuples exceeds the enumeration bound {bound}; "
            "no bi-ideal can be built, only meets and order tests of "
            "given ones")


class NotBimorphism(ValueError):
    def __init__(self, coordinate, witness):
        self.coordinate = coordinate
        self.witness = witness
        super().__init__(
            f"map does not preserve joins in coordinate {coordinate} "
            f"at {witness}")


class BiIdeal(FrozenRecord):
    __slots__ = ("factors", "members")

    def __init__(self, factors, members):
        setfield(self, "factors", factors)
        setfield(self, "members", members)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.factors, self.members) == (other.factors, other.members)

    def __hash__(self):
        return hash((self.factors, self.members))

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

    Every operation that builds a bi-ideal (the bottom, the top, pure
    tensors, closures, joins and the enumeration) lists members from the
    grid (product of carrier sizes), so it raises EnumerationBoundExceeded
    when the grid exceeds `bound`; meets and order tests of given
    bi-ideals still work.
    """

    def __init__(self, factors, bound=4096):
        self.factors = tuple(factors)
        self.bound = bound
        self.grid_size = 1
        for lat in self.factors:
            self.grid_size *= lat.size
        self._width = math.prod(len(join_irreducibles(lat))
                                for lat in self.factors)
        self._bottom = None
        self._line_data = None
        self._box = None
        self._elements = None

    def grid(self):
        return itertools.product(*(range(l.size) for l in self.factors))

    def _lines(self):
        """Per coordinate i, where the J-tuple whose ji is the k-th
        join-irreducible of Li sits at bit sum k * stride_i: the factor, its
        join-irreducibles, the stride, the mask of J(x) on the line through
        bit 0 for each x of Li, the first bit of every line, and a memo from
        the pattern of a trace on a line to that mask at the pattern's join."""
        if self._line_data is None:
            coords, stride = [], 1
            for lat in reversed(self.factors):
                js = join_irreducibles(lat)
                along = [sum(1 << k * stride for k, j in enumerate(js)
                             if lat.leq(j, x)) for x in lat.elements]
                coords.append((lat, js, stride, along))
                stride *= len(js)
            self._line_data = [
                (lat, js, stride, along, [b for b in range(self._width)
                                          if b // stride % len(js) == 0], {})
                for lat, js, stride, along in reversed(coords)]
        return self._line_data

    def _close(self, s):
        """Least line-closed trace containing the trace s."""
        lines = self._lines()
        while True:
            before = s
            for lat, js, stride, along, starts, memo in lines:
                full = along[lat.top]
                for b in starts:
                    pattern = s >> b & full
                    if pattern:
                        hull = memo.get(pattern)
                        if hull is None:
                            hull = memo[pattern] = along[lat.join(
                                js[k // stride] for k in _bits(pattern))]
                        s |= hull << b
            if s == before:
                return s

    def _boxes(self):
        """The trace of every grid tuple's down-set: the mask of the box
        J(t1) x ... x J(tn), a product of per-coordinate masks whose bit
        positions add without carries."""
        if self._box is None:
            if self.grid_size > self.bound:
                raise EnumerationBoundExceeded(self.grid_size, self.bound)
            lines = self._lines()
            self._box = {t: math.prod(line[3][x] for line, x in zip(lines, t))
                         for t in self.grid()}
        return self._box

    def _ideal(self, s):
        """The bi-ideal of a line-closed trace."""
        return BiIdeal(self.factors, frozenset(
            t for t, box in self._boxes().items() if box & s == box))

    def close(self, seed):
        """Least bi-ideal containing the seed tuples."""
        boxes = self._boxes()
        s = 0
        for t in seed:
            s |= boxes[t]
        return self._ideal(self._close(s))

    def pure(self, t):
        """Least bi-ideal containing the tuple, its down-set plus the axes:
        the bi-ideal of its box, which is line-closed."""
        return self._ideal(self._boxes()[t])

    @property
    def bottom(self):
        """The bi-ideal of the empty trace: the tuples with a bottom
        coordinate."""
        if self._bottom is None:
            self._bottom = self._ideal(0)
        return self._bottom

    @property
    def top(self):
        return self._ideal((1 << self._width) - 1)

    def join(self, ideals):
        return self.close(t for g in ideals for t in g.members)

    def elements(self):
        """All bi-ideals, as closures of traces grown one J-tuple at a time
        (within the bound), sorted by size and then by members."""
        if self._elements is None:
            if self.grid_size > self.bound:
                raise EnumerationBoundExceeded(self.grid_size, self.bound)
            found = {0}
            frontier = [0]
            while frontier:
                g = frontier.pop()
                for p in range(self._width):
                    if not g >> p & 1:
                        u = self._close(g | 1 << p)
                        if u not in found:
                            found.add(u)
                            frontier.append(u)
            self._elements = sorted(
                map(self._ideal, found),
                key=lambda g: (len(g.members), sorted(g.members)))
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

