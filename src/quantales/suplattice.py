"""Finite sup-lattices and join-preserving maps.

Elements are dense indices 0..n-1 and the order is stored as one bitmask
per element (bit j of up[i] set iff i <= j) and its transpose `down`.
Least upper bounds come out of a dictionary keyed by upper-set masks: m is
the join of {i, j} exactly when up[m] == up[i] & up[j], so validating
"every pair has a join" costs one dictionary lookup per pair instead of a
cubic scan.  The join table is the one n x n table kept.  There is no meet
table: the meet of a set is the element whose lower-set mask is the AND of
theirs, found by one lookup.  It exists because the lower bounds of a set
include the bottom, and their join, in a finite lattice, is one of them.
"""

from __future__ import annotations

from dataclasses import dataclass


class LatticeError(ValueError):
    """Base class for structural problems with orders, lattices and maps."""


class NotAPartialOrder(LatticeError):
    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"not a partial order: {axiom} fails at {witness}")


class NoBottom(LatticeError):
    def __init__(self):
        super().__init__("no bottom element (no element below all others)")


class MissingJoin(LatticeError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"pair {witness} has no least upper bound")


class NotSupPreserving(LatticeError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"map does not preserve joins, witness {witness}")


class NoLeftAdjoint(LatticeError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"no left adjoint, adjunction fails at {witness}")


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteSupLattice:
    """A finite complete lattice; build instances through validate_lattice
    or the constructors below."""

    __slots__ = ("size", "names", "up", "down", "bottom", "top",
                 "join_table", "_by_down", "_hash", "_irreducibles", "_peel")

    def __init__(self, up, names, down, bottom, top, join_table):
        self.size = len(up)
        self.up = up
        self.down = down
        self.names = names
        self.bottom = bottom
        self.top = top
        self.join_table = join_table  # join_table[i][j] is the join of i and j
        self._by_down = {m: i for i, m in enumerate(down)}
        self._hash = hash((self.size, up))
        self._irreducibles = None  # join_irreducibles, on first use
        self._peel = None  # distributive_peeling, False if not distributive

    # -- order ------------------------------------------------------------

    def leq(self, i, j):
        return (self.up[i] >> j) & 1 == 1

    def join2(self, i, j):
        return self.join_table[i][j]

    def meet2(self, i, j):
        return self._by_down[self.down[i] & self.down[j]]

    def join(self, items):
        out = self.bottom
        for i in items:
            out = self.join_table[out][i]
        return out

    def meet(self, items):
        down = self.down
        out = down[self.top]
        for i in items:
            out &= down[i]
        return self._by_down[out]

    @property
    def elements(self):
        return range(self.size)

    def name_of(self, i):
        return self.names[i]

    # -- misc -------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FiniteSupLattice)
                and self.size == other.size and self.up == other.up)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteSupLattice(size={self.size})"

    def covers(self):
        """The covering pairs (i, j): i < j and nothing lies strictly
        between, in index order.  Their reflexive-transitive closure is the
        order."""
        out = []
        for i in self.elements:
            above = self.up[i] & ~(1 << i)
            out += [(i, j) for j in _bits(above)
                    if self.down[j] & above == 1 << j]
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def chain(n, names=None):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        return validate_lattice(pairs, size=n, names=names)

    @staticmethod
    def powerset(atoms):
        """Lattice of all subsets of the given atoms, element index = bitmask.

        Built directly rather than through validate_lattice: inclusion is a
        lattice order, join is the OR of the indices (and meet their AND), the
        singletons are the join-irreducibles, and a subset a other than
        bottom peels off its lowest singleton a & -a, leaving a & (a - 1).
        """
        if isinstance(atoms, int):
            atoms = [str(i) for i in range(atoms)]
        k = len(atoms)
        n = 1 << k
        # the subsets of a are those of a without its lowest element b, and
        # the same shifted by b; the supersets of a are those of a | b, for
        # the lowest b not in a, and the same shifted back by b
        down = [1] * n
        for a in range(1, n):
            d = down[a & (a - 1)]
            down[a] = d | d << (a & -a)
        up = [1 << (n - 1)] * n
        for a in range(n - 2, -1, -1):
            u = up[a | (a + 1)]
            up[a] = u | u >> (~a & (a + 1))
        names = tuple("{" + ",".join(atoms[b] for b in _bits(a)) + "}"
                      for a in range(n))
        # table entries are the shared objects of `indices`, not one new
        # int per entry
        indices = tuple(range(n))
        pick = indices.__getitem__
        lat = FiniteSupLattice(
            tuple(up), names, tuple(down), 0, n - 1,
            tuple(tuple(map(pick, map(a.__or__, indices))) for a in indices))
        lat._irreducibles = tuple(1 << b for b in range(k))
        lat._peel = tuple((a & (a - 1), a & -a) for a in range(n))
        return lat

    @staticmethod
    def from_sets(family, names=None):
        """Lattice of an inclusion-ordered family of sets (must be a lattice)."""
        family = [frozenset(s) for s in family]
        n = len(family)
        pairs = [(i, j) for i in range(n) for j in range(n) if family[i] <= family[j]]
        return validate_lattice(pairs, size=n, names=names)


def validate_lattice(leq, size, names=None, covers=False):
    """Validate a relation as a finite lattice and precompute its join table.

    The relation is an iterable of (i, j) int pairs meaning i <= j on the
    elements 0..size-1; reflexive pairs may be omitted.  With `covers` the
    pairs generate the order, as the covering pairs of a lattice do: it is
    their reflexive-transitive closure (`_closure`), so only antisymmetry
    can fail.  Raises NotAPartialOrder / NoBottom / MissingJoin with a
    witness on failure.
    """
    n = size
    if n <= 0:
        raise LatticeError("lattice must have at least one element")
    up = [1 << i for i in range(n)]
    for i, j in leq:
        if not (0 <= i < n and 0 <= j < n):
            raise LatticeError(f"element index out of range in pair ({i},{j})")
        up[i] |= 1 << j

    if covers:
        up = _closure(up)
    else:
        for i in range(n):
            for j in _bits(up[i]):
                if j != i and (up[j] >> i) & 1:
                    raise NotAPartialOrder("antisymmetry", (i, j))
        for i in range(n):
            for j in _bits(up[i]):
                extra = up[j] & ~up[i]
                if extra:
                    k = (extra & -extra).bit_length() - 1
                    raise NotAPartialOrder("transitivity", (i, j, k))

    full = (1 << n) - 1
    bottom = next((i for i in range(n) if up[i] == full), None)
    if bottom is None:
        raise NoBottom()

    by_up = {up[i]: i for i in range(n)}  # injective by antisymmetry
    join_table = [[0] * n for _ in range(n)]
    for i in range(n):
        row = join_table[i]
        for j in range(i, n):
            m = by_up.get(up[i] & up[j])
            if m is None:
                raise MissingJoin((i, j))
            row[j] = m
            join_table[j][i] = m

    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    top = next(i for i in range(n) if down[i] == full)

    if names is None:
        names = tuple(str(i) for i in range(n))
    else:
        names = tuple(names)
        if len(names) != n:
            raise LatticeError("names length does not match element count")
    return FiniteSupLattice(tuple(up), names, tuple(down), bottom, top,
                            tuple(tuple(r) for r in join_table))


def _closure(up):
    """The reflexive-transitive closure of the relation with the masks
    `up`, in one pass in reverse topological order: an element is closed
    once every element above it is, by or-ing in their closed masks.  So
    the result is transitive by construction.  On a cycle, which leaves
    its elements unclosed, raises NotAPartialOrder("antisymmetry", (i, j))
    for consecutive elements i, j of one."""
    n = len(up)
    above = [m & ~(1 << i) for i, m in enumerate(up)]
    pending = [m.bit_count() for m in above]
    below = [[] for _ in range(n)]
    for i, m in enumerate(above):
        for j in _bits(m):
            below[j].append(i)
    closed = list(up)
    ready = [i for i in range(n) if not pending[i]]
    for j in ready:  # grows as elements become ready
        for i in below[j]:
            closed[i] |= closed[j]
            pending[i] -= 1
            if not pending[i]:
                ready.append(i)
    if len(ready) < n:
        # every unclosed element has an unclosed one above it: walk up
        path = [next(i for i in range(n) if pending[i])]
        while path.count(path[-1]) < 2:
            path.append(next(j for j in _bits(above[path[-1]]) if pending[j]))
        i = path[-1]
        raise NotAPartialOrder("antisymmetry", (i, path[path.index(i) + 1]))
    return closed


@dataclass(frozen=True)
class SupMap:
    """A function between lattices given by its value table (not yet checked)."""
    dom: FiniteSupLattice
    cod: FiniteSupLattice
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.dom.size:
            raise LatticeError("value table length does not match domain size")
        object.__setattr__(self, "values", tuple(self.values))

    def __call__(self, i):
        return self.values[i]


def join_irreducibles(lattice):
    """The join-irreducible elements, in index order: each j other than
    bottom that is not the join of the elements strictly below it.

    Every element of a finite lattice is the join of the join-irreducibles
    below it, so a map preserving joins in each argument is fixed by its
    values on them.  Computed once per lattice; each call returns a new
    list.
    """
    if lattice._irreducibles is None:
        lattice._irreducibles = tuple(
            j for j in lattice.elements if j != lattice.bottom
            and lattice.join(_bits(lattice.down[j] & ~(1 << j))) != j)
    return list(lattice._irreducibles)


def distributive_peeling(lattice):
    """The peeling of a distributive lattice, or None if it is not one.

    Write J(a) for the set of join-irreducibles below a.  The lattice is
    distributive iff J(a v b) = J(a) | J(b) for all a and b, and by
    induction on b = j1 v ... v jk it suffices to take b in J: n |J| mask
    comparisons.  Then every down-set of J is some J(a), so each a other
    than bottom is a' v j with j maximal in J(a) and J(a') = J(a) - {j}.
    The result lists (a', j) for every a, with (bottom, bottom) at bottom;
    following a' back to bottom visits one j of J(a) per step.  Computed
    once per lattice; each call returns a new list.
    """
    if lattice._peel is None:
        lattice._peel = _peeling(lattice) or False
    return list(lattice._peel) if lattice._peel else None


def _peeling(lattice):
    J = join_irreducibles(lattice)
    jbits = sum(1 << j for j in J)
    below = [d & jbits for d in lattice.down]
    for j in J:
        row = lattice.join_table[j]
        for a in lattice.elements:
            if below[row[a]] != below[a] | below[j]:
                return None
    by_mask = {m: a for a, m in enumerate(below)}
    peel = []
    for a in lattice.elements:
        m = below[a]
        j = next((j for j in _bits(m) if lattice.up[j] & m == 1 << j), None)
        peel.append((a, a) if j is None else (by_mask[m ^ (1 << j)], j))
    return tuple(peel)


def is_sup_map(f):
    """None if f preserves bottom and all binary joins, else a witness.

    The witness is () when the empty join (bottom) is not preserved and a
    pair (i, j) whose join is not preserved otherwise.
    """
    dom, cod = f.dom, f.cod
    if f.values[dom.bottom] != cod.bottom:
        return ()
    for i in range(dom.size):
        fi = f.values[i]
        for j in range(i + 1, dom.size):
            if f.values[dom.join2(i, j)] != cod.join2(fi, f.values[j]):
                return (i, j)
    return None


def preserves_joins_on_j(values, dom, cod):
    """Whether f(a v j) = f(a) v f(j) for every a and every join-irreducible
    j of dom, f: dom -> cod being the table `values`; then, by induction
    on the join-irreducibles below b, f(a v b) = f(a) v f(b) for all b."""
    J = join_irreducibles(dom)
    djoin, cjoin = dom.join_table, cod.join_table
    return all(values[djoin[a][j]] == cjoin[values[a]][values[j]]
               for a in dom.elements for j in J)


def right_adjoint(f):
    """The right adjoint f_* of a sup-map f, with f(l) <= m iff l <= f_*(m)."""
    w = is_sup_map(f)
    if w is not None:
        raise NotSupPreserving(w)
    dom, cod = f.dom, f.cod
    values = tuple(
        dom.join(l for l in dom.elements if cod.leq(f.values[l], m))
        for m in cod.elements)
    g = SupMap(cod, dom, values)
    for m in cod.elements:  # adjunction is guaranteed, keep a cheap self-check
        for l in dom.elements:
            if cod.leq(f.values[l], m) != dom.leq(l, g.values[m]):
                raise LatticeError(f"right adjoint fails at ({l},{m})")
    return g


def left_adjoint_candidate(f):
    """g(m) = meet { l : m <= f(l) }, the left adjoint of f if it has one."""
    dom, cod = f.dom, f.cod
    return tuple(
        dom.meet(l for l in dom.elements if cod.leq(m, f.values[l]))
        for m in cod.elements)


def left_adjoint(f):
    """Left adjoint of a sup-map f: dom -> cod, i.e. g with g(m) <= l iff m <= f(l).

    The candidate g(m) = meet { l : m <= f(l) } is computed first and the
    adjunction then verified on all pairs; NoLeftAdjoint carries the first
    failing (m, l) pair, which is also the semiopenness counterexample
    reported by the openness checkers.
    """
    dom, cod = f.dom, f.cod
    values = left_adjoint_candidate(f)
    for m in cod.elements:
        for l in dom.elements:
            if dom.leq(values[m], l) != cod.leq(m, f.values[l]):
                raise NoLeftAdjoint((m, l))
    return SupMap(cod, dom, values)

