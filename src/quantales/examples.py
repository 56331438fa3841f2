"""Concrete quantales and maps, over finite sets and exact rational arithmetic.

Everything here is built from scratch and validated before being handed
out: powerset quantales of finite groupoids, subspace quantales of their
rational algebras with the support maps between the two, locales of finite
topological spaces, and small "seed" maps that satisfy both Frobenius
conditions and feed the pullback verifiers.

One groupoid table builds both carrier kinds.  Its composition table
multiplies subsets in P(G) and basis vectors in the algebra, its inverse
table gives both involutions, and its units give both units.  The pair
groupoid on n objects yields Rel(n) and Max M_n(Q); a group, the groupoid
with one unit, yields P(G) and Max Q[G].
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .openness import frobenius_report
from .quantale import (EffectiveInvQuantale, FiniteInvQuantale, InvalidQuantale,
                       QuantaleMap, finite_subquantale, validate_hom,
                       validate_quantale)
from .subspaces import RationalSubspace
from .suplattice import FiniteSupLattice, _bits


class InvalidGroupTable(ValueError):
    pass


class TooLarge(ValueError):
    pass


class NotContinuous(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"preimage of open {witness} is not open")


class NotOpen(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"image of open {witness} is not open")


class HypothesisFailure(ValueError):
    def __init__(self, reason, witness=None):
        self.witness = witness
        super().__init__(reason if witness is None else f"{reason}: {witness}")


# -- groups and groupoids ----------------------------------------------------

@dataclass(frozen=True)
class FiniteGroupoidData:
    """A finite groupoid by tables; mult entries are None where undefined.
    A group is the groupoid with one unit."""
    names: tuple
    mult: tuple
    inv: tuple
    units: tuple

    @property
    def size(self):
        return len(self.names)

    def validate(self):
        n, mult, inv = self.size, self.mult, self.inv
        entries = {c for row in mult for c in row if c is not None}
        if (len(mult) != n or any(len(row) != n for row in mult)
                or len(inv) != n
                or not entries | set(inv) | set(self.units) <= set(range(n))):
            raise InvalidGroupTable("tables do not match the arrows")
        # the target x x^-1 and the source x^-1 x of each arrow x
        target = [mult[i][inv[i]] for i in range(n)]
        source = [mult[inv[i]][i] for i in range(n)]
        if set(target) | set(source) != set(self.units):
            raise InvalidGroupTable("the units are not the arrows x x^-1")
        for i in range(n):
            if mult[target[i]][i] != i or mult[i][source[i]] != i:
                raise InvalidGroupTable(f"unit law fails at {i}")
        for i, j in itertools.product(range(n), repeat=2):
            if (mult[i][j] is None) == (source[i] == target[j]):
                raise InvalidGroupTable(f"({i},{j}) must compose exactly "
                                        f"when the source of {i} is the "
                                        f"target of {j}")
        for i, j, k in itertools.product(range(n), repeat=3):
            ij, jk = mult[i][j], mult[j][k]
            if ij is not None and jk is not None:
                if mult[ij][k] != mult[i][jk]:
                    raise InvalidGroupTable(f"associativity fails at ({i},{j},{k})")


@functools.cache
def cyclic_group(n):
    names = tuple("e" if i == 0 else ("g" if i == 1 else f"g{i}")
                  for i in range(n))
    mult = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    g = FiniteGroupoidData(names, mult, inv, (0,))
    g.validate()
    return g


@functools.cache
def symmetric_group_3():
    perms = sorted(itertools.permutations(range(3)))

    def name(p):
        if p == (0, 1, 2):
            return "e"
        moved = [i for i in range(3) if p[i] != i]
        if len(moved) == 2:
            return f"({moved[0]}{moved[1]})"
        cycle = [0, p[0], p[p[0]]]
        return "(" + "".join(str(c) for c in cycle) + ")"

    index = {p: i for i, p in enumerate(perms)}
    mult = tuple(tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms)
                 for p in perms)
    inv = tuple(index[tuple(sorted(range(3), key=lambda i: p[i]))] for p in perms)
    g = FiniteGroupoidData(tuple(name(p) for p in perms), mult, inv,
                           (index[(0, 1, 2)],))
    g.validate()
    return g


def pair_groupoid(n):
    """Arrows (i, j) on {1..n}, composable when the inner indices match."""
    arrows = [(i, j) for i in range(n) for j in range(n)]
    index = {a: k for k, a in enumerate(arrows)}
    names = tuple(f"({i + 1},{j + 1})" for i, j in arrows)
    mult = tuple(tuple(index[(a[0], b[1])] if a[1] == b[0] else None
                       for b in arrows) for a in arrows)
    inv = tuple(index[(j, i)] for i, j in arrows)
    units = tuple(index[(i, i)] for i in range(n))
    g = FiniteGroupoidData(names, mult, inv, units)
    g.validate()
    return g


def powerset_quantale(groupoid, label=""):
    """Subsets of a groupoid under setwise product, converse and union."""
    k = groupoid.size
    if k > 9:
        raise TooLarge(f"powerset of {k} arrows is beyond table bounds")
    n = 1 << k
    carrier = FiniteSupLattice.powerset(groupoid.names)
    mult = [[0] * n for _ in range(n)]
    for u in range(n):
        ubits = list(_bits(u))
        for v in range(n):
            out = 0
            for a in ubits:
                row = groupoid.mult[a]
                for b in _bits(v):
                    c = row[b]
                    if c is not None:
                        out |= 1 << c
            mult[u][v] = out
    inv = [0] * n
    for u in range(n):
        out = 0
        for a in _bits(u):
            out |= 1 << groupoid.inv[a]
        inv[u] = out
    unit = 0
    for a in groupoid.units:
        unit |= 1 << a
    q = FiniteInvQuantale(carrier, mult, inv, unit=unit, label=label)
    samples = None if n <= 64 else 64
    v = validate_quantale(q, rng=random.Random(0), samples=samples)
    if v is not None:
        raise InvalidQuantale(v)
    return q


@functools.cache
def rel_quantale(n):
    """The quantale of binary relations on {1..n}: composition and converse."""
    if n < 1 or n > 3:
        raise TooLarge("relation quantales are tabulated for 1 <= n <= 3")
    return powerset_quantale(pair_groupoid(n), label=f"Rel({n})")


@functools.cache
def group_powerset_quantale(group):
    group.validate()
    return powerset_quantale(group, label=f"P(G{group.size})")


@functools.cache
def omega_quantale():
    """The two-element quantale: chain 0 < 1 with meet as multiplication."""
    carrier = FiniteSupLattice.chain(2, names=("0", "1"))
    q = FiniteInvQuantale(carrier, ((0, 0), (0, 1)), (0, 1), unit=1,
                          label="Omega")
    v = validate_quantale(q)
    if v is not None:
        raise InvalidQuantale(v)
    return q


def product_quantale(q1, q2):
    carrier = FiniteSupLattice.product(q1.carrier, q2.carrier)
    n2 = q2.size

    def enc(a, b):
        return a * n2 + b

    mult = [[enc(q1.mult(a1, b1), q2.mult(a2, b2))
             for b1 in q1.elements for b2 in q2.elements]
            for a1 in q1.elements for a2 in q2.elements]
    inv = [enc(q1.inv(a1), q2.inv(a2))
           for a1 in q1.elements for a2 in q2.elements]
    unit = None
    if q1.unit is not None and q2.unit is not None:
        unit = enc(q1.unit, q2.unit)
    q = FiniteInvQuantale(carrier, mult, inv, unit=unit,
                          label=f"{q1.label or 'Q1'}x{q2.label or 'Q2'}")
    v = validate_quantale(q)
    if v is not None:
        raise InvalidQuantale(v)
    return q


# -- subspace quantales over Q ------------------------------------------------

class MaxAlgebraQuantale(EffectiveInvQuantale):
    """Subspaces of the rational algebra of a finite groupoid.

    The basis is the set of arrows: the product of two arrows is their
    composite when they compose and zero otherwise, the involution sends
    an arrow to its inverse and the unit is the sum of the units.
    Multiplication is the span of pairwise products of basis vectors,
    joins are subspace sums and the order is containment.  Handles are
    RationalSubspace values in RREF, hence canonical.  Over Q every
    subspace of a finite-dimensional space is closed, so no completion
    step is involved.
    """

    def __init__(self, groupoid, curated=(), label=""):
        self.groupoid = groupoid
        self.dim = groupoid.size
        self._bottom = RationalSubspace.zero(self.dim)
        self.unit = _line(_indicator(self.dim, groupoid.units))
        self._curated = list(curated)
        self.label = label

    @property
    def bottom(self):
        return self._bottom

    def leq(self, a, b):
        return a.leq(b)

    def join(self, items):
        vectors = []
        for s in items:
            vectors.extend(s.basis)
        return RationalSubspace.from_vectors(self.dim, vectors)

    def _product(self, u, v):
        # RREF rows of curated handles are mostly zero: skip those entries
        out = [0] * self.dim
        right = [(j, y) for j, y in enumerate(v) if y]
        for i, x in enumerate(u):
            if x:
                row = self.groupoid.mult[i]
                for j, y in right:
                    k = row[j]
                    if k is not None:
                        out[k] += x * y
        return out

    def mult(self, a, b):
        products = [self._product(u, v) for u in a.basis for v in b.basis]
        return RationalSubspace.from_vectors(self.dim, products)

    def inv(self, a):
        # the coefficient of x in u* is that of x^-1 in u
        return RationalSubspace.from_vectors(
            self.dim, [[u[k] for k in self.groupoid.inv] for u in a.basis])

    def sample(self, rng):
        k = rng.randint(0, min(self.dim, 3))
        vectors = [[Fraction(rng.randint(-9, 9)) for _ in range(self.dim)]
                   for _ in range(k)]
        return RationalSubspace.from_vectors(self.dim, vectors)

    def curated_elements(self):
        return [self._bottom] + self._curated + [RationalSubspace.full(self.dim)]


def _indicator(dim, arrows):
    """The sum of the basis vectors of the given arrows."""
    return tuple(Fraction(int(i in arrows)) for i in range(dim))


def _line(vector):
    return RationalSubspace.from_vectors(len(vector), [vector])


def _support_map(source, target, name):
    """p: Max A -> P(G) for the algebra A of a groupoid G, with target the
    powerset quantale of G: p* spans the arrows of a subset and p_! takes
    the support of a subspace."""
    dim = source.dim

    def inverse_image(u_mask):
        return RationalSubspace.from_vectors(
            dim, [_indicator(dim, (b,)) for b in _bits(u_mask)])

    def direct_image(subspace):
        out = 0
        for row in subspace.basis:
            for b, x in enumerate(row):
                if x != 0:
                    out |= 1 << b
        return out

    return QuantaleMap(source, target, inverse_image, direct_image, name=name)


@functools.cache
def matrix_max_quantale(n):
    """All subspaces of the n x n rational matrix algebra, the algebra of
    the pair groupoid: the arrow (i, j) is the matrix unit E_ij."""
    g = pair_groupoid(n)
    dim = g.size
    curated = [_line(_indicator(dim, (a,))) for a in range(dim)]
    curated.append(_line(_indicator(dim, g.units)))
    curated.append(RationalSubspace.from_vectors(
        dim, [_indicator(dim, (u,)) for u in g.units]))
    curated.append(RationalSubspace.from_vectors(
        dim, [_indicator(dim, (i * n + j,))
              for i in range(n) for j in range(n) if j >= i]))
    return MaxAlgebraQuantale(g, curated, label=f"Max M{n}(Q)")


def matrix_support_map(n):
    """p: Max Mn(Q) -> Rel(n); p* spans matrix units over a relation and
    p_! is the support relation of a subspace."""
    if n < 1 or n > 3:
        raise TooLarge("matrix algebras M_n(Q) are available for 1 <= n <= 3")
    return _support_map(matrix_max_quantale(n), rel_quantale(n),
                       f"matrix-support-{n}")


@functools.cache
def group_algebra_quantale(group):
    """All subspaces of the rational group algebra of a finite group."""
    group.validate()
    if len(group.units) != 1:
        raise InvalidGroupTable("a group has exactly one unit")
    e, dim = group.units[0], group.size
    others = [h for h in range(dim) if h != e]
    # the augmentation line and the difference lines lead the pool: they are
    # where two-sided Frobenius failures live, so witness searches hit them
    # before the expensive high-rank handles
    curated = [_line(_indicator(dim, range(dim)))]
    curated += [_line(tuple(Fraction((i == e) - (i == h)) for i in range(dim)))
                for h in others]
    curated += [_line(_indicator(dim, (e, h))) for h in others]
    curated += [_line(_indicator(dim, (g,))) for g in range(dim)]
    return MaxAlgebraQuantale(group, curated, label=f"Max Q[{dim}]")


def group_algebra_support_map(group):
    """p: Max QG -> P(G); p* spans a subset of G, p_! takes supports."""
    return _support_map(group_algebra_quantale(group),
                       group_powerset_quantale(group),
                       f"group-algebra-support-{group.size}")


def z2_group_algebra_finite_map():
    """The support map of Q[Z/2] restricted to a finite subquantale.

    The fragment is generated by the spans of the subsets of the group
    together with the lines through 1+g and 1-g; it closes at six elements
    and is exactly the finite setting on which the two-sided Frobenius
    condition fails while the one-sided one still holds.
    """
    group = cyclic_group(2)
    ambient_map = group_algebra_support_map(group)
    amb, X = ambient_map.source, ambient_map.target
    plus = RationalSubspace.from_vectors(2, [(1, 1)])
    minus = RationalSubspace.from_vectors(2, [(1, -1)])
    seeds = [ambient_map.star(u) for u in X.elements] + [plus, minus]
    fragment, handles = finite_subquantale(amb, seeds, max_size=16,
                                           label="Q[Z/2]-fragment")
    index = {h: i for i, h in enumerate(handles)}
    star_table = tuple(index[ambient_map.star(u)] for u in X.elements)
    shriek_table = tuple(ambient_map.shriek(h) for h in handles)
    p = QuantaleMap.from_table(fragment, X, star_table, shriek_table,
                               name="z2-algebra-fragment-support")
    v = validate_hom(p.inverse_image, X, fragment)
    if v is not None:
        raise InvalidQuantale(v)
    return p


# -- finite topological spaces -------------------------------------------------

@dataclass(frozen=True)
class FiniteTopology:
    points: int
    opens: tuple

    @staticmethod
    def build(points, opens):
        family = sorted({frozenset(o) for o in opens},
                        key=lambda s: (len(s), sorted(s)))
        top = FiniteTopology(points, tuple(family))
        top.validate()
        return top

    def validate(self):
        family = set(self.opens)
        if frozenset() not in family or frozenset(range(self.points)) not in family:
            raise ValueError("a topology contains the empty set and the space")
        for u, v in itertools.combinations(self.opens, 2):
            if u | v not in family or u & v not in family:
                raise ValueError(f"opens not closed under union/intersection: "
                                 f"{set(u)}, {set(v)}")

    def index_of(self, s):
        return self.opens.index(frozenset(s))

    def names(self):
        return tuple("{" + ",".join(str(p) for p in sorted(o)) + "}"
                     for o in self.opens)


def discrete_topology(n):
    subsets = [frozenset(s) for k in range(n + 1)
               for s in itertools.combinations(range(n), k)]
    return FiniteTopology.build(n, subsets)


def point_topology():
    return discrete_topology(1)


def sierpinski_topology():
    """Two points; 1 is the open point, 0 the closed one."""
    return FiniteTopology.build(2, [frozenset(), frozenset({1}),
                                    frozenset({0, 1})])


def locale_quantale(top, label=""):
    """The lattice of opens as an involutive quantale: meet multiplication,
    identity involution, top as the unit."""
    carrier = FiniteSupLattice.from_sets(top.opens, names=top.names())
    n = carrier.size
    mult = [[carrier.meet2(i, j) for j in range(n)] for i in range(n)]
    inv = list(range(n))
    q = FiniteInvQuantale(carrier, mult, inv, unit=carrier.top,
                          label=label or f"O({top.points}pt)")
    v = validate_quantale(q)
    if v is not None:
        raise InvalidQuantale(v)
    return q


def finite_locale_map(point_map, dom_top, cod_top, with_direct_image=False,
                      name=""):
    """The locale map of a continuous map of finite spaces.

    The inverse image is the preimage of opens; when the map is open (and
    the direct image is requested) the direct image is the open image.
    """
    point_map = tuple(point_map)
    if len(point_map) != dom_top.points:
        raise ValueError("point map must cover the domain")
    source = locale_quantale(dom_top)
    target = locale_quantale(cod_top)
    dom_family = set(dom_top.opens)
    preimages = []
    for k, v in enumerate(cod_top.opens):
        pre = frozenset(p for p in range(dom_top.points) if point_map[p] in v)
        if pre not in dom_family:
            raise NotContinuous(set(v))
        preimages.append(dom_top.index_of(pre))
    direct = None
    if with_direct_image:
        cod_family = set(cod_top.opens)
        images = []
        for u in dom_top.opens:
            img = frozenset(point_map[p] for p in u)
            if img not in cod_family:
                raise NotOpen(set(u))
            images.append(cod_top.index_of(img))
        direct = tuple(images).__getitem__
    return QuantaleMap(source, target, tuple(preimages).__getitem__, direct,
                       name=name or "locale-map")


def sierpinski_closed_point_map():
    """Inclusion of the point at the closed point of the Sierpinski space."""
    return finite_locale_map([0], point_topology(), sierpinski_topology(),
                             name="sierpinski-closed-point")


def discrete_to_point_map(n=2):
    return finite_locale_map([0] * n, discrete_topology(n), point_topology(),
                             name=f"discrete{n}-to-point")


def open_inclusion_map():
    """The open inclusion of a one-point discrete space into a two-point one."""
    return finite_locale_map([0], discrete_topology(1), discrete_topology(2),
                             with_direct_image=True, name="open-inclusion")


# -- seed maps for the pullback machinery --------------------------------------

def omega_support_map(q, name=""):
    """p: Q -> Omega with p*(1) the top of Q and p_!(a) = [a != bottom].

    Defined whenever nonbottom elements of Q never multiply to bottom and
    the top is multiplicatively idempotent; the returned map is checked to
    be a semiopen surjection satisfying both Frobenius conditions.
    """
    if not q.is_finite:
        raise HypothesisFailure("finite carrier required")
    top, bot = q.top, q.bottom
    if q.mult(top, top) != top:
        raise HypothesisFailure("top is not multiplicatively idempotent")
    for a in q.elements:
        if a == bot:
            continue
        for b in q.elements:
            if b != bot and q.mult(a, b) == bot:
                raise HypothesisFailure(
                    "nonbottom elements multiply to bottom", (a, b))
    omega = omega_quantale()
    star = (bot, top)

    def direct(a):
        return 0 if a == bot else 1

    p = QuantaleMap.from_table(q, omega, star, name=name or "omega-support")
    p = p.with_direct_image(direct)
    report = frobenius_report(p)
    if not report.hypothesis_for_pullback:
        raise HypothesisFailure(f"map fails its own certificate: "
                                f"{report.to_json()}")
    return p


def delta_embedding_map(n):
    """f: Rel(n) -> Omega sending 1 to the identity relation."""
    source = rel_quantale(n)
    omega = omega_quantale()
    diag = 0
    for i in range(n):
        diag |= 1 << (i * n + i)
    f = QuantaleMap.from_table(source, omega, (0, diag),
                               name=f"delta-embedding-{n}")
    v = validate_hom(f.inverse_image, omega, source)
    if v is not None:
        raise InvalidQuantale(v)
    return f


def omega_pair_projection_map():
    """p: Omega -> Omega x Omega whose inverse image is the first projection;
    a weakly open map that is not a surjection."""
    omega = omega_quantale()
    pair = product_quantale(omega, omega)
    inverse = tuple(idx // 2 for idx in range(4))
    return QuantaleMap.from_table(omega, pair, inverse,
                                  name="omega-pair-projection")


def standard_map_corpus(include_effective=True):
    """Named maps exercising every combination of the checked conditions."""
    from .quantale import identity_map
    pz2 = group_powerset_quantale(cyclic_group(2))
    corpus = [
        ("identity-PZ2", identity_map(pz2)),
        ("omega-support-PZ2", omega_support_map(pz2)),
        ("omega-support-Omega", omega_support_map(omega_quantale())),
        ("sierpinski-closed-point", sierpinski_closed_point_map()),
        ("discrete2-to-point", discrete_to_point_map(2)),
        ("open-inclusion", open_inclusion_map()),
        ("omega-pair-projection", omega_pair_projection_map()),
        ("z2-algebra-fragment", z2_group_algebra_finite_map()),
    ]
    if include_effective:
        corpus.append(("matrix-support-2", matrix_support_map(2)))
        corpus.append(("group-algebra-Z2",
                       group_algebra_support_map(cyclic_group(2))))
        corpus.append(("group-algebra-S3",
                       group_algebra_support_map(symmetric_group_3())))
    return corpus
