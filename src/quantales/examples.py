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
with one unit, yields P(G) and Max Q[G]; products of groupoids give the
rest.  Each support map Max Q[G] -> P(G) records G, and its Frobenius
battery is decided from G's table (the lemma beside `_support_map`), so
the groupoid, matrix and group-algebra support maps take P(G) as the
`GroupoidPowerset` oracle, with no table.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .laws import JOIN_IRREDUCIBLES, Decision, Law, run
from .openness import frobenius_report
from .quantale import (EffectiveInvQuantale, FiniteInvQuantale, QuantaleMap,
                       _QuantaleFacts, finite_subquantale, require,
                       tabulate_quantale, validate_hom, validate_quantale)
from .records import FrozenRecord, setfield
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

class FiniteGroupoidData(FrozenRecord):
    """A finite groupoid by tables; mult entries are None where undefined.
    A group is the groupoid with one unit.  It is validated when built, so
    every instance is a groupoid."""
    __slots__ = ("names", "mult", "inv", "units")

    def __init__(self, names, mult, inv, units):
        setfield(self, "names", names)
        setfield(self, "mult", mult)
        setfield(self, "inv", inv)
        setfield(self, "units", units)
        self.validate()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.names, self.mult, self.inv, self.units)
                == (other.names, other.mult, other.inv, other.units))

    def __hash__(self):  # the groupoid keys functools.cache
        return hash((self.names, self.mult, self.inv, self.units))

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
        # a triple with i j or j k undefined holds vacuously, so visiting
        # the composable ones in index order finds the first failure of
        # the full n^3 sweep
        after = [[j for j in range(n) if row[j] is not None] for row in mult]
        for i in range(n):
            for j in after[i]:
                for k in after[j]:
                    if mult[mult[i][j]][k] != mult[i][mult[j][k]]:
                        raise InvalidGroupTable(
                            f"associativity fails at ({i},{j},{k})")


def _groupoid(arrows, compose, inverse, name):
    """The groupoid on the given arrows, in their order: `compose` gives
    the composite of two arrows or None, and the units are the arrows x
    with x x = x."""
    arrows = list(arrows)
    index = {a: k for k, a in enumerate(arrows)}
    # None is no arrow, so it stays None
    mult = tuple(tuple(index.get(compose(a, b)) for b in arrows)
                 for a in arrows)
    return FiniteGroupoidData(
        tuple(name(a) for a in arrows), mult,
        tuple(index[inverse(a)] for a in arrows),
        tuple(k for k, row in enumerate(mult) if row[k] == k))


@functools.cache
def cyclic_group(n):
    return _groupoid(range(n), lambda a, b: (a + b) % n, lambda a: (-a) % n,
                     lambda a: "e" if a == 0 else ("g" if a == 1 else f"g{a}"))


@functools.cache
def symmetric_group_3():
    def name(p):
        if p == (0, 1, 2):
            return "e"
        moved = [i for i in range(3) if p[i] != i]
        if len(moved) == 2:
            return f"({moved[0]}{moved[1]})"
        cycle = [0, p[0], p[p[0]]]
        return "(" + "".join(str(c) for c in cycle) + ")"

    return _groupoid(sorted(itertools.permutations(range(3))),
                     lambda p, q: tuple(p[q[i]] for i in range(3)),
                     lambda p: tuple(sorted(range(3), key=p.__getitem__)),
                     name)


def pair_groupoid(n):
    """Arrows (i, j) on {1..n}, composable when the inner indices match."""
    return _groupoid(((i, j) for i in range(n) for j in range(n)),
                     lambda a, b: (a[0], b[1]) if a[1] == b[0] else None,
                     lambda a: (a[1], a[0]),
                     lambda a: f"({a[0] + 1},{a[1] + 1})")


def product_groupoid(g, h):
    """G x H: pairs of arrows, composed componentwise where both compose."""
    def compose(x, y):
        a, b = g.mult[x[0]][y[0]], h.mult[x[1]][y[1]]
        return None if a is None or b is None else (a, b)

    return _groupoid(itertools.product(range(g.size), range(h.size)), compose,
                     lambda x: (g.inv[x[0]], h.inv[x[1]]),
                     lambda x: f"({g.names[x[0]]},{h.names[x[1]]})")


class GroupoidPowerset(EffectiveInvQuantale):
    """P(G) as an oracle: a subset of arrows is a bitmask, and products,
    converses and names are computed from the groupoid table on demand.
    It is the target of the support maps, whose checks read only G's
    table.  `powerset_quantale` tabulates it, up to nine arrows, for what
    needs the element list; the mask of a subset is its index there."""

    def __init__(self, groupoid, label=""):
        self.groupoid = groupoid
        self.unit = sum(1 << u for u in groupoid.units)
        self.label = label or f"P(G{groupoid.size})"

    @property
    def bottom(self):
        return 0

    def leq(self, a, b):
        return a & ~b == 0

    def join(self, items):
        out = 0
        for a in items:
            out |= a
        return out

    def mult(self, a, b):
        out = 0
        right = list(_bits(b))
        for x in _bits(a):
            row = self.groupoid.mult[x]
            for y in right:
                c = row[y]
                if c is not None:
                    out |= 1 << c
        return out

    def inv(self, a):
        out = 0
        for x in _bits(a):
            out |= 1 << self.groupoid.inv[x]
        return out

    def name_of(self, a):
        return "{" + ",".join(self.groupoid.names[x] for x in _bits(a)) + "}"


def powerset_quantale(groupoid, label=""):
    """Subsets of a groupoid under setwise product, converse and union,
    tabulated from `GroupoidPowerset`: a product of subsets is the union
    of the products of their arrows, so the k^2 products of singletons
    fix the table of 4^k entries."""
    k = groupoid.size
    if k > 9:
        raise TooLarge(f"powerset of {k} arrows is beyond table bounds")
    subsets = GroupoidPowerset(groupoid)
    singletons = [1 << x for x in range(k)]
    q = FiniteInvQuantale.from_join_irreducibles(
        FiniteSupLattice.powerset(groupoid.names),
        {(i, j): subsets.mult(i, j) for i in singletons for j in singletons},
        [subsets.inv(u) for u in range(1 << k)],
        unit=subsets.unit, label=label)
    require(validate_quantale(q))
    return q


@functools.cache
def rel_quantale(n):
    """The quantale of binary relations on {1..n}: composition and converse."""
    if n < 1 or n > 3:
        raise TooLarge("relation quantales are tabulated for 1 <= n <= 3")
    return powerset_quantale(pair_groupoid(n), label=f"Rel({n})")


@functools.cache
def group_powerset_quantale(group):
    return powerset_quantale(group, label=f"P(G{group.size})")


@functools.cache
def omega_quantale():
    """The two-element quantale: chain 0 < 1 with meet as multiplication."""
    carrier = FiniteSupLattice.chain(2, names=("0", "1"))
    q = FiniteInvQuantale(carrier, ((0, 0), (0, 1)), (0, 1), unit=1,
                          label="Omega")
    require(validate_quantale(q))
    return q


def product_quantale(q1, q2):
    """q1 x q2, ordered, multiplied and involuted componentwise."""
    unit = None
    if q1.unit is not None and q2.unit is not None:
        unit = (q1.unit, q2.unit)
    return tabulate_quantale(
        list(itertools.product(q1.elements, q2.elements)),
        lambda a, b: q1.leq(a[0], b[0]) and q2.leq(a[1], b[1]),
        lambda a, b: (q1.mult(a[0], b[0]), q2.mult(a[1], b[1])),
        lambda a: (q1.inv(a[0]), q2.inv(a[1])),
        lambda a: f"({q1.name_of(a[0])},{q2.name_of(a[1])})", unit=unit,
        label=f"{q1.label or 'Q1'}x{q2.label or 'Q2'}")


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

    def __init__(self, groupoid, label=""):
        self.groupoid = groupoid
        self.dim = groupoid.size
        self._bottom = RationalSubspace.zero(self.dim)
        self.unit = RationalSubspace.from_vectors(
            self.dim, [_indicator(self.dim, groupoid.units)])
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
        # the rows of support-map images and of witness lines are sparse
        # unit rows: skip their zero entries
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
        # a rescaled row spans the same line, so the products of the integer
        # rescalings of the two bases span a.b
        right = b.integer_rows()
        products = [self._product(u, v)
                    for u in a.integer_rows() for v in right]
        return RationalSubspace.from_vectors(self.dim, products)

    def inv(self, a):
        # the coefficient of x in u* is that of x^-1 in u
        return RationalSubspace.from_vectors(
            self.dim, [[u[k] for k in self.groupoid.inv]
                       for u in a.integer_rows()])


def _indicator(dim, arrows):
    """The sum of the basis vectors of the given arrows."""
    return tuple(Fraction(int(i in arrows)) for i in range(dim))


def _support_map(source, target, name):
    """p: Max A -> P(G) for the algebra A of a groupoid G, with target the
    powerset quantale of G: p* spans the arrows of a subset and p_! takes
    the support of a subspace.  The unit rows of a subset, in increasing
    arrow order, are already the RREF basis of their span.

    The map records G, and `openness` decides its Frobenius battery from
    G's table by the following lemma.  Write e_k for the basis vector of
    the arrow k and supp(u) for the arrows where u is nonzero.

    Lemma.  Semiopenness, FR1, FR1-right, the involution law
    p_!(a*) = p_!(a)* and surjectivity hold for every G.  FR2 holds iff
    G is principal, that is, iff every isotropy group of G is trivial.

    Proof.
    (1) Lines suffice.  The support of a sum of subspaces is the union of
        their supports, the product of subspaces distributes over sums,
        p* sends unions to sums and the product of P(G) distributes over
        unions.  So each side of FR1, FR1-right and FR2 preserves joins
        in a, x and b, and it is enough to take lines a = span{u},
        singletons x = {g} and lines b = span{v}.
    (2) Semiopenness: V <= p*(U) iff every vector of V vanishes off U iff
        supp(V) is contained in U.  Surjectivity: p*(U) is spanned by the
        e_k with k in U, so its support is U.  Involution: the
        coefficient of u* at k is that of u at k^-1, so
        supp(u*) = supp(u)^-1.
    (3) a p*(x) b is the line through u.e_g.v, the sum of u_s v_t e_sgt
        over the pairs (s, t) for which s g t is defined.  So
        p_!(a p*(x) b) = supp(u.e_g.v) is contained in
        supp(u).g.supp(v) = p_!(a) x p_!(b), and the two differ only
        where the coefficient at k, the sum of u_s v_t over s g t = k,
        cancels.  The same holds for u.e_g and e_g.v.
    (4) FR1 and FR1-right: s g = s' g forces s = s' (multiply by g^-1 on
        the right), so each coefficient of u.e_g is one nonzero u_s and
        nothing cancels.  Likewise for e_g.u.
    (5) G is principal when no two distinct arrows share both source and
        target; equivalently every loop is a unit, since parallel s != s'
        give the loop s^-1 s' != unit.  Then s g t = s' g t' forces s and
        s' to share their target (that of s g t) and their source (the
        target of g), so s = s', and t = t' by cancelling s g.  Each
        coefficient is one nonzero product u_s v_t, and FR2 holds.
    (6) Let the unit y have a loop h != y, and let I_y, the isotropy
        group at y, be the loops at y.  Take a = span{sum of e_s over
        s in I_y}, x = {y} and b = span{e_y - e_h}.  Then u.e_y.v is the
        sum of e_s minus the sum of e_sh over s in I_y, which is 0
        because s -> s h permutes I_y.  So p_!(a p*(x) b) is empty, while
        p_!(a) x p_!(b) = I_y {y} {y, h} = I_y is not: FR2 fails.
    The checks take y the first unit with such a loop and h its first
    loop, and confirm that witness on the definition before reporting it.
    """
    dim = source.dim
    units = [_indicator(dim, (b,)) for b in range(dim)]

    def inverse_image(u_mask):
        return RationalSubspace(dim, tuple(units[b] for b in _bits(u_mask)))

    def direct_image(subspace):
        out = 0
        for row in subspace.basis:
            for b, x in enumerate(row):
                if x != 0:
                    out |= 1 << b
        return out

    return QuantaleMap(source, target, inverse_image, direct_image, name=name,
                       groupoid=source.groupoid)


def groupoid_support_map(groupoid):
    """p: Max Q[G] -> P(G) for any finite groupoid G.  Its target is the
    `GroupoidPowerset` oracle, so G may have more than nine arrows."""
    return _support_map(
        MaxAlgebraQuantale(groupoid, label=f"Max Q[G{groupoid.size}]"),
        GroupoidPowerset(groupoid), f"groupoid-support-{groupoid.size}")


@functools.cache
def matrix_max_quantale(n):
    """All subspaces of the n x n rational matrix algebra, the algebra of
    the pair groupoid: the arrow (i, j) is the matrix unit E_ij."""
    return MaxAlgebraQuantale(pair_groupoid(n), label=f"Max M{n}(Q)")


# the largest n of `matrix_support_map`
MATRIX_MAX_N = 10


def matrix_support_map(n):
    """p: Max Mn(Q) -> Rel(n), with Rel(n) the `GroupoidPowerset` of the
    pair groupoid; p* spans matrix units over a relation and p_! is the
    support relation of a subspace."""
    if n < 1 or n > MATRIX_MAX_N:
        raise TooLarge(f"matrix algebras M_n(Q) are available for "
                       f"1 <= n <= {MATRIX_MAX_N}")
    source = matrix_max_quantale(n)
    return _support_map(source, GroupoidPowerset(source.groupoid,
                                                 label=f"Rel({n})"),
                        f"matrix-support-{n}")


@functools.cache
def group_algebra_quantale(group):
    """All subspaces of the rational group algebra of a finite group."""
    if len(group.units) != 1:
        raise InvalidGroupTable("a group has exactly one unit")
    return MaxAlgebraQuantale(group, label=f"Max Q[{group.size}]")


def group_algebra_support_map(group):
    """p: Max QG -> P(G), with P(G) the `GroupoidPowerset` of G; p* spans
    a subset of G, p_! takes supports."""
    return _support_map(group_algebra_quantale(group), GroupoidPowerset(group),
                        f"group-algebra-support-{group.size}")


def z2_group_algebra_finite_map():
    """The support map of Q[Z/2] restricted to a finite subquantale.

    The fragment is generated by the spans of the subsets of the group
    together with the lines through 1+g and 1-g; it closes at six elements
    and is exactly the finite setting on which the two-sided Frobenius
    condition fails while the one-sided one still holds.  The fragment map
    records no groupoid, so its checks sweep the elements of both
    carriers: its target is the tabulated P(Z/2), not the oracle.
    """
    group = cyclic_group(2)
    amb, X = group_algebra_quantale(group), group_powerset_quantale(group)
    ambient_map = _support_map(amb, X, "group-algebra-support-2")
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
    require(validate_hom(p.inverse_image, X, fragment))
    return p


# -- finite topological spaces -------------------------------------------------

class FiniteTopology(FrozenRecord):
    __slots__ = ("points", "opens")

    def __init__(self, points, opens):
        setfield(self, "points", points)
        setfield(self, "opens", opens)

    @staticmethod
    def build(points, opens):
        family = sorted({frozenset(o) for o in opens},
                        key=lambda s: (len(s), sorted(s)))
        top = FiniteTopology(points, tuple(family))
        top.validate()
        return top

    def validate(self):
        family, space = set(self.opens), frozenset(range(self.points))
        if frozenset() not in family or space not in family:
            raise ValueError("a topology contains the empty set and the space")
        for u in self.opens:
            if not u <= space:
                raise ValueError(f"open {set(u)} has points outside "
                                 f"range({self.points})")
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
    require(validate_quantale(q))
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
    if not all(type(v) is int and 0 <= v < cod_top.points
               for v in point_map):
        raise ValueError("point map values must be points of the codomain")
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

    On a validated quantale the first hypothesis, a law of the engine, is
    swept on J x J: products preserve joins, hence order, and every
    nonbottom element lies above a join-irreducible, so ab = bottom for
    nonbottom a and b forces jk = bottom for some j <= a and k <= b in
    J(Q).  Where J x J fails, or q is not validated, all pairs are swept
    for the reported witness.
    """
    if not q.is_finite:
        raise HypothesisFailure("finite carrier required")
    top, bot = q.top, q.bottom
    if q.mult(top, top) != top:
        raise HypothesisFailure("top is not multiplicatively idempotent")
    witness = run((_NO_ZERO_DIVISORS,), (q,), _QuantaleFacts(q))[1]
    if witness is not None:
        raise HypothesisFailure("nonbottom elements multiply to bottom",
                                witness)
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


# the first hypothesis of `omega_support_map`
_NO_ZERO_DIVISORS = Law(
    "no-zero-divisors", ("Q", "Q"),
    lambda q, a, b: q.bottom in (a, b) or q.mult(a, b) != q.bottom,
    decisions=(Decision(lambda facts: facts.q._validated, JOIN_IRREDUCIBLES,
                        pools=("J", "J")),))


def delta_embedding_map(n):
    """f: Rel(n) -> Omega sending 1 to the identity relation."""
    source = rel_quantale(n)
    omega = omega_quantale()
    diag = 0
    for i in range(n):
        diag |= 1 << (i * n + i)
    f = QuantaleMap.from_table(source, omega, (0, diag),
                               name=f"delta-embedding-{n}")
    require(validate_hom(f.inverse_image, omega, source))
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
        # not principal with two units, and principal with four
        corpus.append(("groupoid-Z2xpair2", groupoid_support_map(
            product_groupoid(cyclic_group(2), pair_groupoid(2)))))
        corpus.append(("groupoid-pair2xpair2", groupoid_support_map(
            product_groupoid(pair_groupoid(2), pair_groupoid(2)))))
    return corpus
