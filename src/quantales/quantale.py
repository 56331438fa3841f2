"""Involutive quantales and their maps.

Two carrier kinds live behind one duck-typed interface.  FiniteInvQuantale
keeps full multiplication/involution tables over a validated lattice and
supports exhaustive law checking; EffectiveInvQuantale is an oracle for
carriers that are too large to enumerate (canonical element handles, an
order test, finite joins, multiplication and involution).  No law of an
effective carrier is checked here: the validators raise `Undecidable` on
one, and the maps between such carriers are decided by `openness` from a
groupoid table.

Each law is written once, as a `laws.Law` of QUANTALE_LAWS or HOM_LAWS,
with the pool of each argument and the decisions that may pass it; the
validators and the replay of a witness run them through `laws.run`.

On a finite carrier the unary laws are swept over every element.  The
binary laws are decided on Q x J, J being the join-irreducibles (every
element of a finite lattice is the join of those below it), by raw
table lookups made once per validation (`_QuantaleFacts`); only the
laws a decision does not pass are swept over every pair.  A decision
passes only a law that holds, and a law that holds never fails a sweep,
so a table fails with the same law and witness as when every pair is
swept:
- involution-join: if inv(a v j) = inv(a) v inv(j) for every a and every
  j in J, then by induction on b = j1 v ... v jk inv(a v b) =
  inv(a) v inv(b) for every b other than bottom, and a = bottom gives
  inv(bottom) <= inv(b).  An involution is a bijection, so some b has
  inv(b) = bottom; hence inv(bottom) = bottom, the empty join;
- involution-monotone follows: a <= b means b = a v b, so
  inv(b) = inv(a) v inv(b);
- involution-antimult on Q x J, when the join decision passes and the
  rows are their J-extensions (the decision of distrib-left below).  The
  law on Q x J reads xj = (j*x*)*, so (b v c)j = (j*(b* v c*))* =
  (j*b* v j*c*)* = bj v cj, and by distrib-left in the right argument
  (b v c)a = ba v ca for every a: distrib-right.  So for
  b = j1 v ... v jk, (ab)* = V(a jm)* = V jm* a* = (V jm*)a* = b*a*, and
  bottom absorption covers b = bottom.  Elsewhere the law is swept.
Each ternary law declares the pools its arguments range over:
- assoc on J x J x J: once both distributive laws hold, both sides of
  (ab)c = a(bc) preserve joins in each argument (bottom absorption
  covers the empty join);
- distrib-left on Q x Q x J: a(b v c) = ab v ac for every c follows by
  induction on c = j1 v ... v jk, with bottom-absorb-right for the empty
  join.  On a distributive carrier every j in J is join-prime, so
  J(b v c) = J(b) | J(c) for the set J(b) of join-irreducibles below b,
  and the J-extension b -> V{aj : j in J(b)} of a row preserves binary
  joins: a row equal to it satisfies distrib-left, and every row of a
  quantale is, by bottom-absorb-right and distrib-left.  The comparison peels one maximal j off J(b) at a time
  (`suplattice.distributive_peeling`): n^2 table reads and joins in all.
  On another carrier the law is read from the raw product and join
  tables on the same triples, without a call per triple.  Only a pass
  is decided this way; otherwise the Q x Q x J sweep runs and finds the
  same law and witness;
- distrib-right is derived, with no sweep: (b v c)a = (a*(b* v c*))* =
  (a*b* v a*c*)* = ba v ca by involution-involutive, involution-join,
  involution-antimult and distrib-left.
A table that passes every declared sweep is therefore a quantale; one
that fails may report a different first law than the full n^3 sweep, and
never distrib-right.

`FiniteInvQuantale.from_join_irreducibles` builds a table from its J x J
products, extended by ab = V{ij : i in J(a), j in J(b)}.  This
J-extension is the only candidate: a product that preserves joins in each
argument (bottom absorbing, for the empty join) takes exactly these
values, since a = V J(a) and b = V J(b).  On a distributive carrier it
does preserve joins in each argument, because J(a v b) = J(a) | J(b);
on another the same formula may not, and the constructor refuses it.
Whether the product is associative and has its unit, and whether the
involution is one, the J x J table does not say: validation decides
these laws as for any other table (assoc is swept on J x J x J).  The
constructor records that it built the rows as J-extensions, so that
distrib-left passes without comparing them (`_QuantaleFacts`); so does
a file that gives its product on J x J, which `fileformats` loads
through this constructor.  A table given to the plain constructor, as a
file with the full table is, has its rows compared.

A map p: Q -> X is represented contravariantly by its inverse image
homomorphism p*: X -> Q, optionally together with a direct image
p_!: Q -> X (left adjoint of p*).  When both carriers of a homomorphism
h: X -> Q are finite and already validated, and h(bottom) = bottom,
the other laws of HOM_LAWS are decided the same way (`_HomFacts`):
- hom-join on X x J(X): the induction above makes h a sup-map;
- hom-mult on J x J: for a = V J(a) and b = V J(b), both products
  distribute over joins (and bottom absorbs), so h(ab) = V h(ij) =
  V h(i)h(j) = h(a)h(b);
- hom-involution on J: the involutions of X and Q preserve joins, so
  h(a*) = V h(j*) = V h(j)* = h(a)*, and both fix bottom.
"""

from __future__ import annotations

from functools import cached_property

from .laws import DERIVED, JOIN_IRREDUCIBLES, Decision, Law, run
from .records import FrozenRecord, setfield
from .suplattice import (SupMap, distributive_peeling, join_irreducibles,
                         left_adjoint, preserves_joins_on_j, validate_lattice)


class Violation(FrozenRecord):
    """A failed law together with the witnessing elements."""
    __slots__ = ("law", "witness", "detail")

    def __init__(self, law, witness, detail=""):
        setfield(self, "law", law)
        setfield(self, "witness", witness)
        setfield(self, "detail", detail)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.law, self.witness, self.detail)
                == (other.law, other.witness, other.detail))

    def __str__(self):
        msg = f"{self.law} fails at {self.witness}"
        return f"{msg} ({self.detail})" if self.detail else msg


class InvalidQuantale(ValueError):
    def __init__(self, violation):
        self.violation = violation
        super().__init__(str(violation))


def require(violation):
    """Raise InvalidQuantale for the Violation a validator returned."""
    if violation is not None:
        raise InvalidQuantale(violation)


class Undecidable(RuntimeError):
    """Raised when a question cannot be decided on an effective carrier."""


class FiniteInvQuantale:
    """An involutive quantale given by full tables over a finite lattice."""

    is_finite = True

    def __init__(self, carrier, mult_table, inv_table, unit=None, label=""):
        n = carrier.size
        self.carrier = carrier
        self.mult_table = tuple(tuple(row) for row in mult_table)
        self.inv_table = tuple(inv_table)
        self.unit = unit
        self.label = label
        if len(self.mult_table) != n or any(len(r) != n for r in self.mult_table):
            raise ValueError("multiplication table has wrong shape")
        if len(self.inv_table) != n:
            raise ValueError("involution table has wrong length")
        self._validated = False
        # the product table from_join_irreducibles built as J-extensions
        self._j_extended = None

    @classmethod
    def from_join_irreducibles(cls, carrier, jmult, inv_table, unit=None,
                               label=""):
        """The quantale whose product extends the J x J products
        jmult[i, j] by ab = V{ij : i in J(a), j in J(b)} (module
        docstring), on a distributive carrier; ValueError on another.

        Each element a other than bottom is a' v i with J(a') = J(a) - {i}
        (`distributive_peeling`).  So aj = a'j v ij builds the column of
        each j in J, and then b = b' v j gives each row by ab = ab' v aj:
        n |J| + n^2 join-table reads.  A predecessor a' need not have a
        smaller index, so elements are visited in order of the number of
        elements below them.  The result is not validated, but records
        that its rows are J-extensions.
        """
        peel = distributive_peeling(carrier)
        if peel is None:
            raise ValueError(f"{label or 'the carrier'} is not distributive: "
                             f"a J x J table does not fix its product")
        join, bottom = carrier.join_table, carrier.bottom
        order = sorted((a for a in carrier.elements if a != bottom),
                       key=lambda a: carrier.down[a].bit_count())
        column = {}
        for j in join_irreducibles(carrier):
            col = column[j] = [bottom] * carrier.size
            for a in order:
                rest, i = peel[a]
                col[a] = join[col[rest]][jmult[i, j]]
        table = []
        for a in carrier.elements:
            row = [bottom] * carrier.size
            for b in order:
                rest, j = peel[b]
                row[b] = join[row[rest]][column[j][a]]
            table.append(row)
        q = cls(carrier, table, inv_table, unit=unit, label=label)
        q._j_extended = q.mult_table
        return q

    # -- carrier interface --------------------------------------------------

    @property
    def size(self):
        return self.carrier.size

    @property
    def elements(self):
        return range(self.size)

    @property
    def bottom(self):
        return self.carrier.bottom

    @property
    def top(self):
        return self.carrier.top

    def leq(self, a, b):
        return self.carrier.leq(a, b)

    def join(self, items):
        return self.carrier.join(items)

    def meet(self, items):
        return self.carrier.meet(items)

    def join2(self, a, b):
        return self.carrier.join2(a, b)

    def mult(self, a, b):
        return self.mult_table[a][b]

    def inv(self, a):
        return self.inv_table[a]

    def name_of(self, a):
        return self.carrier.names[a]

    def __eq__(self, other):
        return (isinstance(other, FiniteInvQuantale)
                and self.carrier == other.carrier
                and self.mult_table == other.mult_table
                and self.inv_table == other.inv_table
                and self.unit == other.unit)

    def __hash__(self):
        return hash((self.carrier, self.mult_table, self.inv_table, self.unit))

    def __repr__(self):
        tag = self.label or f"size={self.size}"
        return f"FiniteInvQuantale({tag})"


class EffectiveInvQuantale:
    """Oracle interface for involutive quantales with non-enumerable carriers.

    Handles must be canonical: equal elements compare (and hash) equal.
    Subclasses provide bottom/leq/join/mult/inv and an optional unit.
    """

    is_finite = False
    unit = None
    label = ""

    def join2(self, a, b):
        return self.join([a, b])

    def name_of(self, a):
        return repr(a)

    def __repr__(self):
        return f"{type(self).__name__}({self.label})"


class _QuantaleFacts:
    """The pools Q and J of the validation of a finite table, and the
    premises its decisions read from the raw tables, each computed on
    first use once the runs of laws before it hold (module docstring)."""

    def __init__(self, q):
        self.q = q
        self.J = join_irreducibles(q.carrier)

    def pool(self, kind):
        return self.J if kind == "J" else self.q.elements

    @cached_property
    def inv_preserves_joins(self):
        """inv(a v j) = inv(a) v inv(j) for every a and every j in J."""
        carrier = self.q.carrier
        return preserves_joins_on_j(self.q.inv_table, carrier, carrier)

    @cached_property
    def peel(self):
        return distributive_peeling(self.q.carrier)

    @cached_property
    def rows_are_j_extensions(self):
        """The carrier is distributive and each row of the product equals
        the J-extension of its values on J: ab = ab' v aj for (b', j) =
        peel[b].  A table that `from_join_irreducibles` built passes
        without the n^2 comparison: it built ab = ab' v c_j(a), c_j its
        column for j, so ab is the join of c_i(a) over J(b), and so is
        ab' v aj, aj being the join over J(j) = J(j') | {j} with J(j') in
        J(b') = J(b) - {j}.  The record names the table it was built for,
        so a table put in its place is compared."""
        if self.peel is None:
            return False
        if self.q._j_extended is self.q.mult_table:
            return True
        join = self.q.carrier.join_table
        return all(list(row) == [join[row[b]][row[j]] for b, j in self.peel]
                   for row in self.q.mult_table)

    def distrib_left(self):
        """a(b v j) = ab v aj on Q x Q x J: by the J-extensions of the
        rows on a distributive carrier, else read from the raw tables."""
        if self.peel is not None:
            return self.rows_are_j_extensions
        join = self.q.carrier.join_table
        for row in self.q.mult_table:
            for b, b_join in enumerate(join):
                ab_join = join[row[b]]
                if any(row[b_join[j]] != ab_join[row[j]] for j in self.J):
                    return False
        return True

    def antimult_on_j(self):
        """(aj)* = j*a* for every a and every j in J, on the two premises
        above."""
        if not (self.inv_preserves_joins and self.rows_are_j_extensions):
            return False
        q, J = self.q, self.J
        inv, mult = q.inv_table, q.mult_table
        return all(inv[mult[a][j]] == mult[inv[j]][inv[a]]
                   for a in q.elements for j in J)


class _HomFacts:
    """The same for a homomorphism h: source -> target, asked once
    h(bottom) = bottom holds and true only between finite validated
    quantales.  Its pools are J(source) and `names` for the carriers: X
    for a homomorphism, Q and X for p_! (`QuantaleMap.facts`)."""

    def __init__(self, h, source, target, names="X", groupoid=None):
        self.h, self.source, self.target = h, source, target
        self.carriers = dict(zip(names, (source, target)))
        self.groupoid = groupoid
        self.validated = all(getattr(c, "_validated", False)
                             for c in (source, target))

    def pool(self, kind):
        return self.J if kind == "J" else self.carriers[kind].elements

    @cached_property
    def J(self):
        return join_irreducibles(self.source.carrier)

    @cached_property
    def values(self):
        return [self.h(a) for a in self.source.elements]

    @cached_property
    def preserves_joins(self):
        """h(a v j) = h(a) v h(j) for every a and every j in J."""
        return self.validated and preserves_joins_on_j(
            self.values, self.source.carrier, self.target.carrier)

    @cached_property
    def sup_map(self):
        """h(bottom) = bottom, and the join decision passes h."""
        return (self.validated
                and self.values[self.source.bottom] == self.target.bottom
                and self.preserves_joins)

    def mult_on_j(self):
        """h(ij) = h(i)h(j) for i and j in J, h being a sup-map."""
        if not self.preserves_joins:
            return False
        h, J = self.values, self.J
        smult, tmult = self.source.mult_table, self.target.mult_table
        return all(h[smult[i][j]] == tmult[h[i]][h[j]] for i in J for j in J)

    def involution_on_j(self):
        """h(j*) = h(j)* for j in J, h being a sup-map."""
        if not self.preserves_joins:
            return False
        h = self.values
        sinv, tinv = self.source.inv_table, self.target.inv_table
        return all(h[sinv[j]] == tinv[h[j]] for j in self.J)


def _passes(premise, reduction=JOIN_IRREDUCIBLES):
    """The decisions of a law that premise alone passes."""
    return (Decision(premise, reduction),)


# Search order: unary, binary, ternary, then the unit laws (which hold
# vacuously when no unit is declared); the pools and decisions are those
# of the module docstring.
QUANTALE_LAWS = (
    Law("bottom-absorb-right", ("Q",),
        lambda q, a: q.mult(a, q.bottom) == q.bottom),
    Law("bottom-absorb-left", ("Q",),
        lambda q, a: q.mult(q.bottom, a) == q.bottom),
    Law("involution-involutive", ("Q",), lambda q, a: q.inv(q.inv(a)) == a),
    Law("involution-monotone", ("Q", "Q"),
        lambda q, a, b: not q.leq(a, b) or q.leq(q.inv(a), q.inv(b)),
        decisions=_passes(lambda facts: facts.inv_preserves_joins)),
    Law("involution-antimult", ("Q", "Q"),
        lambda q, a, b: q.inv(q.mult(a, b)) == q.mult(q.inv(b), q.inv(a)),
        decisions=_passes(_QuantaleFacts.antimult_on_j)),
    Law("involution-join", ("Q", "Q"),
        lambda q, a, b: q.inv(q.join2(a, b)) == q.join2(q.inv(a), q.inv(b)),
        decisions=_passes(lambda facts: facts.inv_preserves_joins)),
    Law("assoc", ("J", "J", "J"),
        lambda q, a, b, c: q.mult(q.mult(a, b), c) == q.mult(a, q.mult(b, c))),
    Law("distrib-left", ("Q", "Q", "J"), lambda q, a, b, c: q.mult(
        a, q.join2(b, c)) == q.join2(q.mult(a, b), q.mult(a, c)),
        decisions=_passes(_QuantaleFacts.distrib_left)),
    Law("distrib-right", ("Q", "Q", "Q"), lambda q, a, b, c: q.mult(
        q.join2(b, c), a) == q.join2(q.mult(b, a), q.mult(c, a)),
        decisions=_passes(lambda facts: True, DERIVED)),
    Law("unit-left", ("Q",), lambda q, a: q.unit is None
        or q.mult(q.unit, a) == a),
    Law("unit-right", ("Q",), lambda q, a: q.unit is None
        or q.mult(a, q.unit) == a),
)

# decided on J between finite validated quantales (module docstring)
HOM_LAWS = (
    Law("hom-bottom", (), lambda h, s, t: h(s.bottom) == t.bottom),
    Law("hom-join", ("X", "X"),
        lambda h, s, t, a, b: h(s.join2(a, b)) == t.join2(h(a), h(b)),
        decisions=_passes(lambda facts: facts.preserves_joins)),
    Law("hom-mult", ("X", "X"),
        lambda h, s, t, a, b: h(s.mult(a, b)) == t.mult(h(a), h(b)),
        decisions=_passes(_HomFacts.mult_on_j)),
    Law("hom-involution", ("X",), lambda h, s, t, a: h(s.inv(a)) == t.inv(h(a)),
        decisions=_passes(_HomFacts.involution_on_j)),
)


def validate_quantale(q):
    """None if all involutive-quantale laws hold, else a Violation with
    witness: each law of QUANTALE_LAWS decided or swept on its pools
    (module docstring).  An effective carrier raises `Undecidable`."""
    if not q.is_finite:
        raise Undecidable(f"the laws of {q.label or q!r} range over an "
                          f"effective carrier")
    if getattr(q, "_validated", False):
        return None
    law, witness, *_ = run(QUANTALE_LAWS, (q,), _QuantaleFacts(q))
    q._validated = witness is None
    return None if witness is None else Violation(law.name, witness)


def find_unit(q):
    """Search a finite carrier for a two-sided multiplicative unit."""
    for e in q.elements:
        if all(q.mult(e, a) == a and q.mult(a, e) == a for a in q.elements):
            return e
    return None


def validate_hom(h, source, target):
    """None if h: source -> target satisfies HOM_LAWS, else a Violation:
    each law swept over a finite source unless decided on join-irreducibles
    (module docstring).  An effective source raises `Undecidable`."""
    if not source.is_finite:
        raise Undecidable("the laws of a homomorphism range over its "
                          "effective source")
    law, witness, *_ = run(HOM_LAWS, (h, source, target),
                           _HomFacts(h, source, target))
    return None if witness is None else Violation(law.name, witness)


class QuantaleMap(FrozenRecord):
    """A map p: source -> target, held as its inverse image p*: target -> source.

    `groupoid` is the finite groupoid G when p is its support map
    Max Q[G] -> P(G) (`examples._support_map`), whose laws the openness
    checks decide from G's table.  `with_direct_image` keeps it only for
    the support map itself (the same function object); the other
    constructors leave it None."""
    __slots__ = ("source", "target", "inverse_image", "direct_image", "name",
                 "groupoid", "__dict__")  # `facts` is cached in __dict__

    def __init__(self, source, target, inverse_image, direct_image=None,
                 name="", groupoid=None):
        setfield(self, "source", source)
        setfield(self, "target", target)
        setfield(self, "inverse_image", inverse_image)
        setfield(self, "direct_image", direct_image)
        setfield(self, "name", name)
        setfield(self, "groupoid", groupoid)

    def star(self, x):
        return self.inverse_image(x)

    @cached_property
    def facts(self):
        """The facts of p_!: Q -> X that every check of this map reads."""
        return _HomFacts(self.shriek, self.source, self.target, "QX",
                         self.groupoid)

    def shriek(self, a):
        if self.direct_image is None:
            raise Undecidable(f"map {self.name or '?'} has no direct image")
        return self.direct_image(a)

    @staticmethod
    def from_table(source, target, table, direct_table=None, name=""):
        """Finite map from an inverse-image value table indexed by target elements."""
        table = tuple(table)
        direct = None
        if direct_table is not None:
            dt = tuple(direct_table)
            direct = dt.__getitem__
        return QuantaleMap(source, target, table.__getitem__, direct, name)

    def inverse_table(self):
        return tuple(self.inverse_image(x) for x in self.target.elements)

    def with_direct_image(self, fn):
        groupoid = self.groupoid if fn is self.direct_image else None
        return QuantaleMap(self.source, self.target, self.inverse_image, fn,
                           self.name, groupoid)

    def star_sup_map(self):
        """p* as a SupMap between finite carriers."""
        return SupMap(self.target.carrier, self.source.carrier,
                      self.inverse_table())

    def __repr__(self):
        return f"QuantaleMap({self.name or 'unnamed'})"


def identity_map(q):
    return QuantaleMap(q, q, lambda x: x, lambda x: x, name="id")


def is_surjective(p):
    """Decide surjectivity of p: Q -> X for a finite X: p* is injective,
    the definition, which needs no direct image.  It agrees with
    p_!(p*(x)) = x for every x when p_! is the left adjoint of p*: as
    p* p_! p* = p*, p* is injective iff p_! p* = id.  An effective X
    raises `Undecidable`."""
    X = p.target
    if not X.is_finite:
        raise Undecidable("surjectivity of a map into an effective carrier "
                          "is not decided here")
    values = [p.star(x) for x in X.elements]
    return len(set(values)) == len(values)


def ensure_left_adjoint(p):
    """Return p carrying its direct image, computing it on finite carriers."""
    if p.direct_image is not None:
        return p
    if not (p.source.is_finite and p.target.is_finite):
        raise Undecidable("cannot compute a direct image on effective carriers")
    adj = left_adjoint(p.star_sup_map())  # raises NoLeftAdjoint with witness
    return p.with_direct_image(adj.values.__getitem__)


def tabulate_quantale(handles, leq, mult, inv, name_of, unit=None, label=""):
    """The validated finite involutive quantale whose element i is
    handles[i], ordered, multiplied and involuted as the handles are by
    leq, mult and inv.  A product or involute that is not a handle raises
    InvalidQuantale naming the operation, as does a failing law.  The unit
    is the handle `unit` when it is one, else `find_unit`'s."""
    n = len(handles)
    index = {h: i for i, h in enumerate(handles)}

    def element(op, args, value):
        i = index.get(value)
        if i is None:
            raise InvalidQuantale(Violation(
                f"{op}-closed", args, f"{name_of(value)} is not a handle"))
        return i

    pairs = [(i, j) for i in range(n) for j in range(n)
             if leq(handles[i], handles[j])]
    names = [name_of(h) for h in handles]
    carrier = validate_lattice(pairs, size=n, names=names)
    mult_table = [[element("mult", (a, b), mult(a, b)) for b in handles]
                  for a in handles]
    inv_table = [element("inv", (a,), inv(a)) for a in handles]
    q = FiniteInvQuantale(carrier, mult_table, inv_table, label=label)
    q.unit = index.get(unit)
    if q.unit is None:
        q.unit = find_unit(q)
    require(validate_quantale(q))
    return q


def finite_subquantale(ambient, seeds, max_size=64, label=""):
    """Close handles of an effective quantale under joins, mult and involution.

    Returns (quantale, handles) where handles[i] is the ambient element of
    index i.  The inclusion preserves joins, multiplication and involution
    by construction; meets inside the fragment may differ from ambient
    meets, which is fine for a quantale in its own right.  The unit is the
    ambient one when the closure holds it, else `find_unit`'s
    (`tabulate_quantale`).
    """
    closure = dict.fromkeys([ambient.bottom, *seeds])  # an ordered set
    add = closure.setdefault
    while True:
        frozen = list(closure)
        for a in frozen:
            add(ambient.inv(a))
            for b in frozen:
                add(ambient.join([a, b]))
                add(ambient.mult(a, b))
        if len(closure) == len(frozen):
            break
        if len(closure) > max_size:
            raise ValueError(f"subquantale closure exceeded {max_size} elements")
    handles = list(closure)
    q = tabulate_quantale(handles, ambient.leq, ambient.mult, ambient.inv,
                          ambient.name_of, unit=ambient.unit, label=label)
    return q, handles
