"""Checkers for semiopenness, Frobenius reciprocity and related lemmas.

Every check returns a Check record: verdict, witness and how it was
decided (exhaustive, or decided from a groupoid table).  Finite carriers
are swept exhaustively.  A support map Max Q[G] -> P(G) that records its
groupoid G is not searched at all: the lemma beside
`examples._support_map` decides each law from G's table, and the
evaluations of such a check count the table entries it read.  A
map with an effective carrier and no groupoid has no sweep that could
prove a law, so its checks raise `Undecidable`.

On finite carriers fr1, fr1_right, fr2, direct_image_involution and
locale-meet sweep their Q-arguments a and b over the join-irreducibles
J(Q) alone, and record the reduction, when both carriers are validated
quantales and p_! is a sup-map.  That premise is decided as
`validate_hom` decides hom-join: p_!(bottom) = bottom and
p_!(a v j) = p_!(a) v p_!(j) for every a and every j in J(Q), which by
induction on b = j1 v ... v jk gives p_!(a v b) = p_!(a) v p_!(b).  Each
side of these laws then preserves joins in a and in b, bottom included:
the products of both quantales distribute over joins and absorb bottom,
both involutions preserve joins, and so does p_!.  Locale-meet is
checked only between locales, validated quantales whose product is
meet: there a(b v c) = ab v ac makes the lattice distributive, so a
finite frame, and a meet - preserves joins.  Every element is the join
of the join-irreducibles below it, so the two sides agree everywhere
once they agree on J.  A witness of the reduced sweep is confirmed, and
then the full sweep runs and reports its own first witness, so a failing
check keeps the witness, display and evaluations of the full sweep.
Semiopenness is never reduced: it is the check that makes p_! the left
adjoint of p*, and it costs |Q| |X| evaluations.

Each law of a map is written once, as its MAP_LAWS entry: the roles of
its witness elements, its sweep over one pool per witness element, and
its decision from a groupoid table (none for locale-meet).  A check runs
the sweep on the carriers (or their join-irreducibles), or the decision
on the table; the witness it finds is then re-verified, and a recorded
witness replayed (`violates`), by running the sweep on one-element pools.
`BATTERY` names the laws of `frobenius_report` in report order.

`frobenius_report` runs the battery on a map once: semiopenness, fr1, its
right-module version, fr2, the involution of p_!, surjectivity and the
unit identity p_!(p*(e)) = e.  Weak openness, the pullback hypothesis and
the two lemmas (surjectivity via the unit for weakly open maps; fr2 with
the unit identity forcing fr1 and surjectivity) are properties of that
one report, which also keeps the map it certified with its direct image.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .quantale import Undecidable, _HomFacts, is_surjective
from .subspaces import RationalSubspace
from .suplattice import join_irreducibles, left_adjoint_candidate

GROUPOID_TABLE = "groupoid table"
JOIN_IRREDUCIBLES = "join-irreducibles"


class NotUnital(ValueError):
    pass


class NotALocale(ValueError):
    pass


class MissingDirectImage(ValueError):
    pass


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    witness: tuple | None = None
    witness_display: str | None = None
    mode: str = "exhaustive"
    evaluations: int = 0
    reduction: str | None = None

    def to_json(self):
        out = {
            "check": self.name,
            "ok": self.ok,
            "witness": _jsonable(self.witness),
            "witness_display": self.witness_display,
            "mode": self.mode,
            "evaluations": self.evaluations,
        }
        if self.reduction is not None:
            out["reduction"] = self.reduction
        return out


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, RationalSubspace):
        return value.to_json()
    return repr(value)


def _display(p, roles, witness):
    return ", ".join(
        f"{r}={(p.target if r == 'x' else p.source).name_of(w)}"
        for r, w in zip(roles, witness))


# -- the laws ------------------------------------------------------------------
#
# sweep(p, *pools) walks one pool per witness element and returns the first
# failing witness (or None) with the number of evaluations made.  Hoisting
# p_!(a), and in fr2 the partial products, out of the inner loops is what
# keeps the sweeps affordable on oracle carriers.

def _pair_sweep(holds):
    """Sweep pairs (a, y) with the law holds(p, a, p_!(a), y)."""
    def sweep(p, As, Ys):
        count = 0
        for a in As:
            sa = p.shriek(a)
            for y in Ys:
                count += 1
                if not holds(p, a, sa, y):
                    return (a, y), count
        return None, count
    return sweep


def _sweep_fr2(p, As, Xs, Bs):
    """p_!(a p*(x) b) = p_!(a) x p_!(b)."""
    Q, X = p.source, p.target
    count = 0
    for a in As:
        sa = p.shriek(a)
        for x in Xs:
            mid = Q.mult(a, p.star(x))
            sax = X.mult(sa, x)
            for b in Bs:
                count += 1
                if p.shriek(Q.mult(mid, b)) != X.mult(sax, p.shriek(b)):
                    return (a, x, b), count
    return None, count


def _sweep_involution(p, As):
    """p_!(a*) = p_!(a)*."""
    count = 0
    for a in As:
        count += 1
        if p.shriek(p.source.inv(a)) != p.target.inv(p.shriek(a)):
            return (a,), count
    return None, count


def _semiopen(p, a, sa, x):  # p_!(a) <= x iff a <= p*(x)
    return p.target.leq(sa, x) == p.source.leq(a, p.star(x))


def _fr1(p, a, sa, x):  # p_!(a p*(x)) = p_!(a) x
    return p.shriek(p.source.mult(a, p.star(x))) == p.target.mult(sa, x)


def _fr1_right(p, a, sa, x):  # p_!(p*(x) a) = x p_!(a)
    return p.shriek(p.source.mult(p.star(x), a)) == p.target.mult(x, sa)


def _locale_meet_law(p, a, sa, b):  # p_!(a meet b) = p_!(a) meet p_!(b)
    return (p.shriek(p.source.carrier.meet2(a, b))
            == p.target.carrier.meet2(sa, p.shriek(b)))


# -- the laws of a groupoid support map, from its table -------------------------
#
# decide(G) returns the first failing witness (or None) and the number of
# table entries read; the lemma beside `examples._support_map` says why.

def _always_holds(groupoid):
    return None, 0


def _fr2_from_table(groupoid):
    """FR2 fails iff some unit y has a loop h != y; the witness is
    (span{sum of the loops at y}, {y}, span{y - h}) for the first such y
    and its first such h."""
    mult, inv, dim = groupoid.mult, groupoid.inv, groupoid.size
    loops = []  # (unit, arrow) for each arrow whose source is its target
    for k in range(dim):
        target, source = mult[k][inv[k]], mult[inv[k]][k]
        if target == source:
            loops.append((source, k))
    reads = 3 * dim  # inv[k] and the two products per arrow
    nontrivial = [(y, h) for y, h in loops if h != y]
    if not nontrivial:
        return None, reads
    y, h = min(nontrivial)
    isotropy = {k for unit, k in loops if unit == y}
    a = [int(k in isotropy) for k in range(dim)]
    b = [(k == y) - (k == h) for k in range(dim)]
    return (RationalSubspace.from_vectors(dim, [a]), 1 << y,
            RationalSubspace.from_vectors(dim, [b])), reads


# name -> (roles, sweep, table decision); roles a and b range over the
# source Q, x over the target X of p: Q -> X
MapLaw = namedtuple("MapLaw", "roles sweep table")
MAP_LAWS = {
    "semiopen": MapLaw("ax", _pair_sweep(_semiopen), _always_holds),
    "fr1": MapLaw("ax", _pair_sweep(_fr1), _always_holds),
    "fr1_right": MapLaw("ax", _pair_sweep(_fr1_right), _always_holds),
    "fr2": MapLaw("axb", _sweep_fr2, _fr2_from_table),
    "direct_image_involution": MapLaw("a", _sweep_involution, _always_holds),
    "locale-meet": MapLaw("ab", _pair_sweep(_locale_meet_law), None),
}

# the checks of `frobenius_report`, in report order
BATTERY = ("semiopen", "fr1", "fr1_right", "fr2", "direct_image_involution")


class UnconfirmedWitness(RuntimeError):
    """A witness found by a sweep does not fail its law on re-check."""


def violates(p, name, witness):
    """Whether the witness fails the named law of p.

    The law's sweep runs on one-element pools.  Semiopenness of a finite
    map without a direct image is judged on the meet candidate for p_!;
    every other law needs p to be semiopen.
    """
    if p.direct_image is None:
        p = _with_meet_candidate(p) if name == "semiopen" else \
            _require_direct(p)
    return MAP_LAWS[name].sweep(p, *([w] for w in witness))[0] is not None


def _confirmed(p, name, witness):
    if not violates(p, name, witness):
        raise UnconfirmedWitness(f"{name} witness {witness} holds on re-check")
    return witness


def _check(name, p):
    """Decide the law of a groupoid support map from its table; sweep it on
    any other map."""
    if p.groupoid is None:
        return _swept(name, p)
    witness, count = MAP_LAWS[name].table(p.groupoid)
    if witness is None:
        return Check(name, True, mode="decided", evaluations=count,
                     reduction=GROUPOID_TABLE)
    return Check(name, False, _confirmed(p, name, witness),
                 _display(p, MAP_LAWS[name].roles, witness), "decided",
                 evaluations=count, reduction=GROUPOID_TABLE)


def _swept(name, p):
    """Sweep the law over the finite carriers and re-verify any witness.
    The sweep is first made on J(Q) where the module docstring allows it,
    and repeated on all of Q only to report a failure."""
    Q, X = p.source, p.target
    if not (Q.is_finite and X.is_finite):
        raise Undecidable(f"{name} of map {p.name or '?'}: an effective "
                          f"carrier is decided only from a groupoid table")
    roles, sweep, _ = MAP_LAWS[name]
    qs, xs = list(Q.elements), list(X.elements)
    if name != "semiopen" and _reduces(p):
        J = join_irreducibles(Q.carrier)
        witness, count = sweep(p, *(xs if r == "x" else J for r in roles))
        if witness is None:
            return Check(name, True, evaluations=count,
                         reduction=JOIN_IRREDUCIBLES)
        _confirmed(p, name, witness)
    witness, count = sweep(p, *(xs if r == "x" else qs for r in roles))
    if witness is None:
        return Check(name, True, evaluations=count)
    return Check(name, False, _confirmed(p, name, witness),
                 _display(p, roles, witness), evaluations=count)


def _reduces(p):
    """Whether both carriers are validated quantales and p_! is a sup-map:
    p_!(bottom) = bottom and the join decision of `validate_hom`, which
    reads only the lattices, passes p_!."""
    Q, X = p.source, p.target
    if not all(getattr(c, "_validated", False) for c in (Q, X)):
        return False
    facts = _HomFacts(p.shriek, Q, X)
    return facts.values[Q.bottom] == X.bottom and facts.preserves_joins


def _with_meet_candidate(p):
    if not (p.source.is_finite and p.target.is_finite):
        raise MissingDirectImage(
            "an effective carrier needs a supplied direct image")
    return p.with_direct_image(
        left_adjoint_candidate(p.star_sup_map()).__getitem__)


def check_semiopen(p):
    """Equip p with a direct image, or report why none exists.

    On finite carriers without a supplied direct image the candidate
    p_!(a) = meet {x : a <= p*(x)} is swept against the adjunction on all
    pairs (it is the direct image exactly when the sweep passes); a
    supplied direct image is swept on all pairs of finite carriers, or
    decided from the table of a groupoid support map.  Returns
    (map_with_direct_image_or_None, Check).
    """
    if p.direct_image is None:
        p = _with_meet_candidate(p)
    chk = _check("semiopen", p)
    return (p if chk.ok else None), chk


def _require_direct(p):
    if p.direct_image is None:
        enriched, chk = check_semiopen(p)
        if enriched is None:
            raise MissingDirectImage(f"map is not semiopen: {chk.witness}")
        return enriched
    return p


def check_fr1(p):
    """p_!(a p*(x)) = p_!(a) x."""
    return _check("fr1", _require_direct(p))


def check_fr1_right(p):
    """p_!(p*(x) a) = x p_!(a), the right-module version of fr1."""
    return _check("fr1_right", _require_direct(p))


def check_fr2(p, pool=None, seed=None):
    """p_!(a p*(x) b) = p_!(a) x p_!(b); witness is the first failing triple.
    `pool` and `seed` are accepted for callers of the older signature and
    change nothing."""
    return _check("fr2", _require_direct(p))


def check_direct_image_involution(p):
    """p_!(a*) = p_!(a)*: direct images of semiopen maps preserve involution."""
    return _check("direct_image_involution", _require_direct(p))


@dataclass(frozen=True)
class FrobeniusReport:
    """The whole battery on one map; every notion about p is read off it."""
    map_name: str
    certified: object  # p carrying its direct image, None unless semiopen
    semiopen: Check
    fr1: Check | None = None
    fr1_right: Check | None = None
    fr2: Check | None = None
    direct_image_involution: Check | None = None
    surjective: bool | None = None
    surjective_mode: str | None = None
    unit_identity: bool | None = None  # p_!(p*(e)) = e, None without unit

    @property
    def weakly_open(self):
        return self.semiopen.ok and self.fr1 is not None and self.fr1.ok

    @property
    def open_by_sufficient_condition(self):
        """Weakly open surjections satisfying fr2 are stably weakly open."""
        return bool(self.weakly_open and self.surjective
                    and self.fr2 is not None and self.fr2.ok)

    @property
    def hypothesis_for_pullback(self):
        return bool(self.semiopen.ok and self.surjective
                    and self.fr1 and self.fr1.ok and self.fr2 and self.fr2.ok)

    @property
    def wos_consistent(self):
        """A weakly open map into a unital target is a surjection iff
        p_!(p*(e)) = e."""
        return (not self.weakly_open or self.unit_identity is None
                or self.unit_identity == self.surjective)

    def to_json(self):
        checks = [getattr(self, name) for name in BATTERY]
        return {
            "map": self.map_name,
            "checks": [c.to_json() for c in checks if c is not None],
            "surjective": self.surjective,
            "surjective_mode": self.surjective_mode,
            "unit_identity": self.unit_identity,
            "weakly_open": self.weakly_open,
            "open_by_sufficient_condition": self.open_by_sufficient_condition,
        }


def frobenius_report(p):
    """Run the whole battery on one map and collect the verdicts."""
    enriched, semi = check_semiopen(p)
    if enriched is None:
        return FrobeniusReport(p.name, None, semi)
    p = enriched
    fr1 = check_fr1(p)
    fr1r = check_fr1_right(p)
    fr2 = check_fr2(p)
    invc = check_direct_image_involution(p)
    if p.groupoid is not None:
        # p_!(p*(U)) = U for every groupoid (examples._support_map)
        mode, surj = "decided", True
    else:
        mode, surj = "exhaustive", is_surjective(p)
    e = p.target.unit
    unit_identity = None if e is None else p.shriek(p.star(e)) == e
    return FrobeniusReport(p.name, p, semi, fr1, fr1r, fr2, invc,
                           surj, mode, unit_identity)


def is_locale_quantale(q):
    """Multiplication is binary meet and the involution is the identity."""
    return (q.is_finite and q.inv_table == tuple(q.elements)
            and all(ab == q.carrier.meet2(a, b) for a, row in
                    enumerate(q.mult_table) for b, ab in enumerate(row)))


@dataclass(frozen=True)
class LocaleMeetReport:
    map_name: str
    fr2_ok: bool
    applicable: bool
    meet_preserved: bool | None
    witness: tuple | None

    def to_json(self):
        return {"map": self.map_name, "fr2_ok": self.fr2_ok,
                "applicable": self.applicable,
                "meet_preserved": self.meet_preserved,
                "witness": _jsonable(self.witness)}


def check_locale_meet_lemma(report):
    """For locale maps satisfying fr2, p_! preserves binary meets; fr2
    is read off the map's `frobenius_report`, and the law is swept as
    every other map law is (on J(Q) x J(Q) when p_! is a sup-map)."""
    p = report.certified
    if p is None:
        raise MissingDirectImage("map is not semiopen")
    if not (is_locale_quantale(p.source) and is_locale_quantale(p.target)):
        raise NotALocale("both carriers must be locales viewed as quantales")
    if not report.fr2.ok:
        return LocaleMeetReport(p.name, False, False, None, None)
    chk = _swept("locale-meet", p)
    return LocaleMeetReport(p.name, True, True, chk.ok, chk.witness)
