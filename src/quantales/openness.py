"""Checkers for semiopenness, Frobenius reciprocity and related lemmas.

Every check returns a Check record: verdict, witness and how it was
decided (exhaustive, or decided from a groupoid table).  Finite carriers
are swept exhaustively.  A support map Max Q[G] -> P(G) that records its
groupoid G is not searched at all: the lemma beside
`examples._support_map` decides each law from G's table, and the
evaluations of such a check count the table entries it read.  A
map with an effective carrier and no groupoid has no sweep that could
prove a law, so its checks raise `Undecidable`.

Each law of a map is written once, as a `laws.Law` of MAP_LAWS: the
roles of its witness (a and b over Q, x over X), its hoisted sweep and
its decisions, run by `laws.run` for a check and for the replay of a
recorded witness (`violates`).  `BATTERY` names the laws of
`frobenius_report` in report order.  The decisions, in order:
- from a groupoid table, for every law but locale-meet;
- on finite carriers, a sweep of the Q-arguments a and b over the
  join-irreducibles J(Q) alone, recorded as the reduction, when both
  carriers are validated quantales and p_! is a sup-map.  That premise
  is decided as `validate_hom` decides hom-join, once per map
  (`QuantaleMap.facts`): p_!(bottom) = bottom and p_!(a v j) = p_!(a) v
  p_!(j) for every a and every j in J(Q), which by induction on b = j1 v
  ... v jk gives p_!(a v b) = p_!(a) v p_!(b).  Each side of fr1,
  fr1_right, fr2 and the involution law then preserves joins in a and
  in b, bottom included: both products distribute over joins and absorb
  bottom, and both involutions and p_! preserve joins.  Locale-meet is
  checked only between locales, validated quantales whose product is
  meet: there a(b v c) = ab v ac makes the lattice distributive, so a
  finite frame, where a meet - preserves joins.  Every element is the
  join of the join-irreducibles below it, so the two sides agree
  everywhere once they agree on J.  Semiopenness, p_!(a) <= x iff a <=
  p*(x), needs no premise on p*: for a fixed x, {a : p_!(a) <= x} and
  {a : a <= p*(x)} are down-sets that hold bottom and are closed under
  binary joins, and such a set holds a exactly when it holds every
  join-irreducible below a.  A witness found on J is confirmed (one that
  holds on re-check raises `UnconfirmedWitness`), and the full sweep
  then reports its own first witness, evaluations and display.  A map
  whose p_! is not a sup-map, supplied or the meet candidate, is swept
  in full.

`frobenius_report` runs the battery on a map once: semiopenness, fr1, its
right-module version, fr2, the involution of p_!, surjectivity and the
unit identity p_!(p*(e)) = e.  Weak openness, the pullback hypothesis and
the two lemmas (surjectivity via the unit for weakly open maps; fr2 with
the unit identity forcing fr1 and surjectivity) are properties of that
one report, which also keeps the map it certified with its direct image.
"""

from __future__ import annotations

from .laws import (JOIN_IRREDUCIBLES, Decision, Law, UnconfirmedWitness,
                   fails_at, run)
from .quantale import Undecidable, is_surjective
from .records import FrozenRecord, setfield
from .subspaces import RationalSubspace
from .suplattice import left_adjoint_candidate

GROUPOID_TABLE = "groupoid table"


class NotUnital(ValueError):
    pass


class NotALocale(ValueError):
    pass


class MissingDirectImage(ValueError):
    pass


class Check(FrozenRecord):
    __slots__ = ("name", "ok", "witness", "witness_display", "mode",
                 "evaluations", "reduction")

    def __init__(self, name, ok, witness=None, witness_display=None,
                 mode="exhaustive", evaluations=0, reduction=None):
        setfield(self, "name", name)
        setfield(self, "ok", ok)
        setfield(self, "witness", witness)
        setfield(self, "witness_display", witness_display)
        setfield(self, "mode", mode)
        setfield(self, "evaluations", evaluations)
        setfield(self, "reduction", reduction)

    def to_json(self):
        out = {"check": self.name, "ok": self.ok,
               "witness": _jsonable(self.witness),
               "witness_display": self.witness_display, "mode": self.mode,
               "evaluations": self.evaluations}
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
# The lemma beside `examples._support_map` passes every law of such a map
# but FR2, which its table decides.

def _fr2_from_table(facts):
    """FR2 fails iff some unit y has a loop h != y; the witness is
    (span{sum of the loops at y}, {y}, span{y - h}) for the first such y
    and its first such h.  Returns it or None, and the entries read."""
    groupoid = facts.groupoid
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


def _map_law(name, roles, sweep, table=None, groupoid=True):
    """The law of a map p: Q -> X whose roles a and b range over Q and x
    over X: with `groupoid`, passed by the lemma on a groupoid support map
    or decided from its `table`; else swept, on J(Q) first when p_! is a
    sup-map."""
    pools = tuple("X" if r == "x" else "Q" for r in roles)
    decisions = ()
    if groupoid:
        decisions += (Decision(lambda facts: facts.groupoid is not None,
                               GROUPOID_TABLE, table=table),)
    decisions += (Decision(
        lambda facts: facts.sup_map, JOIN_IRREDUCIBLES,
        pools=tuple("J" if k == "Q" else k for k in pools)),)
    return Law(name, pools, sweep=sweep, decisions=decisions, roles=roles)


MAP_LAWS = {law.name: law for law in (
    _map_law("semiopen", "ax", _pair_sweep(_semiopen)),
    _map_law("fr1", "ax", _pair_sweep(_fr1)),
    _map_law("fr1_right", "ax", _pair_sweep(_fr1_right)),
    _map_law("fr2", "axb", _sweep_fr2, _fr2_from_table),
    _map_law("direct_image_involution", "a", _sweep_involution),
    _map_law("locale-meet", "ab", _pair_sweep(_locale_meet_law),
             groupoid=False),
)}

# the checks of `frobenius_report`, in report order
BATTERY = ("semiopen", "fr1", "fr1_right", "fr2", "direct_image_involution")


def violates(p, name, witness):
    """Whether the witness fails the named law of p, on one-element
    pools.  Semiopenness of a finite map without a direct image is judged
    on the meet candidate for p_!; every other law needs p semiopen."""
    if p.direct_image is None:
        p = _with_meet_candidate(p) if name == "semiopen" else \
            _require_direct(p)
    return fails_at(MAP_LAWS[name], (p,), witness)


def _swept(name, p):
    """The Check of the named law of p, by the runner (module docstring);
    a map with an effective carrier needs a groupoid table."""
    if p.groupoid is None and not (p.source.is_finite and p.target.is_finite):
        raise Undecidable(f"{name} of map {p.name or '?'}: an effective "
                          f"carrier is decided only from a groupoid table")
    law = MAP_LAWS[name]
    _, witness, count, decision = run((law,), (p,), p.facts)
    display = witness and ", ".join(
        f"{r}={(p.target if r == 'x' else p.source).name_of(w)}"
        for r, w in zip(law.roles, witness))
    return Check(name, witness is None, witness, display,
                 "exhaustive" if decision is None or decision.pools else
                 "decided", count, decision and decision.reduction)


def _with_meet_candidate(p):
    if not (p.source.is_finite and p.target.is_finite):
        raise MissingDirectImage(
            "an effective carrier needs a supplied direct image")
    return p.with_direct_image(
        left_adjoint_candidate(p.star_sup_map()).__getitem__)


def check_semiopen(p):
    """Equip p with a direct image, or report why none exists: (p with
    its direct image, or None; Check).  Without a supplied direct image
    the candidate p_!(a) = meet {x : a <= p*(x)} of finite carriers is
    checked, which is the direct image exactly when the check passes."""
    if p.direct_image is None:
        p = _with_meet_candidate(p)
    chk = _swept("semiopen", p)
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
    return _swept("fr1", _require_direct(p))


def check_fr1_right(p):
    """p_!(p*(x) a) = x p_!(a), the right-module version of fr1."""
    return _swept("fr1_right", _require_direct(p))


def check_fr2(p, pool=None, seed=None):
    """p_!(a p*(x) b) = p_!(a) x p_!(b); witness is the first failing triple.
    `pool` and `seed` are accepted for callers of the older signature and
    change nothing."""
    return _swept("fr2", _require_direct(p))


def check_direct_image_involution(p):
    """p_!(a*) = p_!(a)*: direct images of semiopen maps preserve involution."""
    return _swept("direct_image_involution", _require_direct(p))


class FrobeniusReport(FrozenRecord):
    """The whole battery on one map; every notion about p is read off it."""
    __slots__ = ("map_name", "certified", "semiopen", "fr1", "fr1_right",
                 "fr2", "direct_image_involution", "surjective",
                 "surjective_mode", "unit_identity")

    def __init__(self, map_name, certified, semiopen, fr1=None,
                 fr1_right=None, fr2=None, direct_image_involution=None,
                 surjective=None, surjective_mode=None, unit_identity=None):
        setfield(self, "map_name", map_name)
        setfield(self, "certified", certified)  # p with p_! if semiopen
        setfield(self, "semiopen", semiopen)
        setfield(self, "fr1", fr1)
        setfield(self, "fr1_right", fr1_right)
        setfield(self, "fr2", fr2)
        setfield(self, "direct_image_involution", direct_image_involution)
        setfield(self, "surjective", surjective)
        setfield(self, "surjective_mode", surjective_mode)
        setfield(self, "unit_identity", unit_identity)  # p_!(p*(e)) = e

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
        """The paper's sufficient condition for stable weak openness."""
        return self.open_by_sufficient_condition

    @property
    def wos_consistent(self):
        """A weakly open map into a unital target is a surjection iff
        p_!(p*(e)) = e."""
        return (not self.weakly_open or self.unit_identity is None
                or self.unit_identity == self.surjective)

    def to_json(self):
        checks = [getattr(self, name) for name in BATTERY]
        return {"map": self.map_name,
                "checks": [c.to_json() for c in checks if c is not None],
                "surjective": self.surjective,
                "surjective_mode": self.surjective_mode,
                "unit_identity": self.unit_identity,
                "weakly_open": self.weakly_open,
                "open_by_sufficient_condition":
                    self.open_by_sufficient_condition}


def frobenius_report(p):
    """Run the whole battery on one map and collect the verdicts."""
    enriched, semi = check_semiopen(p)
    if enriched is None:
        return FrobeniusReport(p.name, None, semi)
    p = enriched
    checks = [check(p) for check in (check_fr1, check_fr1_right, check_fr2,
                                     check_direct_image_involution)]
    if p.groupoid is not None:
        # p_!(p*(U)) = U for every groupoid (examples._support_map)
        mode, surj = "decided", True
    else:
        mode, surj = "exhaustive", is_surjective(p)
    e = p.target.unit
    unit_identity = None if e is None else p.shriek(p.star(e)) == e
    return FrobeniusReport(p.name, p, semi, *checks, surj, mode,
                           unit_identity)


def is_locale_quantale(q):
    """Multiplication is binary meet and the involution is the identity."""
    return (q.is_finite and q.inv_table == tuple(q.elements)
            and all(ab == q.carrier.meet2(a, b) for a, row in
                    enumerate(q.mult_table) for b, ab in enumerate(row)))


class LocaleMeetReport(FrozenRecord):
    __slots__ = ("map_name", "fr2_ok", "applicable", "meet_preserved",
                 "witness")

    def __init__(self, map_name, fr2_ok, applicable, meet_preserved, witness):
        setfield(self, "map_name", map_name)
        setfield(self, "fr2_ok", fr2_ok)
        setfield(self, "applicable", applicable)
        setfield(self, "meet_preserved", meet_preserved)
        setfield(self, "witness", witness)

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
