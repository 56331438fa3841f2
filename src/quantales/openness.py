"""Checkers for semiopenness, Frobenius reciprocity and related lemmas.

Every check returns a Check record: verdict, witness and how the search
ran (exhaustive, or sampled with pool size and seed).  Finite carriers are
swept exhaustively while the evaluation count stays under a cap; effective
carriers are probed on deterministic pools of curated plus seeded-random
handles, so reruns with the recorded seed reproduce the verdict.

Each law of a map is written once, as the sweep of its MAP_LAWS entry over
one pool per witness element.  A check runs the sweep on its search pools;
the witness it finds is then re-verified, and a recorded witness replayed
(`violates`), by running the same sweep on one-element pools.

`frobenius_report` runs the battery on a map once: semiopenness, fr1, its
right-module version, fr2, the involution of p_!, surjectivity and the
unit identity p_!(p*(e)) = e.  Weak openness, the pullback hypothesis and
the two lemmas (surjectivity via the unit for weakly open maps; fr2 with
the unit identity forcing fr1 and surjectivity) are properties of that
one report, which also keeps the map it certified with its direct image.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .quantale import is_surjective
from .subspaces import RationalSubspace
from .suplattice import left_adjoint_candidate

EXHAUSTIVE_CAP = 10 ** 6
DEFAULT_POOL = 50
DEFAULT_SEED = 0


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
    pool: int | None = None
    seed: int | None = None
    evaluations: int = 0

    def to_json(self):
        return {
            "check": self.name,
            "ok": self.ok,
            "witness": _jsonable(self.witness),
            "witness_display": self.witness_display,
            "mode": self.mode,
            "pool": self.pool,
            "seed": self.seed,
            "evaluations": self.evaluations,
        }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, RationalSubspace):
        return value.to_json()
    return repr(value)


def _pools(p, pool, seed):
    """Candidate elements on each side plus the mode tag for the report."""
    Q, X = p.source, p.target
    rng = random.Random(seed)
    if Q.is_finite and X.is_finite:
        if Q.size * Q.size * X.size <= EXHAUSTIVE_CAP:
            return list(Q.elements), list(X.elements), "exhaustive", None
        qs = Q.probe_elements(rng, pool)
        return qs, list(X.elements), "sampled-capped", len(qs)
    qs = Q.probe_elements(rng, pool) if not Q.is_finite else list(Q.elements)
    xs = X.probe_elements(rng, pool) if not X.is_finite else list(X.elements)
    mode = "sampled"
    return qs, xs, mode, max(len(qs), len(xs))


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


def _locale_meet(p, a, sa, b):  # p_!(a meet b) = p_!(a) meet p_!(b)
    return (p.shriek(p.source.carrier.meet2(a, b))
            == p.target.carrier.meet2(sa, p.shriek(b)))


# name -> (roles, sweep); roles a and b range over the source Q, x over the
# target X of p: Q -> X
MAP_LAWS = {
    "semiopen": ("ax", _pair_sweep(_semiopen)),
    "fr1": ("ax", _pair_sweep(_fr1)),
    "fr1_right": ("ax", _pair_sweep(_fr1_right)),
    "fr2": ("axb", _sweep_fr2),
    "direct_image_involution": ("a", _sweep_involution),
    "locale-meet": ("ab", _pair_sweep(_locale_meet)),
}


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
    return MAP_LAWS[name][1](p, *([w] for w in witness))[0] is not None


def _confirmed(p, name, witness):
    if not violates(p, name, witness):
        raise UnconfirmedWitness(f"{name} witness {witness} holds on re-check")
    return witness


def _check(name, p, pools, seed):
    """Sweep the law over the search pools and re-verify any witness."""
    qs, xs, mode, poolsize = pools
    roles, sweep = MAP_LAWS[name]
    witness, count = sweep(p, *(xs if r == "x" else qs for r in roles))
    if witness is None:
        return Check(name, True, mode=mode, pool=poolsize, seed=seed,
                     evaluations=count)
    return Check(name, False, _confirmed(p, name, witness),
                 _display(p, roles, witness), mode, poolsize, seed, count)


def _with_meet_candidate(p):
    if not (p.source.is_finite and p.target.is_finite):
        raise MissingDirectImage(
            "an effective carrier needs a supplied direct image")
    return p.with_direct_image(
        left_adjoint_candidate(p.star_sup_map()).__getitem__)


def check_semiopen(p, pool=DEFAULT_POOL, seed=DEFAULT_SEED):
    """Equip p with a direct image, or report why none exists.

    On finite carriers without a supplied direct image the candidate
    p_!(a) = meet {x : a <= p*(x)} is swept against the adjunction on all
    pairs (it is the direct image exactly when the sweep passes); a
    supplied direct image, finite or effective, is verified on the probe
    pools.  Returns (map_with_direct_image_or_None, Check).
    """
    if p.direct_image is None:
        p = _with_meet_candidate(p)
        pools = (list(p.source.elements), list(p.target.elements),
                 "exhaustive", None)
        chk = _check("semiopen", p, pools, None)
    else:
        chk = _check("semiopen", p, _pools(p, pool, seed), seed)
    return (p if chk.ok else None), chk


def _require_direct(p):
    if p.direct_image is None:
        enriched, chk = check_semiopen(p)
        if enriched is None:
            raise MissingDirectImage(f"map is not semiopen: {chk.witness}")
        return enriched
    return p


def _check_with_direct(name, p, pool, seed):
    p = _require_direct(p)
    return _check(name, p, _pools(p, pool, seed), seed)


def check_fr1(p, pool=DEFAULT_POOL, seed=DEFAULT_SEED):
    """p_!(a p*(x)) = p_!(a) x, exhaustively or on probe pools."""
    return _check_with_direct("fr1", p, pool, seed)


def check_fr1_right(p, pool=DEFAULT_POOL, seed=DEFAULT_SEED):
    """p_!(p*(x) a) = x p_!(a), the right-module version of fr1."""
    return _check_with_direct("fr1_right", p, pool, seed)


def check_fr2(p, pool=DEFAULT_POOL, seed=DEFAULT_SEED):
    """p_!(a p*(x) b) = p_!(a) x p_!(b); witness is the first failing triple."""
    return _check_with_direct("fr2", p, pool, seed)


def check_direct_image_involution(p, pool=DEFAULT_POOL, seed=DEFAULT_SEED):
    """p_!(a*) = p_!(a)*: direct images of semiopen maps preserve involution."""
    return _check_with_direct("direct_image_involution", p, pool, seed)


@dataclass(frozen=True)
class FrobeniusReport:
    """The whole battery on one map; every notion about p is read off it."""
    map_name: str
    certified: object  # p carrying its direct image, None unless semiopen
    semiopen: Check
    fr1: Check | None
    fr1_right: Check | None
    fr2: Check | None
    direct_image_involution: Check | None
    surjective: bool | None
    surjective_mode: str | None
    unit_identity: bool | None  # p_!(p*(e)) = e, None without a unit e

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

    @property
    def fr2_forces_fr1(self):
        """fr2 together with p_!(p*(e)) = e forces fr1 and surjectivity."""
        if not (self.fr2 is not None and self.fr2.ok and self.unit_identity):
            return True
        return bool(self.fr1.ok and self.surjective)

    def to_json(self):
        checks = [c.to_json() for c in
                  (self.semiopen, self.fr1, self.fr1_right, self.fr2,
                   self.direct_image_involution) if c is not None]
        return {
            "map": self.map_name,
            "checks": checks,
            "surjective": self.surjective,
            "surjective_mode": self.surjective_mode,
            "unit_identity": self.unit_identity,
            "weakly_open": self.weakly_open,
            "open_by_sufficient_condition": self.open_by_sufficient_condition,
        }


def frobenius_report(p, pool=DEFAULT_POOL, seed=DEFAULT_SEED):
    """Run the whole battery on one map and collect the verdicts."""
    enriched, semi = check_semiopen(p, pool, seed)
    if enriched is None:
        return FrobeniusReport(p.name, None, semi, None, None, None, None,
                               None, None, None)
    p = enriched
    fr1 = check_fr1(p, pool, seed)
    fr1r = check_fr1_right(p, pool, seed)
    fr2 = check_fr2(p, pool, seed)
    invc = check_direct_image_involution(p, pool, seed)
    mode = "exhaustive" if p.target.is_finite else "sampled"
    surj = is_surjective(p, random.Random(seed))
    e = p.target.unit
    unit_identity = None if e is None else p.shriek(p.star(e)) == e
    return FrobeniusReport(p.name, p, semi, fr1, fr1r, fr2, invc,
                           surj, mode, unit_identity)


def is_locale_quantale(q):
    """Multiplication is binary meet and the involution is the identity."""
    if not q.is_finite:
        return False
    return (all(q.inv(a) == a for a in q.elements)
            and all(q.mult(a, b) == q.carrier.meet2(a, b)
                    for a in q.elements for b in q.elements))


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
    is read off the map's `frobenius_report`."""
    p = report.certified
    if p is None:
        raise MissingDirectImage("map is not semiopen")
    if not (is_locale_quantale(p.source) and is_locale_quantale(p.target)):
        raise NotALocale("both carriers must be locales viewed as quantales")
    if not report.fr2.ok:
        return LocaleMeetReport(p.name, False, False, None, None)
    elements = list(p.source.elements)
    witness, _ = MAP_LAWS["locale-meet"][1](p, elements, elements)
    if witness is None:
        return LocaleMeetReport(p.name, True, True, True, None)
    return LocaleMeetReport(p.name, True, True, False,
                            _confirmed(p, "locale-meet", witness))
