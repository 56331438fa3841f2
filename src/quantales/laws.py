"""The law engine: one record per law, and one runner for every law.

A `Law` names the pool of each witness element: "Q" for the elements of
a quantale or of the source Q of a map p: Q -> X, "J" for the
join-irreducibles of Q, "X" for the elements of the target of a map or
of the source of a homomorphism.  It holds its predicate, holds(*args,
*witness), or a hoisted sweep, sweep(*args, *pools) -> (first failing
witness or None, evaluations); a map law also names the letters its
witness is shown with.  The first of its decisions whose premise holds
on the facts of the subject (`quantale._QuantaleFacts`, `_HomFacts`)
settles the law: by the premise alone, from a `table` (witness or None,
entries read), or by a sweep on reduced `pools`, whose witness is
confirmed before the full sweep reports its own first one.

`run` returns the first failure, in order.  Consecutive laws with the
same pools are swept tuple-major, a law with a hoisted sweep alone, and
a run of decided laws walks no pool.  Each witness found is confirmed;
a replay (`fails_at`) runs it on one-element pools, with no decision.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

DERIVED = "derived"
JOIN_IRREDUCIBLES = "join-irreducibles"


class Law(namedtuple("Law", "name pools holds sweep decisions roles",
                     defaults=(None, None, (), ""))):
    __slots__ = ()

    @property
    def arity(self):
        return len(self.pools)


# premise(facts) -> bool; then table(facts), a sweep on pools, or a pass
Decision = namedtuple("Decision", "premise reduction table pools",
                      defaults=(None, None))


class UnconfirmedWitness(RuntimeError):
    """A witness found by a sweep does not fail its law on re-check."""


def run(laws, args, facts=None, pools=None):
    """(law, witness, evaluations, decision) of the first law that fails,
    else of the last law with witness None, the decision None if it was
    swept in full; swept on `pools` alone when they are given."""
    last = None, None, 0, None
    for (kinds, _), group in itertools.groupby(
            laws, lambda law: (law.pools, law.sweep)):
        swept = []
        for law in group:
            decision = None if pools is not None else next(
                (d for d in law.decisions if d.premise(facts)), None)
            if decision is None:
                swept.append(law)
                continue
            witness, count = None, 0
            if decision.table is not None:
                witness, count = decision.table(facts)
            elif decision.pools is not None:
                _, witness, count = _sweep(
                    [law], args, [facts.pool(k) for k in decision.pools])
            if witness is not None:
                _confirm(law, args, witness)
                if decision.table is None:  # the full sweep reports
                    swept.append(law)
                    continue
                return law, witness, count, decision
            last = law, None, count, decision
        if not swept:
            continue
        law, witness, count = _sweep(swept, args, pools if pools is not None
                                     else [facts.pool(k) for k in kinds])
        if witness is not None:
            if pools is None:
                _confirm(law, args, witness)
            return law, witness, count, None
        last = swept[-1], None, count, None
    return last


def _sweep(laws, args, pools):
    """(law, witness, evaluations) of the first failure, or (None, None,
    evaluations); evaluations are counted by hoisted sweeps only."""
    if laws[0].sweep is not None:
        return (laws[0], *laws[0].sweep(*args, *pools))
    for witness in itertools.product(*pools):
        for law in laws:
            if not law.holds(*args, *witness):
                return law, witness, None
    return None, None, None


def fails_at(law, args, witness):
    """Whether the witness fails the law: the runner on one-element pools."""
    return run((law,), args, pools=[[w] for w in witness])[1] is not None


def _confirm(law, args, witness):
    if not fails_at(law, args, witness):
        raise UnconfirmedWitness(f"{law.name} witness {witness} holds on "
                                 f"re-check")
