"""Alternating words over two involutive quantales, and the pullback verifiers.

A word of the free product of Y and Q alternates letters of Y (tag 'y')
and of Q (tag 'q'); its grade is fixed by its first tag and its length
(grade 1 is Y itself, grade 2 is Q).  Multiplication concatenates words,
merging the boundary letters through the multiplication of Y or Q when
their tags coincide; the involution reverses a word and applies the
letterwise involutions.  The verifiers build words through
`family_instance` and `Word`; the grade, the product and the involution of
words are written out in the tests, whose word-algebra acceptance test
checks them.

On top of the word algebra sits the pullback machinery for a square with
a base map p: Q -> X (a semiopen surjection satisfying both Frobenius
conditions) and an arbitrary map f: Y -> X.  The candidate direct image
h of the first projection replaces every Q-letter a by f*(p_!(a)) and
multiplies the result out in Y.  The verifiers check that h respects the
relations presenting the pullback and the unit of its adjunction on
words (with explicit rewrite traces); both Frobenius conditions, in all
sixteen word shapes, follow from the Y-letter lemma.  The counit h(y) = y
and the Beck-Chevalley square h(a) = f*(p_!(a)) on one-letter words hold
by the definition of h, for any p_! and f*, so they are recorded as decided.

The swap rule.  The pullback is presented by one relation: the Q-letter
p*(x) may be swapped for the Y-letter f*(x) between optional neighbours
z, z', each merging into the swapped letter when their tags agree and
standing beside it otherwise.  The nine relation families are the nine
choices of neighbour tags (NEIGHBOURS).  h applies f* p_! to a merged
Q-letter whole and to separate ones one by one, so the number of
Q-neighbours picks what h needs of p: with none, f*(p_!(p*(x))) = f*(x),
surjectivity; with one, p_!(a.p*(x)) = p_!(a) x, FR1 (or its mirror);
with two, p_!(a.p*(x).a') = p_!(a) x p_!(a'), FR2.

The flank lemma.  Every relation instance and rewrite step is a core c
of at most three letters between two flanks t and t', either of which
may be empty, and the instance is the concatenation t.c.t'.  Premise: Y
is associative, and no letters merge across a core/flank boundary,
because each flank's boundary tag differs from the core's (the `Word`
constructor rejects any other concatenation).  Then
h(t.c.t') = h(t) h(c) h(t'), so an instance holds whenever its core
holds, and a failing core is itself an instance.  The cores with empty
flanks therefore decide words of every length: the verifiers check the
premise (Y is validated as a quantale) and the cores, and `maxlen`
bounds only the words whose rewrite traces are recorded.

The Y-letter lemma.  h(u.y.v) = h(u) y h(v) for all words u, v (either
may be empty), every y in Y and any p_! and f*.  h multiplies the letter
images (y for y, f*(p_!(a)) for a) out in Y, and multiplying by the
one-letter word (y) merges y only with a neighbouring Y-letter, through
Y's multiplication, never two Q-letters; so the sides agree up to
bracketing.  Premise: Y is associative.  Both Frobenius conditions of
the first projection are instances, once p carries its direct image.

The Y-free corollary.  Deleting the Y-neighbours y, y2 of a core leaves
its Y-free core, whose sides have the h-values A = f*(p_!(q)), with
q = [a.]p*(x)[.a2], and B = [f*(p_!(a)).]f*(x)[.f*(p_!(a2))], a product
in Y.  By the Y-letter lemma the core's sides have the h-values
[y.]A[.y2] and [y.]B[.y2], so when A = B the core holds for every y and
y2.  Premise: Y is associative, as for the lemma, whatever p_! and f*
are, so it needs neither p's hypothesis nor f* to be multiplicative.
The verifiers therefore evaluate the Y-free cores on raw values
(|X|.|Q|^k per family, k its number of Q-neighbours) and sweep y, y2
only over those that fail, where the sweep may find failing cores.
"""

from __future__ import annotations

import itertools

from .openness import frobenius_report
from .quantale import require, validate_quantale
from .records import FrozenRecord, Record, setfield

Y_TAG = "y"
Q_TAG = "q"


class ChainFailure(RuntimeError):
    def __init__(self, step, detail):
        self.step = step
        self.detail = detail
        super().__init__(f"adjunction chain fails at step {step}: {detail}")


class NotASquare(ValueError):
    """p and f do not share their target."""


class HypothesisNotSatisfied(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__("base map is not a certified semiopen surjection "
                         "with both Frobenius conditions")


class Word(FrozenRecord):
    """A nonempty sequence of letters tagged 'y' or 'q', strictly alternating."""
    __slots__ = ("letters",)

    def __init__(self, letters):
        setfield(self, "letters", letters)
        self.__post_init__()

    def __post_init__(self):
        ls = tuple((t, int(e)) for t, e in self.letters)
        setfield(self, "letters", ls)
        if not ls:
            raise ValueError("words are nonempty")
        for (t1, _), (t2, _) in zip(ls, ls[1:]):
            if t1 == t2:
                raise ValueError(f"adjacent letters share the tag {t1}")
        for t, _ in ls:
            if t not in (Y_TAG, Q_TAG):
                raise ValueError(f"unknown tag {t!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash((self.letters,))

    def __len__(self):
        return len(self.letters)

    @property
    def first_tag(self):
        return self.letters[0][0]

    def display(self, Y, Q):
        def nm(t, e):
            return (Y if t == Y_TAG else Q).name_of(e)
        return "(" + " | ".join(f"{t}:{nm(t, e)}" for t, e in self.letters) + ")"


def all_words(Y, Q, max_len):
    """Every alternating word over the two carriers up to the given length."""
    for length in range(1, max_len + 1):
        for start in (Y_TAG, Q_TAG):
            pattern = tuple(start if i % 2 == 0 else
                            (Q_TAG if start == Y_TAG else Y_TAG)
                            for i in range(length))
            ranges = [range(Y.size) if t == Y_TAG else range(Q.size)
                      for t in pattern]
            for combo in itertools.product(*ranges):
                yield Word(tuple(zip(pattern, combo)))


# -- pullback contexts ---------------------------------------------------------

class PullbackContext(FrozenRecord):
    """A base square: p: Q -> X certified, f: Y -> X arbitrary."""
    __slots__ = ("p", "f", "report")

    def __init__(self, p, f, report=None):
        setfield(self, "p", p)
        setfield(self, "f", f)
        setfield(self, "report", report)

    @property
    def Y(self):
        return self.f.source

    @property
    def Q(self):
        return self.p.source

    @property
    def X(self):
        return self.p.target

    @staticmethod
    def build(p, f, verify=True):
        if f.target != p.target:
            raise NotASquare("p and f must share their target")
        report = frobenius_report(p)
        if verify and not report.hypothesis_for_pullback:
            raise HypothesisNotSatisfied(report)
        if report.certified is not None:
            p = report.certified
        return PullbackContext(p, f, report)


def word_direct_image(ctx, w):
    """Candidate direct image of the first projection, on one word.

    Y-letters stay; each Q-letter a becomes f*(p_!(a)); the result is
    multiplied out in Y, so a single Y-letter maps to itself.
    """
    Y = ctx.Y
    out = None
    for t, e in w.letters:
        val = e if t == Y_TAG else ctx.f.star(ctx.p.shriek(e))
        out = val if out is None else Y.mult(out, val)
    return out


# -- the flank lemma ------------------------------------------------------------

# letters in the longest cores: the left side of mid_yy, the right of mid_qq
LONGEST_CORE = 3

# how the reduced verifiers' reports say what they cover; the core
# verifiers add how they reduce the Y-neighbours of a core
REDUCTION = {"scope": "all lengths", "reduction": "flank lemma"}
Y_FREE_COROLLARY = "Y-free corollary"
DEFINITION_OF_H = "definition of h"
CORE_REDUCTION = {**REDUCTION, "y_neighbours": Y_FREE_COROLLARY}

# rewrite traces recorded by default: the verdict needs none, and every
# word up to maxlen 4 is 9,620 traces on P(Z/2) and millions on P(S3)
DEFAULT_TRACES = 25


def check_maxlen(maxlen):
    """Reject a word-length bound shorter than the longest core.

    Words that short leave cores out, so such a bound would read as a
    vacuous pass of a narrower check; every reduced verifier and the
    command line reject it here.
    """
    if maxlen < LONGEST_CORE:
        raise ValueError(f"maxlen {maxlen} is below {LONGEST_CORE}, the "
                         f"length of the longest core")
    return maxlen


def _check_premise(ctx, maxlen):
    """The bound on maxlen, and the premise on Y of both lemmas."""
    check_maxlen(maxlen)
    require(validate_quantale(ctx.Y))


# -- the swap rule -----------------------------------------------------------------

# family -> tags of the letters before and after the swapped letter (None
# where there is none); the family tables below derive from it
NEIGHBOURS = {
    "standalone": (None, None),
    "head_q": (None, Q_TAG),
    "head_y": (None, Y_TAG),
    "tail_q": (Q_TAG, None),
    "tail_y": (Y_TAG, None),
    "mid_qq": (Q_TAG, Q_TAG),
    "mid_yq": (Y_TAG, Q_TAG),
    "mid_qy": (Q_TAG, Y_TAG),
    "mid_yy": (Y_TAG, Y_TAG),
}

FAMILIES = tuple(NEIGHBOURS)

# the hypothesis on p that a family needs, by its number of Q-neighbours.
# head_q and mid_yq need p_!(p*(x).a) = x.p_!(a), fr1_right, yet fr1
# suffices: if p* preserves the involution (map_from_doc validates it),
# p_!(a*) = p_!(a)*, and fr1_right at (a, x) is fr1 at (a*, x*) starred
FAMILY_HYPOTHESIS = {fam: ("surjectivity", "fr1", "fr2")[tags.count(Q_TAG)]
                     for fam, tags in NEIGHBOURS.items()}

# the families whose rewrite leaves no Q-letter: the unit chain's steps
UNIT_FAMILIES = tuple(fam for fam, tags in NEIGHBOURS.items()
                      if Q_TAG not in tags)

_FAMILY_OF = {tags: fam for fam, tags in NEIGHBOURS.items()}

# family -> where each neighbour's value sits in (a, a2, y, y2): a Q-letter
# takes a and a Y-letter y, the second of two alike a2 or y2
_SLOTS = {fam: tuple(None if t is None
                     else 2 * (t == Y_TAG) + tags[:i].count(t)
                     for i, t in enumerate(tags))
          for fam, tags in NEIGHBOURS.items()}

# the parameters of each family's core: a, a2 range over Q and y, y2 over Y
CORE_PARAMETERS = {fam: tuple(("a", "a2", "y", "y2")[i] for i in slots
                              if i is not None)
                   for fam, slots in _SLOTS.items()}


def family_instance(ctx, family, x, a=None, a2=None, y=None, y2=None,
                    left=(), right=()):
    """One relation instance (left word, right word) of the swap rule.

    The Q-letter p*(x) is swapped for the Y-letter f*(x) between the
    family's neighbours, inside the flanks `left` before the core and
    `right` after it; e.g. mid_yq is (t | y | p*(x).a | t') ~
    (t | y.f*(x) | a | t').
    """
    try:
        (before, after), (i, j) = NEIGHBOURS[family], _SLOTS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    values = (a, a2, y, y2)
    qx, fx = ctx.p.star(x), ctx.f.star(x)
    lpre = lpost = rpre = rpost = ()
    if before == Q_TAG:
        qx, rpre = ctx.Q.mult(values[i], qx), ((Q_TAG, values[i]),)
    elif before == Y_TAG:
        fx, lpre = ctx.Y.mult(values[i], fx), ((Y_TAG, values[i]),)
    if after == Q_TAG:
        qx, rpost = ctx.Q.mult(qx, values[j]), ((Q_TAG, values[j]),)
    elif after == Y_TAG:
        fx, lpost = ctx.Y.mult(fx, values[j]), ((Y_TAG, values[j]),)
    return (Word(left + lpre + ((Q_TAG, qx),) + lpost + right),
            Word(left + rpre + ((Y_TAG, fx),) + rpost + right))


class Instance(FrozenRecord):
    __slots__ = ("family", "hypothesis", "x", "left_word", "right_word")

    def __init__(self, family, hypothesis, x, left_word, right_word):
        setfield(self, "family", family)
        setfield(self, "hypothesis", hypothesis)
        setfield(self, "x", x)
        setfield(self, "left_word", left_word)
        setfield(self, "right_word", right_word)

    def to_json(self, ctx=None):
        out = {"family": self.family, "hypothesis": self.hypothesis,
               "x": self.x,
               "left": list(self.left_word.letters),
               "right": list(self.right_word.letters)}
        if ctx is not None:
            out["left_display"] = self.left_word.display(ctx.Y, ctx.Q)
            out["right_display"] = self.right_word.display(ctx.Y, ctx.Q)
        return out


class FamilyResult(Record):
    __slots__ = ("family", "hypothesis", "instances", "failures")

    def __init__(self, family, hypothesis):
        self.family = family
        self.hypothesis = hypothesis
        self.instances = 0
        self.failures = []

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {"family": self.family, "hypothesis": self.hypothesis,
                "instances": self.instances,
                "failures": self.failures[:20],
                "failure_count": len(self.failures)}


def core_failure(ctx, family, x, parameters):
    """The report record of the core of `family` at x and the parameters
    (its instance, parameters and the h-values of both sides), or None
    when h agrees on its sides."""
    lhs, rhs = family_instance(ctx, family, x, **parameters)
    hl = word_direct_image(ctx, lhs)
    hr = word_direct_image(ctx, rhs)
    if hl == hr:
        return None
    inst = Instance(family, FAMILY_HYPOTHESIS[family], x, lhs, rhs)
    return {"instance": inst.to_json(ctx), "parameters": dict(parameters),
            "h_left": ctx.Y.name_of(hl), "h_right": ctx.Y.name_of(hr)}


def _y_free_failures(ctx, family, x, image):
    """The Q-neighbour values (a, then a2, as the family has them) at
    which the Y-free core of `family` at x fails, A != B (module
    docstring); image[a] is f*(p_!(a))."""
    Q, Y = ctx.Q, ctx.Y
    before, after = NEIGHBOURS[family]
    px, fx = ctx.p.star(x), ctx.f.star(x)
    failing = set()
    k = (before, after).count(Q_TAG)
    for qs in itertools.product(Q.elements, repeat=k):
        q, b = px, fx
        if before == Q_TAG:
            q, b = Q.mult(qs[0], q), Y.mult(image[qs[0]], b)
        if after == Q_TAG:
            q, b = Q.mult(q, qs[-1]), Y.mult(b, image[qs[-1]])
        if image[q] != b:
            failing.add(qs)
    return failing


def _check_cores(ctx, families, xs):
    """h(left) = h(right) on the cores (the instances with empty flanks) of
    each family, at every x in xs and every choice of its parameters.

    Decided by the Y-free corollary (module docstring): the Y-free cores
    are evaluated on raw values, and only the cores over a failing one
    are swept over y, y2 through `core_failure`, in the order of the full
    sweep, so the failures are the full sweep's.  `instances` counts the
    Y-free cores and the swept cores that have Y-neighbours (a core
    without any is its own Y-free core).
    """
    Q, Y = ctx.Q, ctx.Y
    image = [ctx.f.star(ctx.p.shriek(a)) for a in Q.elements]
    results = {}
    for fam in families:
        res = results[fam] = FamilyResult(fam, FAMILY_HYPOTHESIS[fam])
        names = CORE_PARAMETERS[fam]
        qslots = [i for i, n in enumerate(names) if n.startswith("a")]
        has_y = len(qslots) < len(names)
        ranges = [Q.elements if n.startswith("a") else Y.elements
                  for n in names]
        for x in xs:
            failing = _y_free_failures(ctx, fam, x, image)
            res.instances += Q.size ** len(qslots)
            if not failing:
                continue
            for values in itertools.product(*ranges):
                if tuple(values[i] for i in qslots) not in failing:
                    continue
                res.instances += has_y
                failure = core_failure(ctx, fam, x, dict(zip(names, values)))
                if failure is not None:
                    res.failures.append(failure)
    return results


class RelationCompatibilityReport(Record):
    """Per-family outcome of checking the direct-image candidate against
    the relation cores; `instances` counts cores."""
    __slots__ = ("families",)

    def __init__(self, families):
        self.families = families

    @property
    def ok(self):
        return all(r.ok for r in self.families.values())

    @property
    def total_instances(self):
        return sum(r.instances for r in self.families.values())

    def to_json(self):
        return {"ok": self.ok, **CORE_REDUCTION,
                "total_instances": self.total_instances,
                "families": {k: v.to_json() for k, v in
                             sorted(self.families.items())}}


def verify_relation_compatibility(ctx, maxlen=4):
    """h(left) = h(right) for every relation instance, family by family.

    Decided for words of every length by the flank lemma, on the core of
    each family at every x in X and every choice of its parameters, its
    Y-neighbours by the Y-free corollary; `maxlen` is only checked
    against the longest core.
    """
    _check_premise(ctx, maxlen)
    return RelationCompatibilityReport(
        _check_cores(ctx, FAMILIES, ctx.X.elements))


# -- adjunction on words ----------------------------------------------------------

class RewriteStep(FrozenRecord):
    __slots__ = ("family", "x", "before", "after")

    def __init__(self, family, x, before, after):
        setfield(self, "family", family)
        setfield(self, "x", x)
        setfield(self, "before", before)
        setfield(self, "after", after)

    def to_json(self, ctx=None):
        out = {"family": self.family, "x": self.x,
               "before": list(self.before.letters),
               "after": list(self.after.letters)}
        if ctx is not None:
            out["before_display"] = self.before.display(ctx.Y, ctx.Q)
            out["after_display"] = self.after.display(ctx.Y, ctx.Q)
        return out


class RewriteTrace(FrozenRecord):
    __slots__ = ("word", "bound", "steps", "result")

    def __init__(self, word, bound, steps, result):
        setfield(self, "word", word)
        setfield(self, "bound", bound)
        setfield(self, "steps", steps)
        setfield(self, "result", result)

    def to_json(self, ctx=None):
        out = {"word": list(self.word.letters),
               "bound": list(self.bound.letters),
               "steps": [s.to_json(ctx) for s in self.steps],
               "result": self.result}
        if ctx is not None:
            out["word_display"] = self.word.display(ctx.Y, ctx.Q)
            out["result_display"] = ctx.Y.name_of(self.result)
        return out


def _unit_chain(ctx, w):
    """The word-level unit of the adjunction for one word.

    Raise each Q-letter a to p*(p_!(a)) (recording the base element), check
    the letterwise bound, then eliminate the raised letters left to right
    through relation instances until a single Y-letter remains; that letter
    must be the direct image of the original word.  Each step's family is
    the one whose NEIGHBOURS are the raised letter's neighbours.
    """
    letters = []
    pending = []  # the base elements of the raised letters, left to right
    for idx, (t, e) in enumerate(w.letters):
        if t == Q_TAG:
            x = ctx.p.shriek(e)
            raised = ctx.p.star(x)
            if not ctx.Q.leq(e, raised):
                raise ChainFailure(0, f"unit of the base adjunction fails "
                                      f"at letter {idx}")
            letters.append((Q_TAG, raised))
            pending.append(x)
        else:
            letters.append((t, e))
    bound = Word(tuple(letters))

    steps = []
    current = bound
    for x in pending:
        ls = current.letters
        q = next(i for i, (t, _) in enumerate(ls) if t == Q_TAG)
        near = (ls[max(q - 1, 0):q], ls[q + 1:q + 2])  # () where none
        family = _FAMILY_OF[tuple(n[0][0] if n else None for n in near)]
        values = [n[0][1] for n in near if n]
        lhs, rhs = family_instance(
            ctx, family, x, **dict(zip(CORE_PARAMETERS[family], values)),
            left=ls[:q - len(near[0])], right=ls[q + 2:])
        if lhs != current:
            raise ChainFailure(len(steps),
                               f"{family} instance does not match the word")
        if word_direct_image(ctx, lhs) != word_direct_image(ctx, rhs):
            raise ChainFailure(len(steps),
                               f"direct image changes across a {family} step")
        steps.append(RewriteStep(family, x, current, rhs))
        current = rhs
    if len(current) != 1 or current.first_tag != Y_TAG:
        raise ChainFailure(len(steps), "chain did not end in a single Y-letter")
    result = current.letters[0][1]
    if result != word_direct_image(ctx, w):
        raise ChainFailure(len(steps),
                           "chain result differs from the direct image")
    return RewriteTrace(w, bound, tuple(steps), result)


class AdjunctionReport(Record):
    __slots__ = ("maxlen", "cores", "words_checked", "failures", "traces")

    def __init__(self, maxlen):
        self.maxlen = maxlen
        self.cores = 0
        self.words_checked = 0
        self.failures = []
        self.traces = []

    @property
    def ok(self):
        return not self.failures

    @property
    def traces_kept(self):
        return len(self.traces)

    def to_json(self, ctx=None):
        return {"maxlen": self.maxlen, "ok": self.ok, **CORE_REDUCTION,
                "counit": {"decided_by": DEFINITION_OF_H, "instances": 0},
                "cores": self.cores,
                "words_checked": self.words_checked,
                "failures": self.failures[:20],
                "failure_count": len(self.failures),
                "traces": [t.to_json(ctx) for t in self.traces],
                "traces_kept": self.traces_kept}


def verify_adjunction_on_words(ctx, maxlen=4, max_traces=DEFAULT_TRACES):
    """Counit and word-level unit of the candidate adjunction.

    The counit h(y) = y holds by the definition of h (module docstring)
    and is recorded as decided.  The unit raises each Q-letter a of a
    word to p*(p_!(a)) and rewrites that bound to a single Y-letter
    through UNIT_FAMILIES instances at x = p_!(a).  By the flank lemma it
    holds on words of every length when a <= p*(p_!(a)) for every a in Q
    and the cores of those four families hold at every x in p_!(Q).  The
    rewrite traces are recorded for the first max_traces words up to
    maxlen (all of them when max_traces is None), and a chain that fails
    there is a failure too.  Scope note: the unit is checked on words,
    the join-generators of the quotient, not on arbitrary joins of them.
    """
    _check_premise(ctx, maxlen)
    Y, Q, p = ctx.Y, ctx.Q, ctx.p
    report = AdjunctionReport(maxlen)
    for a in Q.elements:
        if not Q.leq(a, p.star(p.shriek(a))):
            report.failures.append({
                "a": a, "detail": "unit of the base adjunction fails"})
    xs = sorted({p.shriek(a) for a in Q.elements})
    for res in _check_cores(ctx, UNIT_FAMILIES, xs).values():
        report.cores += res.instances
        report.failures += res.failures
    for w in itertools.islice(all_words(Y, Q, maxlen), max_traces):
        report.words_checked += 1
        try:
            report.traces.append(_unit_chain(ctx, w))
        except ChainFailure as e:
            report.failures.append({
                "word": list(w.letters),
                "word_display": w.display(Y, Q),
                "step": e.step,
                "detail": e.detail,
            })
    return report


# -- Beck-Chevalley ---------------------------------------------------------------

class BeckChevalleyReport:
    """The square of direct and inverse images, decided by the definition
    of h: no element is evaluated, so `checked` is 0."""
    ok = True
    checked = 0

    def to_json(self):
        return {"checked": self.checked, "ok": self.ok,
                "reduction": DEFINITION_OF_H}


def verify_beck_chevalley(ctx):
    """Commutativity of the square of direct and inverse images.

    On the one-letter Q-words (a), the image of the second projection,
    h must agree with f* after p_!; it sends (a) to f*(p_!(a)) by its
    definition (module docstring), so nothing is evaluated, and only the
    premise is checked: p carries its direct image (else `Undecidable`).
    """
    ctx.p.shriek(ctx.Q.bottom)  # raises Undecidable without a direct image
    return BeckChevalleyReport()


# -- Frobenius conditions for the first projection --------------------------------

Y_LETTER_LEMMA = "Y-letter lemma"

CASE_SHAPES = tuple(
    f"{left}{z}.y.{z2}{right}"
    for z, z2 in itertools.product((Y_TAG, Q_TAG), repeat=2)
    for left, right in (("", ""), ("t|", ""), ("", "|t"), ("t|", "|t")))


class PullbackFrobeniusReport:
    """Both Frobenius conditions of the first projection, decided by the
    Y-letter lemma: no word is evaluated, so every count is 0."""
    ok = True
    module_instances = 0

    def __init__(self):
        self.cases = {shape: {"decided_by": Y_LETTER_LEMMA, "instances": 0}
                      for shape in CASE_SHAPES}

    def to_json(self):
        return {"ok": self.ok, **REDUCTION, "reduction": Y_LETTER_LEMMA,
                "module_instances": self.module_instances,
                "cases": self.cases}


def verify_pullback_frobenius(ctx, maxlen=4):
    """Frobenius conditions of the first projection, on words.

    The module conditions h(w . pi1*(y)) = h(w) y and its mirror, and
    the sixteen CASE_SHAPES [t |] z . pi1*(y) . z' [| t'] of the
    two-sided one (z, z' single Y- or Q-letters, each flank t, t' absent
    or present), are instances of the Y-letter lemma (module docstring):
    h(u.y.v) = h(u) y h(v), since y merges only with a neighbouring
    Y-letter and Y is associative.  So no word is evaluated; the premises
    are checked instead: `maxlen` is at least 3, Y is a quantale, and p
    carries its direct image (else `Undecidable`).
    """
    _check_premise(ctx, maxlen)
    ctx.p.shriek(ctx.Q.bottom)  # raises Undecidable without a direct image
    return PullbackFrobeniusReport()
