"""Alternating words over two involutive quantales, and the pullback verifiers.

A word of the free product of Y and Q alternates letters of Y (tag 'y')
and of Q (tag 'q'); its grade is fixed by its first tag and its length
(grade 1 is Y itself, grade 2 is Q).  Multiplication concatenates words,
merging the boundary letters through the multiplication of Y or Q when
their tags coincide; the involution reverses a word and applies the
letterwise involutions.

On top of the word algebra sits the pullback machinery for a square with
a base map p: Q -> X (a semiopen surjection satisfying both Frobenius
conditions) and an arbitrary map f: Y -> X.  The pullback is presented by
nine families of relation instances on words.  The candidate direct image
h of the first projection replaces every Q-letter a by f*(p_!(a)) and
multiplies the result out in Y; the verifiers check that h respects all
nine families, that it is left adjoint to the first projection on words
(with explicit rewrite traces), that it satisfies both Frobenius
conditions in all sixteen word shapes, and that the resulting square of
direct and inverse images commutes.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .openness import frobenius_report
from .quantale import InvalidQuantale, validate_quantale

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


@dataclass(frozen=True)
class Word:
    """A nonempty sequence of letters tagged 'y' or 'q', strictly alternating."""
    letters: tuple

    def __post_init__(self):
        ls = tuple((t, int(e)) for t, e in self.letters)
        object.__setattr__(self, "letters", ls)
        if not ls:
            raise ValueError("words are nonempty")
        for (t1, _), (t2, _) in zip(ls, ls[1:]):
            if t1 == t2:
                raise ValueError(f"adjacent letters share the tag {t1}")
        for t, _ in ls:
            if t not in (Y_TAG, Q_TAG):
                raise ValueError(f"unknown tag {t!r}")

    def __len__(self):
        return len(self.letters)

    @property
    def first_tag(self):
        return self.letters[0][0]

    @property
    def last_tag(self):
        return self.letters[-1][0]

    def display(self, Y, Q):
        def nm(t, e):
            return (Y if t == Y_TAG else Q).name_of(e)
        return "(" + " | ".join(f"{t}:{nm(t, e)}" for t, e in self.letters) + ")"


def word(*letters):
    return Word(tuple(letters))


class GradeIndex(NamedTuple):
    n: int
    start: str
    end: str
    length: int


def grade_of(w):
    """The unique grade whose letter pattern matches the word."""
    length = len(w)
    start, end = w.first_tag, w.last_tag
    if length % 2 == 1:
        k = (length - 1) // 2
        n = 4 * k + 1 if start == Y_TAG else 4 * k + 2
    else:
        k = (length - 2) // 2
        n = 4 * k + 3 if start == Y_TAG else 4 * k + 4
    return GradeIndex(n, start, end, length)


def word_multiply(Y, Q, w1, w2):
    """Concatenate, merging boundary letters of equal tag through Y or Q."""
    a, b = w1.letters, w2.letters
    if a[-1][0] != b[0][0]:
        return Word(a + b)
    tag = a[-1][0]
    alg = Y if tag == Y_TAG else Q
    merged = (tag, alg.mult(a[-1][1], b[0][1]))
    return Word(a[:-1] + (merged,) + b[1:])


def word_involution(Y, Q, w):
    """Reverse the letters and apply the letterwise involutions."""
    out = tuple(
        (t, (Y if t == Y_TAG else Q).inv(e)) for t, e in reversed(w.letters))
    return Word(out)


def all_words(Y, Q, max_len, min_len=1):
    """Every alternating word over the two carriers up to the given length."""
    for length in range(min_len, max_len + 1):
        for start in (Y_TAG, Q_TAG):
            pattern = tuple(start if i % 2 == 0 else
                            (Q_TAG if start == Y_TAG else Y_TAG)
                            for i in range(length))
            ranges = [range(Y.size) if t == Y_TAG else range(Q.size)
                      for t in pattern]
            for combo in itertools.product(*ranges):
                yield Word(tuple(zip(pattern, combo)))


# -- pullback contexts ---------------------------------------------------------

@dataclass(frozen=True)
class PullbackContext:
    """A base square: p: Q -> X certified, f: Y -> X arbitrary."""
    p: object
    f: object
    report: object = None

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

# how the reduced verifiers' reports say what they cover
REDUCTION = {"scope": "all lengths", "reduction": "flank lemma"}

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
    violation = validate_quantale(ctx.Y)
    if violation is not None:
        raise InvalidQuantale(violation)


# -- the nine relation families -------------------------------------------------

FAMILIES = ("standalone", "head_q", "head_y", "tail_q", "tail_y",
            "mid_qq", "mid_yq", "mid_qy", "mid_yy")

FAMILY_HYPOTHESIS = {
    "standalone": "surjectivity",
    "head_q": "fr1",
    "head_y": "surjectivity",
    "tail_q": "fr1",
    "tail_y": "surjectivity",
    "mid_qq": "fr2",
    "mid_yq": "fr1",
    "mid_qy": "fr1",
    "mid_yy": "surjectivity",
}

# the parameters of each family's core: a, a2 range over Q and y, y2 over Y
CORE_PARAMETERS = {
    "standalone": (),
    "head_q": ("a",),
    "head_y": ("y",),
    "tail_q": ("a",),
    "tail_y": ("y",),
    "mid_qq": ("a", "a2"),
    "mid_yq": ("y", "a"),
    "mid_qy": ("a", "y"),
    "mid_yy": ("y", "y2"),
}


def family_instance(ctx, family, x, a=None, a2=None, y=None, y2=None,
                    left=(), right=()):
    """One generated relation pair (left word, right word).

    Shapes, with x^ = p*(x) and fx = f*(x), t/t' the optional flanks:
      standalone:  (x^)                ~ (fx)
      head_q:      (x^ a | t)          ~ (fx | a | t)
      head_y:      (x^ | y | t)        ~ (fx.y | t)
      tail_q:      (t | a x^)          ~ (t | a | fx)
      tail_y:      (t | y | x^)        ~ (t | y.fx)
      mid_qq:      (t | a x^ a' | t')  ~ (t | a | fx | a' | t')
      mid_yq:      (t | y | x^ a | t') ~ (t | y.fx | a | t')
      mid_qy:      (t | a x^ | y | t') ~ (t | a | fx.y | t')
      mid_yy:      (t | y | x^ | y' | t') ~ (t | y.fx.y' | t')
    """
    Y, Q = ctx.Y, ctx.Q
    xh = ctx.p.star(x)
    fx = ctx.f.star(x)
    if family == "standalone":
        return Word(((Q_TAG, xh),)), Word(((Y_TAG, fx),))
    if family == "head_q":
        lhs = ((Q_TAG, Q.mult(xh, a)),) + left
        rhs = ((Y_TAG, fx), (Q_TAG, a)) + left
    elif family == "head_y":
        lhs = ((Q_TAG, xh), (Y_TAG, y)) + left
        rhs = ((Y_TAG, Y.mult(fx, y)),) + left
    elif family == "tail_q":
        lhs = left + ((Q_TAG, Q.mult(a, xh)),)
        rhs = left + ((Q_TAG, a), (Y_TAG, fx))
    elif family == "tail_y":
        lhs = left + ((Y_TAG, y), (Q_TAG, xh))
        rhs = left + ((Y_TAG, Y.mult(y, fx)),)
    elif family == "mid_qq":
        mid = Q.mult(Q.mult(a, xh), a2)
        lhs = left + ((Q_TAG, mid),) + right
        rhs = left + ((Q_TAG, a), (Y_TAG, fx), (Q_TAG, a2)) + right
    elif family == "mid_yq":
        lhs = left + ((Y_TAG, y), (Q_TAG, Q.mult(xh, a))) + right
        rhs = left + ((Y_TAG, Y.mult(y, fx)), (Q_TAG, a)) + right
    elif family == "mid_qy":
        lhs = left + ((Q_TAG, Q.mult(a, xh)), (Y_TAG, y)) + right
        rhs = left + ((Q_TAG, a), (Y_TAG, Y.mult(fx, y))) + right
    elif family == "mid_yy":
        lhs = left + ((Y_TAG, y), (Q_TAG, xh), (Y_TAG, y2)) + right
        rhs = left + ((Y_TAG, Y.mult(Y.mult(y, fx), y2)),) + right
    else:
        raise ValueError(f"unknown family {family!r}")
    return Word(lhs), Word(rhs)


@dataclass(frozen=True)
class Instance:
    family: str
    hypothesis: str
    x: int
    left_word: Word
    right_word: Word

    def to_json(self, ctx=None):
        out = {"family": self.family, "hypothesis": self.hypothesis,
               "x": self.x,
               "left": list(self.left_word.letters),
               "right": list(self.right_word.letters)}
        if ctx is not None:
            out["left_display"] = self.left_word.display(ctx.Y, ctx.Q)
            out["right_display"] = self.right_word.display(ctx.Y, ctx.Q)
        return out


@dataclass
class FamilyResult:
    family: str
    hypothesis: str
    instances: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {"family": self.family, "hypothesis": self.hypothesis,
                "instances": self.instances,
                "failures": self.failures[:20],
                "failure_count": len(self.failures)}


def _check_cores(ctx, families, xs):
    """h(left) = h(right) on the cores (the instances with empty flanks) of
    each family, at every x in xs and every choice of its parameters."""
    results = {}
    for fam in families:
        res = results[fam] = FamilyResult(fam, FAMILY_HYPOTHESIS[fam])
        names = CORE_PARAMETERS[fam]
        ranges = [ctx.Q.elements if n.startswith("a") else ctx.Y.elements
                  for n in names]
        for x, values in itertools.product(xs, itertools.product(*ranges)):
            lhs, rhs = family_instance(ctx, fam, x, **dict(zip(names, values)))
            res.instances += 1
            hl = word_direct_image(ctx, lhs)
            hr = word_direct_image(ctx, rhs)
            if hl != hr:
                if word_direct_image(ctx, lhs) == word_direct_image(ctx, rhs):
                    raise RuntimeError(f"{fam} failure does not reproduce")
                inst = Instance(fam, res.hypothesis, x, lhs, rhs)
                res.failures.append({
                    "instance": inst.to_json(ctx),
                    "h_left": ctx.Y.name_of(hl),
                    "h_right": ctx.Y.name_of(hr),
                })
    return results


@dataclass
class RelationCompatibilityReport:
    """Per-family outcome of checking the direct-image candidate against
    the relation cores; `instances` counts cores."""
    families: dict

    @property
    def ok(self):
        return all(r.ok for r in self.families.values())

    @property
    def total_instances(self):
        return sum(r.instances for r in self.families.values())

    def to_json(self):
        return {"ok": self.ok, **REDUCTION,
                "total_instances": self.total_instances,
                "families": {k: v.to_json() for k, v in
                             sorted(self.families.items())}}


def verify_relation_compatibility(ctx, maxlen=4):
    """h(left) = h(right) for every relation instance, family by family.

    Decided for words of every length by the flank lemma, on the core of
    each family at every x in X and every choice of its parameters;
    `maxlen` is only checked against the longest core.
    """
    _check_premise(ctx, maxlen)
    return RelationCompatibilityReport(
        _check_cores(ctx, FAMILIES, ctx.X.elements))


# -- adjunction on words ----------------------------------------------------------

@dataclass(frozen=True)
class RewriteStep:
    family: str
    x: int
    before: Word
    after: Word

    def to_json(self, ctx=None):
        out = {"family": self.family, "x": self.x,
               "before": list(self.before.letters),
               "after": list(self.after.letters)}
        if ctx is not None:
            out["before_display"] = self.before.display(ctx.Y, ctx.Q)
            out["after_display"] = self.after.display(ctx.Y, ctx.Q)
        return out


@dataclass(frozen=True)
class RewriteTrace:
    word: Word
    bound: Word
    steps: tuple
    result: int

    def to_json(self, ctx=None):
        out = {"word": list(self.word.letters),
               "bound": list(self.bound.letters),
               "steps": [s.to_json(ctx) for s in self.steps],
               "result": self.result}
        if ctx is not None:
            out["word_display"] = self.word.display(ctx.Y, ctx.Q)
            out["result_display"] = ctx.Y.name_of(self.result)
        return out


# the families whose instances rewrite a raised word to a single Y-letter
UNIT_FAMILIES = ("standalone", "head_y", "tail_y", "mid_yy")


def _unit_chain(ctx, w):
    """The word-level unit of the adjunction for one word.

    Raise each Q-letter a to p*(p_!(a)) (recording the base element), check
    the letterwise bound, then eliminate the raised letters left to right
    through relation instances until a single Y-letter remains; that letter
    must be the direct image of the original word.
    """
    Y, Q = ctx.Y, ctx.Q
    letters = []
    xs = {}
    for idx, (t, e) in enumerate(w.letters):
        if t == Q_TAG:
            x = ctx.p.shriek(e)
            raised = ctx.p.star(x)
            if not Q.leq(e, raised):
                raise ChainFailure(0, f"unit of the base adjunction fails "
                                      f"at letter {idx}")
            letters.append((Q_TAG, raised))
            xs[len(letters) - 1] = x
        else:
            letters.append((t, e))
    bound = Word(tuple(letters))

    steps = []
    current = list(letters)
    current_xs = dict(xs)
    while True:
        qpos = next((i for i, (t, _) in enumerate(current) if t == Q_TAG),
                    None)
        if qpos is None:
            break
        x = current_xs.pop(qpos)
        before = Word(tuple(current))
        if len(current) == 1:
            family = "standalone"
            lhs, rhs = family_instance(ctx, family, x)
        elif qpos == 0:
            family = "head_y"
            y = current[1][1]
            flank = tuple(current[2:])
            lhs, rhs = family_instance(ctx, family, x, y=y, left=flank)
        elif qpos == len(current) - 1:
            family = "tail_y"
            y = current[qpos - 1][1]
            flank = tuple(current[:qpos - 1])
            lhs, rhs = family_instance(ctx, family, x, y=y, left=flank)
        else:
            family = "mid_yy"
            y, y2 = current[qpos - 1][1], current[qpos + 1][1]
            fl = tuple(current[:qpos - 1])
            fr = tuple(current[qpos + 2:])
            lhs, rhs = family_instance(ctx, family, x, y=y, y2=y2,
                                       left=fl, right=fr)
        if lhs != before:
            raise ChainFailure(len(steps),
                               f"{family} instance does not match the word")
        if word_direct_image(ctx, lhs) != word_direct_image(ctx, rhs):
            raise ChainFailure(len(steps),
                               f"direct image changes across a {family} step")
        steps.append(RewriteStep(family, x, before, rhs))
        shift = len(before) - len(rhs)
        current = list(rhs.letters)
        current_xs = {i - shift if i > qpos else i: v
                      for i, v in current_xs.items()}
    final = Word(tuple(current))
    if len(final) != 1 or final.first_tag != Y_TAG:
        raise ChainFailure(len(steps), "chain did not end in a single Y-letter")
    result = final.letters[0][1]
    if result != word_direct_image(ctx, w):
        raise ChainFailure(len(steps),
                           "chain result differs from the direct image")
    return RewriteTrace(w, bound, tuple(steps), result)


@dataclass
class AdjunctionReport:
    maxlen: int
    counit_ok: bool
    cores: int = 0
    words_checked: int = 0
    failures: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    @property
    def ok(self):
        return self.counit_ok and not self.failures

    @property
    def traces_kept(self):
        return len(self.traces)

    def to_json(self, ctx=None):
        return {"maxlen": self.maxlen, "ok": self.ok, **REDUCTION,
                "counit_ok": self.counit_ok,
                "cores": self.cores,
                "words_checked": self.words_checked,
                "failures": self.failures[:20],
                "failure_count": len(self.failures),
                "traces": [t.to_json(ctx) for t in self.traces],
                "traces_kept": self.traces_kept}


def verify_adjunction_on_words(ctx, maxlen=4, max_traces=DEFAULT_TRACES):
    """Counit and word-level unit of the candidate adjunction.

    The counit is h(y) = y for every y.  The unit raises each Q-letter a
    of a word to p*(p_!(a)) and rewrites that bound to a single Y-letter
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
    counit_ok = all(
        word_direct_image(ctx, Word(((Y_TAG, y),))) == y for y in Y.elements)
    report = AdjunctionReport(maxlen, counit_ok)
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

@dataclass
class BeckChevalleyReport:
    checked: int
    failures: list

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {"checked": self.checked, "ok": self.ok,
                "failures": self.failures}


def verify_beck_chevalley(ctx):
    """Commutativity of the square of direct and inverse images.

    On the image of the second projection the candidate direct image must
    agree with f* composed after p_!; this is evaluated on every element
    of Q.
    """
    failures = []
    for a in ctx.Q.elements:
        lhs = word_direct_image(ctx, Word(((Q_TAG, a),)))
        rhs = ctx.f.star(ctx.p.shriek(a))
        if lhs != rhs:
            failures.append({"a": a, "lhs": ctx.Y.name_of(lhs),
                             "rhs": ctx.Y.name_of(rhs)})
    return BeckChevalleyReport(ctx.Q.size, failures)


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
