"""The free product of two involutive quantales as a graded word algebra.

Elements of the free product of Y and Q live in a direct sum of tensor
grades indexed by alternating letter patterns: grade 1 is Y itself, grade
2 is Q, and in general a grade is determined by the first letter's tag,
the last letter's tag and the word length.  Multiplication concatenates
words, merging the boundary letters through the multiplication of Y or Q
when their tags coincide; the involution reverses a word and applies the
letterwise involutions.  The truncation keeps grades up to a cut-off N as
actual tensor carriers; products that would leave the truncation are a
hard error rather than being absorbed anywhere, since absorption would
wreck associativity at the boundary.

On top of the word algebra sits the pullback machinery for a square with
a base map p: Q -> X (a semiopen surjection satisfying both Frobenius
conditions) and an arbitrary map f: Y -> X.  The pullback is presented by
nine families of relation instances on words.  The candidate direct image
of the first projection replaces every Q-letter a by f*(p_!(a)) and
multiplies the result out in Y; the verifiers check, instance by instance,
that this map respects all nine families, that it is left adjoint to the
first projection on words (with explicit rewrite traces), that it
satisfies both Frobenius conditions in all sixteen word shapes, and that
the resulting square of direct and inverse images commutes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .openness import frobenius_report
from .tensor import TensorLattice

Y_TAG = "y"
Q_TAG = "q"


class TruncationOverflow(RuntimeError):
    def __init__(self, grade, truncation, grades=None):
        self.grade = grade
        self.grades = grades
        super().__init__(
            f"grade {grade} exceeds the truncation {truncation}"
            + (f" (product of grades {grades})" if grades else ""))


class ChainFailure(RuntimeError):
    def __init__(self, step, detail):
        self.step = step
        self.detail = detail
        super().__init__(f"adjunction chain fails at step {step}: {detail}")


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


def grade_pattern(n):
    """The alternating tag sequence of words in grade n."""
    k, r = divmod(n - 1, 4)
    if r == 0:
        length, start = 2 * k + 1, Y_TAG
    elif r == 1:
        length, start = 2 * k + 1, Q_TAG
    elif r == 2:
        length, start = 2 * k + 2, Y_TAG
    else:
        length, start = 2 * k + 2, Q_TAG
    other = Q_TAG if start == Y_TAG else Y_TAG
    return tuple(start if i % 2 == 0 else other for i in range(length))


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


def words_shaped(Y, Q, max_len, start=None, end=None, allow_empty=False):
    """Words filtered by boundary tags; optionally include the empty flank."""
    if allow_empty:
        yield ()
    for w in all_words(Y, Q, max_len):
        if start is not None and w.first_tag != start:
            continue
        if end is not None and w.last_tag != end:
            continue
        yield w.letters


@dataclass(frozen=True)
class GradedElement:
    """An element of the truncated free product, one component per grade.

    Components are held as generating sets of words (pure tensors); joins
    union the generators.  Comparisons that need more than generators are
    done through materialized tensor components, grade by grade.
    """
    components: tuple  # sorted tuple of (grade, frozenset-of-words)

    @staticmethod
    def of(parts):
        comps = tuple(sorted((g, frozenset(ws)) for g, ws in parts.items()
                             if ws))
        return GradedElement(comps)

    def as_dict(self):
        return dict(self.components)

    @property
    def grades(self):
        return tuple(g for g, _ in self.components)

    def is_bottom(self):
        return not self.components


class TruncatedFreeProduct:
    """Word arithmetic for the free product of Y and Q, truncated at grade N."""

    def __init__(self, Y, Q, truncation=8, tensor_bound=4096):
        self.Y = Y
        self.Q = Q
        self.truncation = truncation
        self.tensor_bound = tensor_bound
        self._grade_lattices = {}

    # -- plain word algebra -------------------------------------------------

    def multiply_words(self, w1, w2):
        return word_multiply(self.Y, self.Q, w1, w2)

    def involute_word(self, w):
        return word_involution(self.Y, self.Q, w)

    def word_is_bottom(self, w):
        for t, e in w.letters:
            alg = self.Y if t == Y_TAG else self.Q
            if e == alg.bottom:
                return True
        return False

    def word_leq(self, w1, w2):
        """Order between the pure tensors of two words."""
        if self.word_is_bottom(w1):
            return True
        if grade_of(w1).n != grade_of(w2).n:
            return False
        for (t1, e1), (t2, e2) in zip(w1.letters, w2.letters):
            alg = self.Y if t1 == Y_TAG else self.Q
            if not alg.leq(e1, e2):
                return False
        return True

    # -- graded elements ----------------------------------------------------

    def embed(self, w):
        g = grade_of(w).n
        if g > self.truncation:
            raise TruncationOverflow(g, self.truncation)
        if self.word_is_bottom(w):
            return GradedElement.of({})
        return GradedElement.of({g: {w}})

    def bottom_element(self):
        return GradedElement.of({})

    def graded_join(self, elements):
        out = {}
        for ge in elements:
            for g, ws in ge.components:
                out.setdefault(g, set()).update(ws)
        return GradedElement.of(self._prune(out))

    def _prune(self, comps):
        # dropping a generator below another one leaves the generated
        # bi-ideal unchanged; distinct words cannot dominate each other
        # both ways (the letterwise order is antisymmetric)
        pruned = {}
        for g, ws in comps.items():
            ws = {w for w in ws if not self.word_is_bottom(w)}
            pruned[g] = {w for w in ws
                         if not any(v != w and self.word_leq(w, v) for v in ws)}
        return pruned

    def graded_multiply(self, ge1, ge2):
        out = {}
        for (g1, ws1), (g2, ws2) in itertools.product(ge1.components,
                                                      ge2.components):
            for w1, w2 in itertools.product(ws1, ws2):
                prod = self.multiply_words(w1, w2)
                g = grade_of(prod).n
                if g > self.truncation:
                    raise TruncationOverflow(g, self.truncation, (g1, g2))
                if not self.word_is_bottom(prod):
                    out.setdefault(g, set()).add(prod)
        return GradedElement.of(self._prune(out))

    def graded_involution(self, ge):
        out = {}
        for g, ws in ge.components:
            for w in ws:
                wi = self.involute_word(w)
                out.setdefault(grade_of(wi).n, set()).add(wi)
        return GradedElement.of(out)

    # -- materialized tensor components --------------------------------------

    def grade_lattice(self, n):
        if n not in self._grade_lattices:
            pattern = grade_pattern(n)
            factors = tuple((self.Y if t == Y_TAG else self.Q).carrier
                            for t in pattern)
            self._grade_lattices[n] = TensorLattice(factors,
                                                    bound=self.tensor_bound)
        return self._grade_lattices[n]

    def component_ideal(self, ge, n):
        """The bi-ideal generated by the grade-n generators of the element."""
        T = self.grade_lattice(n)
        gens = dict(ge.components).get(n, frozenset())
        tuples = [tuple(e for _, e in w.letters) for w in gens]
        return T.close(tuples)

    def same_element(self, ge1, ge2):
        """Semantic equality, materializing each involved grade."""
        grades = set(ge1.grades) | set(ge2.grades)
        for n in grades:
            if self.component_ideal(ge1, n) != self.component_ideal(ge2, n):
                return False
        return True

    def element_leq(self, ge1, ge2):
        grades = set(ge1.grades) | set(ge2.grades)
        return all(
            self.component_ideal(ge1, n).leq(self.component_ideal(ge2, n))
            for n in grades)

    # -- projections ----------------------------------------------------------

    def projections(self):
        """The product projections, as inverse-image embeddings of Y and Q."""
        from .quantale import QuantaleMap
        pi1 = QuantaleMap(self, self.Y,
                          lambda y: self.embed(word((Y_TAG, y))),
                          name="first-projection")
        pi2 = QuantaleMap(self, self.Q,
                          lambda a: self.embed(word((Q_TAG, a))),
                          name="second-projection")
        return pi1, pi2


def pairing_map(f, g):
    """The pairing of maps f: R -> Y and g: R -> Q against the free product.

    Returns an evaluator sending a word (or graded element) to the
    alternating product of f*(y) and g*(a) over its letters, extended to
    graded elements by joins over their generators.
    """
    R = f.source

    def eval_word(w):
        out = None
        for t, e in w.letters:
            val = f.star(e) if t == Y_TAG else g.star(e)
            out = val if out is None else R.mult(out, val)
        return out

    def evaluate(x):
        if isinstance(x, Word):
            return eval_word(x)
        return R.join(eval_word(w) for _, ws in x.components for w in ws)

    return evaluate


# -- pullback contexts ---------------------------------------------------------

@dataclass(frozen=True)
class PullbackContext:
    """A base square: p: Q -> X certified, f: Y -> X arbitrary."""
    p: object
    f: object
    truncation: int = 8
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

    def words(self):
        return TruncatedFreeProduct(self.Y, self.Q, self.truncation)

    @staticmethod
    def build(p, f, truncation=8, verify=True):
        if f.target != p.target:
            raise ValueError("p and f must share their target")
        report = frobenius_report(p)
        if verify and not report.hypothesis_for_pullback:
            raise HypothesisNotSatisfied(report)
        if report.semiopen.ok and p.direct_image is None:
            from .quantale import ensure_left_adjoint
            p = ensure_left_adjoint(p)
        return PullbackContext(p, f, truncation, report)


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


def family_instance(ctx, family, x, a=None, a2=None, y=None, y2=None,
                    left=(), right=()):
    """One generated relation pair (left word, right word).

    Shapes, with x^ = p*(x) and fx = f*(x), t/t' the optional flanks:
      standalone:  (x^)                ~ (fx)
      head_q:      (x^ a | t)          ~ (fx | a | t)
      head_y:      (x^ | y | t)        ~ (fx.y | t)
      tail_q:      (t | a x^)          ~ (t | a | fx)
      tail_y:      (t | y x^ ... )     actually (t | y | x^) ~ (t | y.fx)
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

    def graded(self, tfp):
        """Both sides as graded elements of the truncated free product."""
        return tfp.embed(self.left_word), tfp.embed(self.right_word)

    def to_json(self, ctx=None):
        out = {"family": self.family, "hypothesis": self.hypothesis,
               "x": self.x,
               "left": list(self.left_word.letters),
               "right": list(self.right_word.letters)}
        if ctx is not None:
            out["left_display"] = self.left_word.display(ctx.Y, ctx.Q)
            out["right_display"] = self.right_word.display(ctx.Y, ctx.Q)
        return out


def pullback_relation_instances(ctx, maxlen=4):
    """All instances of the nine families with both sides within the budget.

    The flanks range over every alternating word of the appropriate
    boundary tags (plus the empty flank); an instance is kept when both of
    its sides fit in maxlen letters, which also keeps both sides within
    grade 2*maxlen, hence inside the truncation.
    """
    if 2 * maxlen > ctx.truncation:
        raise ValueError(
            f"maxlen {maxlen} would enumerate instances beyond grade "
            f"{ctx.truncation}; raise the truncation")
    Y, Q, X = ctx.Y, ctx.Q, ctx.X
    out = []

    def emit(family, x, **kw):
        lhs, rhs = family_instance(ctx, family, x, **kw)
        if len(lhs) <= maxlen and len(rhs) <= maxlen:
            out.append(Instance(family, FAMILY_HYPOTHESIS[family], x,
                                lhs, rhs))

    ys = range(Y.size)
    qs = range(Q.size)

    def flank_pairs(budget, end_tag, start_tag):
        # total flank letters bounded by the longer side's slack
        for t in words_shaped(Y, Q, budget, end=end_tag, allow_empty=True):
            rest = budget - len(t)
            for t2 in words_shaped(Y, Q, rest, start=start_tag,
                                   allow_empty=True):
                yield t, t2

    for x in X.elements:
        emit("standalone", x)
        for t in words_shaped(Y, Q, maxlen - 2, start=Y_TAG, allow_empty=True):
            for a in qs:
                emit("head_q", x, a=a, left=t)
        for t in words_shaped(Y, Q, maxlen - 2, start=Q_TAG, allow_empty=True):
            for y in ys:
                emit("head_y", x, y=y, left=t)
        for t in words_shaped(Y, Q, maxlen - 2, end=Y_TAG, allow_empty=True):
            for a in qs:
                emit("tail_q", x, a=a, left=t)
        for t in words_shaped(Y, Q, maxlen - 2, end=Q_TAG, allow_empty=True):
            for y in ys:
                emit("tail_y", x, y=y, left=t)
        for t, t2 in flank_pairs(maxlen - 3, Y_TAG, Y_TAG):
            for a in qs:
                for a2 in qs:
                    emit("mid_qq", x, a=a, a2=a2, left=t, right=t2)
        for t, t2 in flank_pairs(maxlen - 2, Q_TAG, Y_TAG):
            for y in ys:
                for a in qs:
                    emit("mid_yq", x, y=y, a=a, left=t, right=t2)
        for t, t2 in flank_pairs(maxlen - 2, Y_TAG, Q_TAG):
            for a in qs:
                for y in ys:
                    emit("mid_qy", x, a=a, y=y, left=t, right=t2)
        for t, t2 in flank_pairs(maxlen - 3, Q_TAG, Q_TAG):
            for y in ys:
                for y2 in ys:
                    emit("mid_yy", x, y=y, y2=y2, left=t, right=t2)
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


@dataclass
class RelationCompatibilityReport:
    """Per-family outcome of checking the direct-image candidate against
    every enumerated relation instance."""
    maxlen: int
    families: dict

    @property
    def ok(self):
        return all(r.ok for r in self.families.values())

    @property
    def total_instances(self):
        return sum(r.instances for r in self.families.values())

    def to_json(self):
        return {"maxlen": self.maxlen, "ok": self.ok,
                "total_instances": self.total_instances,
                "families": {k: v.to_json() for k, v in
                             sorted(self.families.items())}}


def verify_relation_compatibility(ctx, maxlen=4):
    """h(left) = h(right) for every relation instance, family by family."""
    families = {fam: FamilyResult(fam, FAMILY_HYPOTHESIS[fam])
                for fam in FAMILIES}
    for inst in pullback_relation_instances(ctx, maxlen):
        res = families[inst.family]
        res.instances += 1
        hl = word_direct_image(ctx, inst.left_word)
        hr = word_direct_image(ctx, inst.right_word)
        if hl != hr:
            if word_direct_image(ctx, inst.left_word) == \
                    word_direct_image(ctx, inst.right_word):
                raise RuntimeError(f"{inst.family} failure does not reproduce")
            res.failures.append({
                "instance": inst.to_json(ctx),
                "h_left": ctx.Y.name_of(hl),
                "h_right": ctx.Y.name_of(hr),
            })
    return RelationCompatibilityReport(maxlen, families)


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
    words_checked: int = 0
    failures: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    traces_kept: int = 0

    @property
    def ok(self):
        return self.counit_ok and not self.failures

    def to_json(self, ctx=None):
        return {"maxlen": self.maxlen, "ok": self.ok,
                "counit_ok": self.counit_ok,
                "words_checked": self.words_checked,
                "failures": self.failures[:20],
                "failure_count": len(self.failures),
                "traces": [t.to_json(ctx) for t in self.traces],
                "traces_kept": self.traces_kept}


def verify_adjunction_on_words(ctx, maxlen=4, max_traces=None):
    """Counit and word-level unit of the candidate adjunction.

    The counit is h(y) = y for every y.  The unit raises each word below a
    word of p*-letters and rewrites that bound to a single Y-letter through
    relation instances; the rewrite traces are returned (all of them by
    default, the first max_traces otherwise).  Scope note: the unit is
    checked on words, the join-generators of the quotient, not on arbitrary
    joins of them.
    """
    Y, Q = ctx.Y, ctx.Q
    counit_ok = all(
        word_direct_image(ctx, Word(((Y_TAG, y),))) == y for y in Y.elements)
    report = AdjunctionReport(maxlen, counit_ok)
    for w in all_words(Y, Q, maxlen):
        report.words_checked += 1
        try:
            trace = _unit_chain(ctx, w)
        except ChainFailure as e:
            report.failures.append({
                "word": list(w.letters),
                "word_display": w.display(Y, Q),
                "step": e.step,
                "detail": e.detail,
            })
            continue
        report.traces_kept += 1
        if max_traces is None or len(report.traces) < max_traces:
            report.traces.append(trace)
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

@dataclass
class PullbackFrobeniusReport:
    maxlen: int
    module_instances: int = 0
    module_failures: list = field(default_factory=list)
    cases: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.module_failures and all(
            not v["failures"] for v in self.cases.values())

    def to_json(self):
        return {"maxlen": self.maxlen, "ok": self.ok,
                "module_instances": self.module_instances,
                "module_failure_count": len(self.module_failures),
                "module_failures": self.module_failures[:20],
                "cases": self.cases}


def verify_pullback_frobenius(ctx, maxlen=4, flank_budget=1):
    """Frobenius conditions of the first projection, on words.

    The one-sided condition checks h(w . pi1*(y)) = h(w) y and its mirror
    for every word within the budget.  The two-sided condition runs the
    sixteen case shapes [t |] z . pi1*(y) . z' [| t'] with z, z' a single
    Y- or Q-letter and each flank absent or present (flank words up to
    flank_budget letters of the matching boundary tag).
    """
    Y, Q = ctx.Y, ctx.Q
    tfp = ctx.words()
    report = PullbackFrobeniusReport(maxlen)

    def h(w):
        return word_direct_image(ctx, w)

    for w in all_words(Y, Q, maxlen):
        hw = h(w)
        for y in Y.elements:
            report.module_instances += 2
            yw = Word(((Y_TAG, y),))
            left = h(tfp.multiply_words(w, yw))
            if left != Y.mult(hw, y):
                report.module_failures.append(
                    {"side": "right-action", "word": list(w.letters), "y": y})
            right = h(tfp.multiply_words(yw, w))
            if right != Y.mult(y, hw):
                report.module_failures.append(
                    {"side": "left-action", "word": list(w.letters), "y": y})

    def letters_of(tag):
        alg = Y if tag == Y_TAG else Q
        return [(tag, e) for e in alg.elements]

    for lflank in (False, True):
        for ztag in (Y_TAG, Q_TAG):
            for z2tag in (Y_TAG, Q_TAG):
                for rflank in (False, True):
                    case = (f"{'t|' if lflank else ''}{ztag}.y.{z2tag}"
                            f"{'|t' if rflank else ''}")
                    stats = {"instances": 0, "failures": []}
                    report.cases[case] = stats
                    lefts = [()] if not lflank else list(
                        words_shaped(Y, Q, flank_budget,
                                     end=Q_TAG if ztag == Y_TAG else Y_TAG))
                    rights = [()] if not rflank else list(
                        words_shaped(Y, Q, flank_budget,
                                     start=Q_TAG if z2tag == Y_TAG else Y_TAG))
                    for lf in lefts:
                        for z in letters_of(ztag):
                            alpha = Word(lf + (z,))
                            ha = h(alpha)
                            for rf in rights:
                                for z2 in letters_of(z2tag):
                                    beta = Word((z2,) + rf)
                                    hb = h(beta)
                                    for y in Y.elements:
                                        stats["instances"] += 1
                                        prod = tfp.multiply_words(
                                            tfp.multiply_words(
                                                alpha, Word(((Y_TAG, y),))),
                                            beta)
                                        lhs = h(prod)
                                        rhs = Y.mult(Y.mult(ha, y), hb)
                                        if lhs != rhs:
                                            stats["failures"].append({
                                                "alpha": list(alpha.letters),
                                                "y": y,
                                                "beta": list(beta.letters),
                                                "lhs": Y.name_of(lhs),
                                                "rhs": Y.name_of(rhs),
                                            })
    return report
