import pytest
from hypothesis import given, settings, strategies as st

from quantales.examples import (cyclic_group, delta_embedding_map,
                                group_powerset_quantale, omega_quantale,
                                omega_support_map, rel_quantale,
                                z2_group_algebra_finite_map)
from quantales.freeprod import (DEFAULT_TRACES, FAMILIES, FAMILY_HYPOTHESIS,
                                HypothesisNotSatisfied, PullbackContext,
                                Word, family_instance, grade_of,
                                verify_adjunction_on_words,
                                verify_beck_chevalley,
                                verify_pullback_frobenius,
                                verify_relation_compatibility, word,
                                word_direct_image, word_involution,
                                word_multiply)
from quantales.quantale import identity_map

from _helpers import oracle_relation_failures, pullback_relation_instances

Y = rel_quantale(2)
Q = group_powerset_quantale(cyclic_group(2))


def ctx_small():
    return PullbackContext.build(omega_support_map(Q), delta_embedding_map(2))


@pytest.fixture(scope="module")
def ctx():
    return ctx_small()


def test_grades_of_short_words():
    assert grade_of(word(("y", 1))).n == 1
    assert grade_of(word(("q", 1))).n == 2
    assert grade_of(word(("y", 1), ("q", 1))).n == 3
    assert grade_of(word(("q", 1), ("y", 1))).n == 4
    assert grade_of(word(("y", 1), ("q", 1), ("y", 2))).n == 5
    assert grade_of(word(("q", 1), ("y", 1), ("q", 2))).n == 6


def test_grade_patterns_invert_grade_of():
    # each alternating letter pattern up to length 10 has its own grade,
    # and together they fill grades 1 to 20
    grades = []
    for length in range(1, 11):
        for start, other in (("y", "q"), ("q", "y")):
            w = Word(tuple((start if i % 2 == 0 else other, 1)
                           for i in range(length)))
            grades.append(grade_of(w).n)
    assert sorted(grades) == list(range(1, 21))


def test_word_rejects_nonalternating_sequences():
    with pytest.raises(ValueError):
        word(("y", 1), ("y", 2))
    with pytest.raises(ValueError):
        Word(())


def test_multiplication_concatenates_across_tags():
    # a grade-5 word times a grade-6 word concatenates into grade 11
    w1 = word(("y", 3), ("q", 1), ("y", 5))
    w2 = word(("q", 2), ("y", 7), ("q", 3))
    prod = word_multiply(Y, Q, w1, w2)
    assert prod.letters == (("y", 3), ("q", 1), ("y", 5),
                            ("q", 2), ("y", 7), ("q", 3))
    assert grade_of(prod).n == 11


def test_multiplication_merges_the_boundary():
    # two grade-5 words merge their inner letters into grade 9
    w1 = word(("y", 3), ("q", 1), ("y", 5))
    w2 = word(("y", 2), ("q", 2), ("y", 6))
    prod = word_multiply(Y, Q, w1, w2)
    assert prod.letters == (("y", 3), ("q", 1), ("y", Y.mult(5, 2)),
                            ("q", 2), ("y", 6))
    assert grade_of(prod).n == 9


def test_single_letter_merge():
    assert word_multiply(Y, Q, word(("y", 3)), word(("y", 5))).letters == \
        (("y", Y.mult(3, 5)),)


def test_involution_reverses_and_stars():
    w = word(("q", 1), ("y", 2))
    assert word_involution(Y, Q, w).letters == (("y", Y.inv(2)),
                                                ("q", Q.inv(1)))


def _word_strategy():
    def build(start, seed):
        letters = []
        tag = "y" if start else "q"
        for s in seed:
            letters.append((tag, s % (Y.size if tag == "y" else Q.size)))
            tag = "q" if tag == "y" else "y"
        return Word(tuple(letters))
    return st.builds(build, st.booleans(),
                     st.lists(st.integers(0, 63), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_word_strategy())
def test_involution_is_self_inverse(w):
    assert word_involution(Y, Q, word_involution(Y, Q, w)) == w


@settings(max_examples=150, deadline=None)
@given(_word_strategy(), _word_strategy())
def test_involution_is_antimultiplicative(w1, w2):
    lhs = word_involution(Y, Q, word_multiply(Y, Q, w1, w2))
    rhs = word_multiply(Y, Q, word_involution(Y, Q, w2),
                        word_involution(Y, Q, w1))
    assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(_word_strategy(), _word_strategy(), _word_strategy())
def test_multiplication_is_associative(w1, w2, w3):
    lhs = word_multiply(Y, Q, word_multiply(Y, Q, w1, w2), w3)
    rhs = word_multiply(Y, Q, w1, word_multiply(Y, Q, w2, w3))
    assert lhs == rhs


def test_bottom_letters_vanish(ctx):
    # a bottom letter anywhere sends the whole word to bottom under h
    for w in (word(("y", 0)), word(("q", 0)), word(("y", 3), ("q", 0)),
              word(("q", 2), ("y", 0), ("q", 3))):
        assert word_direct_image(ctx, w) == ctx.Y.bottom


def test_relation_instance_shapes(ctx):
    lhs, rhs = family_instance(ctx, "standalone", 1)
    assert lhs == Word((("q", ctx.p.star(1)),))
    assert rhs == Word((("y", ctx.f.star(1)),))
    lhs, rhs = family_instance(ctx, "head_q", 1, a=2)
    assert lhs == Word((("q", ctx.Q.mult(ctx.p.star(1), 2)),))
    assert rhs == Word((("y", ctx.f.star(1)), ("q", 2)))
    lhs, rhs = family_instance(ctx, "mid_yy", 1, y=3, y2=5)
    assert lhs == Word((("y", 3), ("q", ctx.p.star(1)), ("y", 5)))
    assert rhs == Word((("y", ctx.Y.mult(ctx.Y.mult(3, ctx.f.star(1)), 5)),))


def test_instances_cover_all_nine_families(ctx):
    instances = pullback_relation_instances(ctx, maxlen=4)
    seen = {i.family for i in instances}
    assert seen == set(FAMILIES)
    for i in instances:
        assert len(i.left_word) <= 4 and len(i.right_word) <= 4
        assert i.hypothesis == FAMILY_HYPOTHESIS[i.family]


def test_direct_image_of_words(ctx):
    # single letters
    for y in ctx.Y.elements:
        assert word_direct_image(ctx, Word((("y", y),))) == y
    for a in ctx.Q.elements:
        assert word_direct_image(ctx, Word((("q", a),))) == \
            ctx.f.star(ctx.p.shriek(a))
    # a nonbottom group subset becomes the identity relation, which drops out
    for y in ctx.Y.elements:
        assert word_direct_image(ctx, Word((("q", 2), ("y", y)))) == y
    assert word_direct_image(ctx, Word((("q", 0), ("y", 5)))) == 0


def test_relation_compatibility_passes(ctx):
    report = verify_relation_compatibility(ctx, maxlen=4)
    assert report.ok
    for fam, res in report.families.items():
        assert res.instances > 0, fam


def test_relation_compatibility_with_longer_flanks():
    # a tighter base square over tiny carriers affords the oracle at
    # maxlen 5, which exercises the two-flank shapes of the between-letters
    # families that the cores decide
    om = omega_quantale()
    p = omega_support_map(om)
    ctx = PullbackContext.build(p, identity_map(om))
    report = verify_relation_compatibility(ctx, maxlen=5)
    assert report.ok
    mid_qq = report.families["mid_qq"]
    assert mid_qq.instances > 0
    flanked = [i for i in pullback_relation_instances(ctx, maxlen=5)
               if i.family == "mid_qq" and len(i.right_word) == 5]
    assert flanked
    assert not any(oracle_relation_failures(ctx, maxlen=5).values())


def test_adjunction_on_words(ctx):
    report = verify_adjunction_on_words(ctx, maxlen=4, max_traces=None)
    assert report.ok and report.counit_ok
    assert report.words_checked == report.traces_kept == 9620
    by_family = {s.family for t in report.traces for s in t.steps}
    assert by_family <= {"standalone", "head_y", "tail_y", "mid_yy"}
    # the worked two-letter example: ({g}, y) raises to ({e,g}, y) and
    # rewrites through the head family to the single letter y
    target = Word((("q", 2), ("y", 5)))
    trace = next(t for t in report.traces if t.word == target)
    assert trace.bound == Word((("q", 3), ("y", 5)))
    assert len(trace.steps) == 1 and trace.steps[0].family == "head_y"
    assert trace.result == 5


def test_adjunction_records_the_default_number_of_traces(ctx):
    # the verdict rests on the cores, so the default bound on recorded
    # traces leaves it as the full enumeration of 9,620 words gives it
    full = verify_adjunction_on_words(ctx, maxlen=4, max_traces=None)
    default = verify_adjunction_on_words(ctx, maxlen=4)
    assert default.traces_kept == default.words_checked == DEFAULT_TRACES
    assert DEFAULT_TRACES == 25
    assert (default.ok, default.counit_ok, default.cores, default.failures) \
        == (full.ok, full.counit_ok, full.cores, full.failures)


def test_beck_chevalley(ctx):
    assert verify_beck_chevalley(ctx).ok
    # trivial base change: the direct image collapses onto p_!
    trivial = PullbackContext.build(ctx.p, identity_map(ctx.X))
    assert verify_beck_chevalley(trivial).ok
    for a in trivial.Q.elements:
        assert word_direct_image(trivial, Word((("q", a),))) == \
            trivial.p.shriek(a)
    assert word_direct_image(ctx, Word((("q", 0),))) == ctx.Y.bottom


def test_pullback_frobenius_cases(ctx):
    report = verify_pullback_frobenius(ctx, maxlen=3)
    assert report.ok
    assert len(report.cases) == 16
    assert all(v["instances"] == 0 for v in report.cases.values())
    # spot values: h((a) pi1*(y)) = f*(p_!(a)) y and h((y)(y')) = y y'
    a, y = 1, 6
    lhs = word_direct_image(
        ctx, word_multiply(ctx.Y, ctx.Q, Word((("q", a),)),
                           Word((("y", y),))))
    assert lhs == ctx.Y.mult(ctx.f.star(ctx.p.shriek(a)), y)
    yy = word_direct_image(
        ctx, word_multiply(ctx.Y, ctx.Q, Word((("y", 3),)),
                           Word((("y", y),))))
    assert yy == ctx.Y.mult(3, y)


def test_negative_control_fails_at_the_two_sided_family():
    p = z2_group_algebra_finite_map()
    f = identity_map(p.target)
    with pytest.raises(HypothesisNotSatisfied):
        PullbackContext.build(p, f)
    ctx = PullbackContext.build(p, f, verify=False)
    report = verify_relation_compatibility(ctx, maxlen=4)
    assert not report.ok
    failing = {fam for fam, res in report.families.items() if res.failures}
    assert "mid_qq" in failing
    assert failing <= {"mid_qq"}
    assert FAMILY_HYPOTHESIS["mid_qq"] == "fr2"
