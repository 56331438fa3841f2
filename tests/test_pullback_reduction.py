"""The reduced pullback verifiers against the brute-force oracle.

The verifiers decide relation compatibility and the word-level
adjunction on cores by the flank lemma, the cores' Y-neighbours by the
Y-free corollary, and the Frobenius conditions by the Y-letter lemma;
the oracles in _helpers enumerate every flanked instance and word up to
maxlen, and sweep every core over its Y-neighbours.
"""

import itertools
import random

import pytest

from quantales import fileformats as ff
from quantales import freeprod
from quantales.cli import main
from quantales.examples import (cyclic_group, delta_embedding_map,
                                group_powerset_quantale, omega_support_map,
                                rel_quantale, standard_map_corpus,
                                symmetric_group_3,
                                z2_group_algebra_finite_map)
from quantales.freeprod import (CORE_PARAMETERS, FAMILIES, FAMILY_HYPOTHESIS,
                                NEIGHBOURS, UNIT_FAMILIES, Y_TAG,
                                PullbackContext, Word, all_words,
                                core_failure, family_instance,
                                verify_adjunction_on_words,
                                verify_beck_chevalley,
                                verify_pullback_frobenius,
                                verify_relation_compatibility)
from quantales.quantale import (InvalidQuantale, QuantaleMap, Undecidable,
                                identity_map)

from _helpers import (check_cores_swept, family_instance_oracle,
                      oracle_adjunction_ok, oracle_beck_chevalley_failures,
                      oracle_counit_failures, oracle_frobenius_failures,
                      oracle_relation_failures)

VERIFIERS = (verify_relation_compatibility, verify_adjunction_on_words,
             verify_pullback_frobenius)
CORPUS = standard_map_corpus(include_effective=False)


def _readme_square():
    pz2 = group_powerset_quantale(cyclic_group(2))
    return PullbackContext.build(omega_support_map(pz2),
                                 delta_embedding_map(2))


def _negative_control():
    p = z2_group_algebra_finite_map()
    return PullbackContext.build(p, identity_map(p.target), verify=False)


def _s3_base():
    return PullbackContext.build(
        omega_support_map(group_powerset_quantale(symmetric_group_3())),
        delta_embedding_map(2))


def _zero_direct_image():
    # a supplied direct image that is not the left adjoint of p*: the
    # base unit a <= p*(p_!(a)) fails for every nonbottom a
    p = omega_support_map(group_powerset_quantale(cyclic_group(2)))
    return PullbackContext.build(p.with_direct_image(lambda a: 0),
                                 identity_map(p.target), verify=False)


def _arbitrary_direct_image():
    # the README square with p_! replaced by a fixed table that is neither
    # monotone nor bottom-preserving: the Y-letter lemma holds for any p_!
    p = omega_support_map(group_powerset_quantale(cyclic_group(2)))
    return PullbackContext.build(p.with_direct_image((1, 0, 1, 0).__getitem__),
                                 delta_embedding_map(2), verify=False)


def _non_associative_context():
    # PZ2 with {e}.{e} changed to bottom: ({e}.{e}).{g} = 0 but
    # {e}.({e}.{g}) = {g}
    doc = ff.quantale_to_doc(group_powerset_quantale(cyclic_group(2)))
    next(t for t in doc["mult"] if t[:2] == [1, 1])[2] = 0
    bad = ff.quantale_from_doc(doc, validate=False)
    return PullbackContext(identity_map(bad), identity_map(bad))


# the corpus maps along the identity of their targets; the negative
# control of acceptance criterion 9 is the corpus's z2-algebra-fragment
CONTEXTS = {
    "readme": _readme_square,
    **{name: (lambda p=p: PullbackContext.build(p, identity_map(p.target),
                                                verify=False))
       for name, p in CORPUS},
    "zero-direct-image": _zero_direct_image,
    "arbitrary-direct-image": _arbitrary_direct_image,
}


def _letters(raw):
    return tuple(tuple(letter) for letter in raw)


@pytest.mark.parametrize("maxlen", [3, 4])
@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_relations_and_adjunction_agree_with_the_oracle(name, maxlen):
    ctx = CONTEXTS[name]()
    rc = verify_relation_compatibility(ctx, maxlen)
    oracle = oracle_relation_failures(ctx, maxlen)
    assert rc.ok == (not any(oracle.values()))
    assert {f for f, r in rc.families.items() if r.failures} == \
        {f for f, found in oracle.items() if found}
    for fam, res in rc.families.items():
        found = {(i.x, i.left_word.letters, i.right_word.letters)
                 for i in oracle[fam]}
        for failure in res.failures:
            inst = failure["instance"]
            assert (inst["x"], _letters(inst["left"]),
                    _letters(inst["right"])) in found
    # no rewrite traces: the verdict then rests on the cores alone
    adj = verify_adjunction_on_words(ctx, maxlen, max_traces=0)
    assert adj.words_checked == 0
    assert adj.ok == oracle_adjunction_ok(ctx, maxlen)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_pullback_frobenius_agrees_with_the_oracle(name):
    # the oracle's case shapes do not depend on maxlen, and its module
    # words up to length 4 include those up to length 3
    ctx = CONTEXTS[name]()
    pf = verify_pullback_frobenius(ctx, maxlen=3)
    assert pf.ok == (not oracle_frobenius_failures(ctx, maxlen=4))


def test_the_contexts_include_failures_of_relations_and_adjunction():
    for name in ("sierpinski-closed-point", "open-inclusion",
                 "z2-algebra-fragment"):
        assert not verify_relation_compatibility(CONTEXTS[name]()).ok
    zero = CONTEXTS["zero-direct-image"]()
    adj = verify_adjunction_on_words(zero, max_traces=0)
    assert not adj.ok
    assert {f["a"] for f in adj.failures if "a" in f} == \
        {a for a in zero.Q.elements if a != zero.Q.bottom}


@pytest.mark.parametrize("verifier", VERIFIERS)
@pytest.mark.parametrize("maxlen", [0, 2])
def test_maxlen_below_the_longest_core_is_rejected(verifier, maxlen):
    # at maxlen 2 the enumeration held no mid_qq instance, so the
    # negative control passed
    with pytest.raises(ValueError):
        verifier(_negative_control(), maxlen=maxlen)


@pytest.mark.parametrize("verifier", VERIFIERS)
def test_the_premise_rejects_a_non_associative_y(verifier):
    # a core no longer decides its flanked instances
    with pytest.raises(InvalidQuantale) as e:
        verifier(_non_associative_context())
    assert e.value.violation.law == "assoc"


def test_the_y_letter_lemma_needs_an_associative_y():
    # without the premise the Frobenius conditions do fail: the verifier
    # may not skip checking it
    failing = oracle_frobenius_failures(_non_associative_context(), maxlen=4)
    assert {"q.y.y", "right-action", "left-action"} <= failing


@pytest.mark.parametrize("verifier", VERIFIERS + (verify_beck_chevalley,))
def test_a_base_map_without_a_direct_image_is_undecidable(verifier):
    # h is undefined without p_!, so no verdict, not a vacuous pass
    ctx = _readme_square()
    bare = PullbackContext(ctx.p.with_direct_image(None), ctx.f)
    with pytest.raises(Undecidable):
        verifier(bare)


def test_maxlen_does_not_narrow_the_verdict():
    ctx = _negative_control()
    reports = [verify_relation_compatibility(ctx, maxlen=m) for m in (3, 40)]
    for rc in reports:
        assert not rc.ok
        assert rc.to_json()["scope"] == "all lengths"
        assert [f for f, r in rc.families.items() if r.failures] == \
            ["mid_qq"]
    assert reports[0].to_json() == reports[1].to_json()


def test_pullback_frobenius_records_the_deciding_shapes():
    pf = verify_pullback_frobenius(_readme_square())
    doc = pf.to_json()
    assert (doc["scope"], doc["reduction"]) == \
        ("all lengths", "Y-letter lemma")
    assert len(pf.cases) == 16 and pf.module_instances == 0
    assert all(stats == {"decided_by": "Y-letter lemma", "instances": 0}
               for stats in pf.cases.values())
    assert {case.count("|") for case in pf.cases} == {0, 1, 2}
    assert sum("|" not in case for case in pf.cases) == 4


def test_pullback_verify_on_the_s3_base_end_to_end(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["example", "omega-support", "--group", "s3",
                 "--out", out]) == 0
    assert main(["example", "delta-embedding", "--n", "2", "--out", out]) == 0
    report = tmp_path / "s3.json"
    assert main(["pullback-verify",
                 "--p", str(tmp_path / "omega-support-s3.map.json"),
                 "--f", str(tmp_path / "delta-embedding-2.map.json"),
                 "--report", str(report)]) == 0
    # the Y-free cores, 4|X| + 4|X||Q| + |X||Q|^2 with X = Omega and
    # Q = P(S3): no core fails, so no Y-neighbour is swept
    assert "8712 cores over 9 families, all lengths" in capsys.readouterr().out
    checks = {c["check"]: c for c in ff.load_json(report)["checks"]}
    assert {k: c["ok"] for k, c in checks.items()} == {
        "pullback-hypothesis": True, "relation-compatibility": True,
        "adjunction-on-words": True, "beck-chevalley": True,
        "pullback-frobenius": True}
    for name in ("relation-compatibility", "adjunction-on-words",
                 "pullback-frobenius"):
        assert checks[name]["scope"] == "all lengths"
    for name in ("relation-compatibility", "adjunction-on-words"):
        assert checks[name]["reduction"] == "flank lemma"
    assert checks["pullback-frobenius"]["reduction"] == "Y-letter lemma"
    assert main(["report-verify", str(report)]) == 0


def test_the_rel3_session_sweeps_no_y_neighbour(tmp_path):
    # the README square with Y = Rel(3), 512 elements: 4|X| + 4|X||Q| +
    # |X||Q|^2 = 72 Y-free relation cores and 4|p_!(Q)| = 8 unit cores,
    # where sweeping y and y2 evaluated 1,060,916 cores
    out = str(tmp_path)
    assert main(["example", "omega-support", "--group", "z2",
                 "--out", out]) == 0
    assert main(["example", "delta-embedding", "--n", "3", "--out", out]) == 0
    report = tmp_path / "rel3.json"
    assert main(["pullback-verify",
                 "--p", str(tmp_path / "omega-support-z2.map.json"),
                 "--f", str(tmp_path / "delta-embedding-3.map.json"),
                 "--report", str(report)]) == 0
    checks = {c["check"]: c for c in ff.load_json(report)["checks"]}
    assert all(c["ok"] for c in checks.values()) and len(checks) == 5
    assert checks["relation-compatibility"]["total_instances"] == 72
    assert checks["adjunction-on-words"]["cores"] == 8
    for name in ("relation-compatibility", "adjunction-on-words"):
        assert checks[name]["y_neighbours"] == "Y-free corollary"


# -- the Y-free corollary against the swept cores -------------------------------

def _agrees_with_the_sweep(ctx):
    """Both core verifiers give the failure records of the full sweep, in
    its order, and the counit and the Beck-Chevalley square, recorded as
    decided by the definition of h, fail nowhere under the oracles, for
    any p_! and f*; returns the relation report."""
    rc = verify_relation_compatibility(ctx)
    swept = check_cores_swept(ctx, FAMILIES, ctx.X.elements)
    assert list(rc.families) == list(swept)
    for fam, res in rc.families.items():
        assert res.failures == swept[fam].failures, fam
    adj = verify_adjunction_on_words(ctx, max_traces=0)
    xs = sorted({ctx.p.shriek(a) for a in ctx.Q.elements})
    unit = check_cores_swept(ctx, UNIT_FAMILIES, xs)
    assert [f for f in adj.failures if "instance" in f] == \
        [f for fam in UNIT_FAMILIES for f in unit[fam].failures]
    assert adj.to_json()["counit"] == \
        {"decided_by": "definition of h", "instances": 0}
    assert oracle_counit_failures(ctx) == []
    bc = verify_beck_chevalley(ctx).to_json()
    assert (bc["ok"], bc["checked"], bc["reduction"]) == \
        (True, 0, "definition of h")
    assert oracle_beck_chevalley_failures(ctx) == []
    return rc


def _held_at_bottom(ctx, rc):
    """The number of failing cores with Y-neighbours.  Each lies over a
    failing Y-free core, and holds with its Y-neighbours at bottom."""
    held = 0
    for fam, res in rc.families.items():
        if Y_TAG not in NEIGHBOURS[fam]:
            continue
        for failure in res.failures:
            params = {n: ctx.Y.bottom if n.startswith("y") else v
                      for n, v in failure["parameters"].items()}
            assert core_failure(ctx, fam, failure["instance"]["x"],
                                params) is None
            held += 1
    return held


def _rel2_identity():
    # Rel(2) along itself: p*(x) = x does not commute with every a, so the
    # order of each merge shows
    rel2 = rel_quantale(2)
    return PullbackContext(identity_map(rel2), identity_map(rel2))


# the contexts, the S3 base and a noncommutative Y whose letter images
# do not commute
DIFFERENTIAL = {**CONTEXTS, "s3-base": _s3_base,
                "rel2-identity": _rel2_identity}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_the_y_free_cores_give_the_failures_of_the_sweep(name):
    _agrees_with_the_sweep(DIFFERENTIAL[name]())


def test_the_core_counts_count_each_evaluated_core_once():
    # the negative control fails only mid_qq, whose cores have no
    # Y-neighbour and are their own Y-free cores: |X| (4 + 4|Q| + |Q|^2)
    ctx = _negative_control()
    nx, nq = ctx.X.size, ctx.Q.size
    assert verify_relation_compatibility(ctx).total_instances == \
        nx * (4 + 4 * nq + nq ** 2) == 256
    # with p_! = 0 the Y-free core of head_y, tail_y and mid_yy fails at
    # each of the |X| - 1 nonbottom x (bottom against f*(x) = x), and the
    # cores over it are swept: |X| + (|X| - 1) |Y|^k for k Y-neighbours
    ctx = CONTEXTS["zero-direct-image"]()
    nx, ny = ctx.X.size, ctx.Y.size
    families = verify_relation_compatibility(ctx).families
    for fam in ("head_y", "tail_y", "mid_yy"):
        k = len(CORE_PARAMETERS[fam])
        assert families[fam].instances == nx + (nx - 1) * ny ** k, fam


def _perturbed_f(ctx, rng):
    """ctx with one entry of f*'s table replaced by another element of Y,
    so f* need not be a homomorphism."""
    table = list(ctx.f.inverse_table())
    x = rng.randrange(len(table))
    table[x] = rng.choice([y for y in ctx.Y.elements if y != table[x]])
    f = QuantaleMap.from_table(ctx.Y, ctx.X, table, name="f~")
    return PullbackContext(ctx.p, f, ctx.report)


def _perturbed_p_shriek(ctx, rng):
    """ctx with one value of p_! replaced by another element of X."""
    table = [ctx.p.shriek(a) for a in ctx.Q.elements]
    a = rng.randrange(len(table))
    table[a] = rng.choice([x for x in ctx.X.elements if x != table[a]])
    return PullbackContext(ctx.p.with_direct_image(tuple(table).__getitem__),
                           ctx.f, ctx.report)


@pytest.mark.parametrize("perturb", [_perturbed_f, _perturbed_p_shriek])
def test_perturbed_squares_give_the_failures_of_the_sweep(perturb):
    rng = random.Random(14)
    held = failing = 0
    for name, make in sorted(DIFFERENTIAL.items()):
        if name == "s3-base":  # the dearest sweep
            continue
        ctx = make()
        if ctx.X.size < 2:
            continue
        for _ in range(6):
            mutant = perturb(ctx, rng)
            rc = _agrees_with_the_sweep(mutant)
            failing += not rc.ok
            held += _held_at_bottom(mutant, rc)
    # the perturbations fail cores, and among them Y-free cores over
    # which the sweep finds holding cores as well as failing ones
    assert failing > 20 and held > 20


# -- the facts decided by the definition of h -----------------------------------

def test_the_decided_records_evaluate_nothing(monkeypatch):
    # verify_beck_chevalley computes no h-value, and the adjunction
    # without traces builds no one-letter Y-word, where the loops they
    # replace evaluated |Q| and |Y| one-letter words
    ctx = _readme_square()
    calls, built = [], []
    evaluate = freeprod.word_direct_image

    def counted(c, w):
        calls.append(w)
        return evaluate(c, w)

    class CountedWord(Word):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(freeprod, "word_direct_image", counted)
    monkeypatch.setattr(freeprod, "Word", CountedWord)
    assert verify_beck_chevalley(ctx).ok and calls == []
    assert verify_adjunction_on_words(ctx, max_traces=0).ok
    assert not [w for w in built if len(w) == 1 and w.first_tag == Y_TAG]
    # the counters see what they count: a trace evaluates and builds words
    verify_adjunction_on_words(ctx, max_traces=1)
    assert calls and built


# -- the swap rule against the per-family oracle --------------------------------

def test_the_family_tables_derive_from_the_neighbours():
    # the tables as they were kept by hand, family by family
    assert FAMILIES == ("standalone", "head_q", "head_y", "tail_q", "tail_y",
                        "mid_qq", "mid_yq", "mid_qy", "mid_yy")
    assert FAMILY_HYPOTHESIS == {
        "standalone": "surjectivity", "head_q": "fr1",
        "head_y": "surjectivity", "tail_q": "fr1", "tail_y": "surjectivity",
        "mid_qq": "fr2", "mid_yq": "fr1", "mid_qy": "fr1",
        "mid_yy": "surjectivity"}
    assert CORE_PARAMETERS == {
        "standalone": (), "head_q": ("a",), "head_y": ("y",),
        "tail_q": ("a",), "tail_y": ("y",), "mid_qq": ("a", "a2"),
        "mid_yq": ("y", "a"), "mid_qy": ("a", "y"), "mid_yy": ("y", "y2")}
    assert UNIT_FAMILIES == ("standalone", "head_y", "tail_y", "mid_yy")
    assert sorted(NEIGHBOURS.values(), key=str) == sorted(
        itertools.product((None, "y", "q"), repeat=2), key=str)


def _cores(ctx, family):
    names = CORE_PARAMETERS[family]
    ranges = [ctx.Q.elements if n[0] == "a" else ctx.Y.elements
              for n in names]
    for x in ctx.X.elements:
        for values in itertools.product(*ranges):
            yield x, dict(zip(names, values))


def _outcome(build, *args, **kw):
    try:
        return build(*args, **kw)
    except ValueError:  # the flanks do not alternate with the core
        return "rejected"


@pytest.mark.parametrize("make", [_readme_square, _s3_base,
                                  _negative_control, _rel2_identity])
def test_family_instance_agrees_with_the_oracle_on_every_core(make):
    ctx = make()
    for family in FAMILIES:
        for x, kw in _cores(ctx, family):
            assert family_instance(ctx, family, x, **kw) == \
                family_instance_oracle(ctx, family, x, **kw)


def test_family_instance_agrees_with_the_oracle_on_flanks():
    # every flank of up to two letters on the README square, each flank
    # (pair) with the next core in turn; the oracle takes a head family's
    # trailing flank as `left`, and no flank for standalone
    ctx = _readme_square()
    flanks = [()] + [w.letters for w in all_words(ctx.Y, ctx.Q, 2)]
    shapes = {  # (our flanks, the oracle's flanks)
        "head": [(((), t), (t, ())) for t in flanks],
        "tail": [((t, ()), (t, ())) for t in flanks],
        "mid": [(pair, pair) for pair in itertools.product(flanks, repeat=2)]}
    compared = 0
    for family in FAMILIES[1:]:
        cores = itertools.cycle(list(_cores(ctx, family)))
        pairs = shapes[family.split("_")[0]]
        for ((l1, r1), (l2, r2)), (x, kw) in zip(pairs, cores):
            got = _outcome(family_instance, ctx, family, x, left=l1,
                           right=r1, **kw)
            assert got == _outcome(family_instance_oracle, ctx, family, x,
                                   left=l2, right=r2, **kw), \
                (family, x, kw, l1, r1)
            compared += got != "rejected"
        if family.startswith("head"):  # nothing precedes a head core
            x, kw = next(cores)
            assert _outcome(family_instance, ctx, family, x,
                            left=flanks[1], **kw) == "rejected"
    assert compared > 10000
