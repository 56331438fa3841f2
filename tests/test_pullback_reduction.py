"""The reduced pullback verifiers against the brute-force oracle.

The verifiers decide relation compatibility and the word-level
adjunction on cores by the flank lemma, and the Frobenius conditions by
the Y-letter lemma; the oracle in _helpers enumerates every flanked
instance and word up to maxlen.
"""

import pytest

from quantales import fileformats as ff
from quantales.cli import main
from quantales.examples import (cyclic_group, delta_embedding_map,
                                group_powerset_quantale, omega_support_map,
                                standard_map_corpus,
                                z2_group_algebra_finite_map)
from quantales.freeprod import (PullbackContext, verify_adjunction_on_words,
                                verify_pullback_frobenius,
                                verify_relation_compatibility)
from quantales.quantale import InvalidQuantale, Undecidable, identity_map

from _helpers import (oracle_adjunction_ok, oracle_frobenius_failures,
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


@pytest.mark.parametrize("verifier", VERIFIERS)
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
    assert "13122 cores over 9 families, all lengths" in capsys.readouterr().out
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
