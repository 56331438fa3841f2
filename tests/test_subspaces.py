"""The integer kernel of the subspace quantales against Fraction oracles.

`subspaces.rref`, `MaxAlgebraQuantale.mult` and the support maps' p*
reduce integer rows; `_helpers.rref_oracle` and `_helpers.mult_oracle`
eliminate in Fractions.  The handles must be the same, entry for entry.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from _helpers import (group_algebra_handles, map_battery_swept,
                      matrix_max_handles, mult_oracle, probe_elements,
                      probe_pools, rref_oracle, tabulated)
from quantales import fileformats as ff
from quantales.cli import main
from quantales.examples import (cyclic_group, group_algebra_quantale,
                                group_algebra_support_map,
                                matrix_max_quantale, matrix_support_map,
                                symmetric_group_3)
from quantales.subspaces import RationalSubspace, rref


def _entry(rng):
    kind = rng.random()
    if kind < 0.3:
        return 0
    if kind < 0.6:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-20, 20), rng.randint(1, 12))


def _vectors(rng, dim):
    """Fresh, zero, duplicate and dependent vectors, at times more than dim."""
    vectors = []
    for _ in range(rng.randint(0, dim + 4)):
        kind = rng.random()
        if kind < 0.1:
            vectors.append([0] * dim)
        elif kind < 0.2 and vectors:
            vectors.append(list(rng.choice(vectors)))
        elif kind < 0.35 and len(vectors) >= 2:
            u, v = rng.sample(vectors, 2)
            s, t = _entry(rng), rng.randint(-3, 3)
            vectors.append([s * a + t * b for a, b in zip(u, v)])
        else:
            vectors.append([_entry(rng) for _ in range(dim)])
    return vectors


def test_rref_agrees_with_the_fraction_oracle():
    rng = random.Random(2024)
    full = 0
    for _ in range(5000):
        dim = rng.randint(1, 9)
        vectors = _vectors(rng, dim)
        got = rref(vectors, dim)
        assert got == rref_oracle(vectors, dim), (dim, vectors)
        assert all(type(x) is Fraction for row in got for x in row)
        full += len(got) == dim and len(vectors) > dim
    # the skip after a full span is exercised, not only reachable
    assert full > 100


@pytest.mark.parametrize("short", [True, False])
def test_rref_checks_lengths_after_the_span_is_full(short):
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    bad = [1, 2] if short else [1, 2, 3, 4]
    with pytest.raises(ValueError):
        rref(eye + [bad], 3)
    with pytest.raises(ValueError):
        rref_oracle(eye + [bad], 3)


def test_contains_vector_rejects_wrong_lengths():
    plane = RationalSubspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    assert plane.contains_vector([Fraction(1, 2), -3, 0])
    assert not plane.contains_vector([0, 0, Fraction(1, 7)])
    for v in ([1, 0, 0, 5], [1, 0], []):
        with pytest.raises(ValueError):
            plane.contains_vector(v)


def _indicator_rows(dim, mask):
    return [[int(i == b) for i in range(dim)]
            for b in range(dim) if mask >> b & 1]


@pytest.mark.parametrize("build", [
    lambda: group_algebra_support_map(cyclic_group(2)),
    lambda: group_algebra_support_map(cyclic_group(3)),
    lambda: group_algebra_support_map(symmetric_group_3()),
    lambda: matrix_support_map(2),
    lambda: matrix_support_map(3),
], ids=["z2", "z3", "s3", "pair2", "pair3"])
def test_support_map_star_is_the_span_of_the_indicator_rows(build):
    p = tabulated(build())
    dim = p.source.dim
    for u in p.target.elements:
        rows = _indicator_rows(dim, u)
        star = p.star(u)
        assert star == RationalSubspace.from_vectors(dim, rows)
        assert star.basis == rref_oracle(rows, dim)
        assert p.shriek(star) == u


@pytest.mark.parametrize("build, handles, pool", [
    (lambda: matrix_max_quantale(2), lambda: matrix_max_handles(2), 30),
    (lambda: group_algebra_quantale(symmetric_group_3()),
     lambda: group_algebra_handles(symmetric_group_3()), 50),
], ids=["matrix-max-2", "group-algebra-s3"])
def test_mult_agrees_with_the_fraction_product(build, handles, pool):
    q = build()
    elements = probe_elements(q, random.Random(0), pool, handles())
    for a in elements:
        for b in elements:
            assert q.mult(a, b).basis == mult_oracle(q, a, b), (a, b)


# Stdout and per-check evaluation counts of the effective examples, captured
# from the Fraction elimination; the integer kernel must reproduce them.
# The command line decides the battery from the groupoid table; the counts
# are those of the sweep on the probe pools of `_helpers.probe_pools` (pool
# size and seed 0 as given, with the curated handles of the source), run on
# the same map without its groupoid and with its tabulated target.
_SUITE_OK = ("  semiopen: ok\n  fr1: ok\n  fr1_right: ok\n  fr2: ok\n"
             "  direct_image_involution: ok\n  surjective: True\n"
             "suite (semiopen surjection with fr1 and fr2): ok\n")


def _fr2_fails(witness):
    return ("  semiopen: ok\n  fr1: ok\n  fr1_right: ok\n"
            f"  fr2: VIOLATION  [{witness}]\n"
            "  direct_image_involution: ok\n  surjective: True\n"
            "suite (fr1 holds, fr2 fails with witness): ok\n")


PINNED = {
    "matrix-max-2": (
        ["example", "matrix-max", "--n", "2", "--pool", "30", "--seed", "0"],
        _SUITE_OK, lambda: matrix_support_map(2),
        lambda: matrix_max_handles(2), 30, [480, 480, 480, 14400, 30]),
    "group-algebra-s3": (
        ["example", "group-algebra", "--group", "s3", "--pool", "50",
         "--seed", "0"],
        _fr2_fails("a=span{[1,1,1,1,1,1]}, x={e}, b=span{[1,-1,0,0,0,0]}"),
        lambda: group_algebra_support_map(symmetric_group_3()),
        lambda: group_algebra_handles(symmetric_group_3()), 50,
        [3200, 3200, 3200, 3253, 50]),
    "group-algebra-z3": (
        ["example", "group-algebra", "--group", "z3", "--pool", "50",
         "--seed", "0"],
        _fr2_fails("a=span{[1,1,1]}, x={e}, b=span{[1,-1,0]}"),
        lambda: group_algebra_support_map(cyclic_group(3)),
        lambda: group_algebra_handles(cyclic_group(3)), 50,
        [400, 400, 400, 453, 50]),
    "group-algebra-z2": (
        ["example", "group-algebra", "--group", "z2", "--pool", "50",
         "--seed", "0"],
        _fr2_fails("a=span{[1,1]}, x={e}, b=span{[1,-1]}"),
        lambda: group_algebra_support_map(cyclic_group(2)),
        lambda: group_algebra_handles(cyclic_group(2)), 50,
        [200, 200, 200, 253, 50]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_effective_examples_print_the_pinned_verdicts(name, tmp_path,
                                                      capsys):
    argv, stdout, build, handles, pool, evaluations = PINNED[name]
    report = tmp_path / "report.json"
    assert main(argv + ["--report", str(report)]) == 0
    assert capsys.readouterr().out == stdout
    checks = ff.load_json(report)["frobenius"]["checks"]
    assert [c["check"] for c in checks] == [
        "semiopen", "fr1", "fr1_right", "fr2", "direct_image_involution"]
    assert {(c["mode"], c["reduction"]) for c in checks} == {
        ("decided", "groupoid table")}
    assert main(["report-verify", str(report)]) == 0
    p = replace(tabulated(build()), groupoid=None)
    swept = map_battery_swept(p, probe_pools(p, pool, 0, handles()))
    assert [c.evaluations for c in swept] == evaluations
    # the sweep finds the witness that the table gives
    assert [(c["ok"], c["witness_display"]) for c in checks] == [
        (c.ok, c.witness_display) for c in swept]
