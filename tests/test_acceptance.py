"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run with -s to see them on
success) and enforces its wall-clock budget.
"""

import random
import time
from contextlib import contextmanager

from quantales.examples import (cyclic_group, delta_embedding_map,
                                discrete_to_point_map,
                                group_algebra_support_map,
                                group_powerset_quantale, matrix_support_map,
                                omega_quantale, omega_support_map,
                                open_inclusion_map,
                                sierpinski_closed_point_map,
                                standard_map_corpus, symmetric_group_3,
                                z2_group_algebra_finite_map)
from quantales.freeprod import (PullbackContext, Word,
                                verify_adjunction_on_words,
                                verify_beck_chevalley,
                                verify_pullback_frobenius,
                                verify_relation_compatibility,
                                word_direct_image)
from quantales.nucleus import (RelationPresentation, nucleus_from_relation,
                               quotient_by_relation, saturate_relation)
from quantales.openness import (check_fr1, check_fr2, check_semiopen,
                                frobenius_report)
from quantales.quantale import is_surjective
from quantales.subspaces import RationalSubspace
from quantales.suplattice import FiniteSupLattice, is_sup_map
from quantales.tensor import TensorLattice, induced_from_bimorphism, unit_iso

from _helpers import (corpus_lattices, fr2_forces_fr1, grade_of,
                      group_algebra_handles, least_closure_identifying,
                      map_law_swept, matrix_max_handles, probe_pools,
                      small_quantales, sup_maps_between, tabulated, word,
                      word_involution, word_multiply)


@contextmanager
def criterion(number, label, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s < {limit_s}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s"


def test_criterion_1_matrix_example():
    with criterion(1, "matrix-support-map", 10):
        decided = frobenius_report(matrix_support_map(2))
        assert decided.hypothesis_for_pullback
        assert {c.mode for c in (decided.semiopen, decided.fr1,
                                 decided.fr2)} == {"decided"}
        # the same battery swept on probe pools, without the groupoid,
        # into the tabulated Rel(2)
        p = tabulated(matrix_support_map(2)).replace(groupoid=None)
        pools = probe_pools(p, 20, 0, matrix_max_handles(2))
        assert map_law_swept("semiopen", p, pools).ok
        # surjectivity: p_! p* is the identity on all sixteen relations
        hits = [p.shriek(p.star(u)) for u in p.target.elements]
        assert hits == list(p.target.elements) and len(hits) == 16
        assert is_surjective(p)
        fr1 = map_law_swept("fr1", p, pools)
        assert fr1.ok and fr1.evaluations >= 200
        fr2 = map_law_swept("fr2", p, pools)
        assert fr2.ok and fr2.evaluations >= 200


def test_criterion_2_group_algebra_example():
    with criterion(2, "group-algebra-support-maps", 10):
        for group, pool in ((cyclic_group(2), 50), (symmetric_group_3(), 15)):
            decided = check_fr2(group_algebra_support_map(group))
            assert not decided.ok and decided.mode == "decided"
            # swept on probe pools, without the groupoid
            p = group_algebra_support_map(group).replace(groupoid=None)
            pools = probe_pools(p, pool, 0, group_algebra_handles(group))
            assert map_law_swept("semiopen", p, pools).ok
            fr1 = map_law_swept("fr1", p, pools)
            assert fr1.ok and fr1.evaluations >= 200
            fr2 = map_law_swept("fr2", p, pools)
            assert not fr2.ok and fr2.witness is not None
        # the canonical witness for Z/2 is found verbatim, decided from the
        # table and swept alike
        plus = RationalSubspace.from_vectors(2, [(1, 1)])
        minus = RationalSubspace.from_vectors(2, [(1, -1)])
        p = group_algebra_support_map(cyclic_group(2))
        assert check_fr2(p).witness == (plus, 1, minus)
        swept = p.replace(groupoid=None)
        fr2 = map_law_swept("fr2", swept, probe_pools(
            swept, 50, 0, group_algebra_handles(cyclic_group(2))))
        assert fr2.witness == (plus, 1, minus)
        ga, px = swept.source, swept.target
        lhs = swept.shriek(ga.mult(ga.mult(plus, swept.star(1)), minus))
        rhs = px.mult(px.mult(swept.shriek(plus), 1), swept.shriek(minus))
        assert lhs == 0 and rhs == 3


def test_criterion_3_locale_examples():
    with criterion(3, "locale-examples", 1):
        two_pt, _ = check_semiopen(discrete_to_point_map(2))
        fr2 = check_fr2(two_pt)
        assert not fr2.ok and fr2.witness == (1, 1, 2)
        inclusion = open_inclusion_map()
        rep = frobenius_report(inclusion)
        assert rep.fr2.ok and rep.fr1.ok
        sierp, semi = check_semiopen(sierpinski_closed_point_map())
        assert semi.ok
        fr1 = check_fr1(sierp)
        assert not fr1.ok and fr1.witness == (1, 1)


def test_criterion_4_lemma_suite():
    with criterion(4, "lemma-suite", 5):
        checked = 0
        for name, p in standard_map_corpus():
            rep = frobenius_report(p)
            if not rep.semiopen.ok:
                continue
            if rep.fr1.ok:
                assert rep.fr1_right.ok, name
            assert rep.wos_consistent and fr2_forces_fr1(rep), name
            checked += 1
        assert checked >= 10
        # the non-surjective projection exercises the false-false branch
        from quantales.examples import omega_pair_projection_map
        rep = frobenius_report(omega_pair_projection_map())
        assert rep.weakly_open and rep.wos_consistent
        assert not rep.unit_identity and not rep.surjective


def test_criterion_5_nucleus_engine():
    with criterion(5, "nucleus-engine", 60):
        pz2 = group_powerset_quantale(cyclic_group(2))
        qq, hom = quotient_by_relation(pz2, [(1, 2)])
        assert qq.quantale.size == 2
        assert qq.quantale == omega_quantale()
        rng = random.Random(0)
        for qname, q in small_quantales().items():
            assert q.size <= 5
            pool = [(r, s) for r in q.elements for s in q.elements if r != s]
            relations = [frozenset([p]) for p in pool]
            relations += [frozenset(rng.sample(pool, 2)) for _ in range(2)]
            omega_maps = sup_maps_between(q.carrier,
                                          omega_quantale().carrier)
            for pairs in relations:
                presentation = RelationPresentation(q, pairs)
                nuc = nucleus_from_relation(presentation)
                sat = saturate_relation(presentation)
                oracle = least_closure_identifying(q, sat)
                assert nuc.values == oracle, (qname, sorted(pairs))
                for h in omega_maps:
                    on_fibers = all(h.values[a] == h.values[nuc(a)]
                                    for a in q.elements)
                    on_pairs = all(h.values[r] == h.values[s] for r, s in sat)
                    assert on_fibers == on_pairs, (qname, sorted(pairs))


def test_criterion_6_tensor_engine():
    with criterion(6, "tensor-engine", 30):
        two = FiniteSupLattice.chain(2)
        assert len(TensorLattice((two, two)).elements()) == 2
        corpus = corpus_lattices()
        for name, lat in corpus.items():
            if lat.size > 5:
                continue
            T = TensorLattice((two, lat))
            to_l, from_l = unit_iso(T)
            assert is_sup_map(to_l) is None and is_sup_map(from_l) is None
            assert [to_l.values[from_l.values[l]] for l in lat.elements] == \
                list(lat.elements)
            count = len(T.elements())
            assert [from_l.values[to_l.values[i]] for i in range(count)] == \
                list(range(count))
        rng = random.Random(1)
        names = [n for n, lat in corpus.items() if lat.size <= 4]
        smaps = {}
        tensors = {}
        for i in range(100):
            ln, mn, tn = (rng.choice(names) for _ in range(3))
            L, M, N = corpus[ln], corpus[mn], corpus[tn]
            su = smaps.setdefault((ln, tn), sup_maps_between(L, N))
            tv = smaps.setdefault((mn, tn), sup_maps_between(M, N))
            s, t = rng.choice(su), rng.choice(tv)

            def b(pair, s=s, t=t, L=L, M=M, N=N):
                l, m = pair
                if l == L.bottom or m == M.bottom:
                    return N.bottom
                return N.join2(s.values[l], t.values[m])

            fn, sup = induced_from_bimorphism(b, (L, M), N)
            T = tensors.setdefault((ln, mn), TensorLattice((L, M)))
            for u in T.grid():
                assert fn(T.pure(u)) == b(u)
            assert sup is not None and is_sup_map(sup) is None
            for g in T.elements():
                assert fn(g) == N.join(b(u) for u in g.members)
                assert T.join([T.pure(u) for u in g.members]) == g


def test_criterion_7_word_algebra():
    with criterion(7, "word-algebra", 10):
        Y = delta_embedding_map(2).source  # the sixteen binary relations
        Q = group_powerset_quantale(cyclic_group(2))
        # displayed multiplication shapes, with distinct symbols throughout
        w5 = word(("y", 3), ("q", 1), ("y", 5))
        w6 = word(("q", 2), ("y", 7), ("q", 3))
        assert grade_of(w5).n == 5 and grade_of(w6).n == 6
        p56 = word_multiply(Y, Q, w5, w6)
        assert p56.letters == (("y", 3), ("q", 1), ("y", 5),
                               ("q", 2), ("y", 7), ("q", 3))
        assert grade_of(p56).n == 11
        w5b = word(("y", 2), ("q", 2), ("y", 6))
        p55 = word_multiply(Y, Q, w5, w5b)
        assert p55.letters == (("y", 3), ("q", 1), ("y", Y.mult(5, 2)),
                               ("q", 2), ("y", 6))
        assert grade_of(p55).n == 9
        # the involution reverses and stars letterwise
        w = word(("q", 1), ("y", 2), ("q", 3), ("y", 9))
        assert word_involution(Y, Q, w).letters == \
            (("y", Y.inv(9)), ("q", Q.inv(3)), ("y", Y.inv(2)),
             ("q", Q.inv(1)))

        rng = random.Random(2)

        def random_word():
            length = rng.randint(1, 3)
            tag = rng.choice(("y", "q"))
            letters = []
            for _ in range(length):
                alg = Y if tag == "y" else Q
                letters.append((tag, rng.randrange(alg.size)))
                tag = "q" if tag == "y" else "y"
            return Word(tuple(letters))

        for _ in range(1000):
            w1, w2 = random_word(), random_word()
            assert word_involution(Y, Q, word_multiply(Y, Q, w1, w2)) == \
                word_multiply(Y, Q, word_involution(Y, Q, w2),
                              word_involution(Y, Q, w1))
            assert word_involution(Y, Q, word_involution(Y, Q, w1)) == w1
        for _ in range(1000):
            w1, w2, w3 = random_word(), random_word(), random_word()
            lhs = word_multiply(Y, Q, word_multiply(Y, Q, w1, w2), w3)
            rhs = word_multiply(Y, Q, w1, word_multiply(Y, Q, w2, w3))
            assert lhs == rhs


def test_criterion_8_pullback_theorem_instance():
    with criterion(8, "pullback-theorem-instance", 60):
        p = omega_support_map(group_powerset_quantale(cyclic_group(2)))
        f = delta_embedding_map(2)
        ctx = PullbackContext.build(p, f)
        assert ctx.report.hypothesis_for_pullback

        rc = verify_relation_compatibility(ctx, maxlen=4)
        assert rc.ok
        assert set(rc.families) == {"standalone", "head_q", "head_y",
                                    "tail_q", "tail_y", "mid_qq", "mid_yq",
                                    "mid_qy", "mid_yy"}
        assert all(r.instances > 0 for r in rc.families.values())

        adj = verify_adjunction_on_words(ctx, maxlen=4, max_traces=None)
        assert adj.ok
        assert adj.to_json()["counit"] == \
            {"decided_by": "definition of h", "instances": 0}
        assert adj.traces_kept == adj.words_checked > 0
        assert all(t.steps or len(t.word) == 1 for t in adj.traces)

        bc = verify_beck_chevalley(ctx)
        # decided by the definition of h, so no element is evaluated
        assert bc.ok and bc.checked == 0
        assert bc.to_json()["reduction"] == "definition of h"

        pf = verify_pullback_frobenius(ctx, maxlen=4)
        assert pf.ok and len(pf.cases) == 16
        # decided by the Y-letter lemma, so no word is evaluated
        assert all(v["instances"] == 0 and v["decided_by"]
                   for v in pf.cases.values())

        # trivial base change: the descent map collapses onto p_!
        from quantales.quantale import identity_map
        trivial = PullbackContext.build(p, identity_map(p.target))
        for a in trivial.Q.elements:
            assert word_direct_image(trivial, Word((("q", a),))) == \
                p.shriek(a)


def test_criterion_9_negative_control():
    with criterion(9, "negative-control", 60):
        from quantales.quantale import identity_map
        p = z2_group_algebra_finite_map()
        assert not frobenius_report(p).fr2.ok
        ctx = PullbackContext.build(p, identity_map(p.target), verify=False)
        rc = verify_relation_compatibility(ctx, maxlen=4)
        assert not rc.ok
        failing = {fam for fam, res in rc.families.items() if res.failures}
        assert failing == {"mid_qq"}
        res = rc.families["mid_qq"]
        assert res.hypothesis == "fr2"
        # the canonical triple appears among the concrete witnesses
        plus = p.source.carrier.names.index("span{[1,1]}")
        minus = p.source.carrier.names.index("span{[1,-1]}")
        expected_right = [("q", plus), ("y", 1), ("q", minus)]
        assert any(f["instance"]["right"] == expected_right
                   and f["instance"]["x"] == 1
                   for f in res.failures)
