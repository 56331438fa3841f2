"""The three workloads: inputs generated from a seed, and their job lists.

A job is one `quantales.cli.main(argv)` call or one public library call
where the command line has no entry.  Jobs come in chains whose order
matters (a report is replayed after the job that wrote it, a quotient is
validated after it is written); the seed shuffles the chains, chooses
relation pairs, perturbation positions and the orientation of tensor
factors.  The program only ever sees the generated files and argv.

Input generation uses oracle.py and never calls the library, so no job can
reuse a cache that the benchmark's own set-up warmed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import oracle

WORKLOADS = ("pullback", "effective", "finite")
GROUPS = ("s3", "z3", "z2")
TENSOR_PAIRS = (("chain2", "bool3"), ("chain3", "chain4"), ("chain4", "bool2"),
                ("chain3", "bool3"))
KNOWN_ANSWERS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "known_answers.json")


@dataclass
class Job:
    id: str
    answer: str
    argv: list | None = None
    call: object = None
    params: dict = field(default_factory=dict)
    report: str | None = None


def _save(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _with_replay(job):
    """The job followed by report-verify on the report it writes."""
    replay = Job(f"{job.id}/report-verify", "report-verify",
                 argv=["report-verify", job.report], params={"of": job.id})
    return [job, replay]


def _cli(jid, answer, argv, workdir, report=True, **params):
    path = os.path.join(workdir, f"{jid}.report.json") if report else None
    if path:
        argv = argv + ["--report", path]
    job = Job(jid, answer, argv=argv, params=params, report=path)
    return _with_replay(job) if report else [job]


# -- library jobs -------------------------------------------------------------

def _group(name):
    from quantales import examples
    return {"z2": lambda: examples.cyclic_group(2),
            "z3": lambda: examples.cyclic_group(3),
            "s3": examples.symmetric_group_3}[name]()


def negative_control():
    """Criterion 9: relation compatibility along a base map that fails fr2."""
    from quantales.examples import z2_group_algebra_finite_map
    from quantales.freeprod import (PullbackContext,
                                    verify_relation_compatibility)
    from quantales.quantale import identity_map
    p = z2_group_algebra_finite_map()
    ctx = PullbackContext.build(p, identity_map(p.target), verify=False)
    return p, verify_relation_compatibility(ctx, maxlen=4)


def check_fr2_group_algebra(group, pool, seed):
    from quantales.examples import group_algebra_support_map
    from quantales.openness import check_fr2
    return check_fr2(group_algebra_support_map(_group(group)), pool=pool,
                     seed=seed)


def corpus_materialize(outdir):
    from quantales import fileformats as ff
    from quantales.examples import standard_map_corpus
    names = []
    for name, m in standard_map_corpus(include_effective=False):
        ff.save_json(os.path.join(outdir, f"{name}.map.json"), ff.map_to_doc(m))
        names.append(name)
    return names


# -- workloads ------------------------------------------------------------------

def pullback(rng, w):
    """The README session plus the criterion-9 negative control."""
    pmap = os.path.join(w, "omega-support-z2.map.json")
    fmap = os.path.join(w, "delta-embedding-2.map.json")
    readme = (
        _cli("omega-support", "materialize",
             ["example", "omega-support", "--group", "z2", "--out", w], w,
             report=False, file="omega-support-z2.map.json")
        + _cli("delta-embedding", "materialize",
               ["example", "delta-embedding", "--n", "2", "--out", w], w,
               report=False, file="delta-embedding-2.map.json")
        + _cli("pullback-verify", "readme-pullback-verify",
               ["pullback-verify", "--p", pmap, "--f", fmap, "--maxlen", "4"],
               w))
    control = [Job("negative-control", "negative-control",
                   call=negative_control)]
    chains = [readme, control]
    rng.shuffle(chains)
    return chains


def effective(rng, w):
    """Subspace quantales: exact RREF and the openness loops over oracles.

    The probe pools are the same in every round and run: the pool draw
    alone moves matrix-max between 5.3 s and 8.2 s, which would bury a
    performance change in input variance.  The seed sets the job order.
    """
    pools = random.Random("effective:pools")
    chains = [_cli("matrix-max", "matrix-max",
                   ["example", "matrix-max", "--n", "2", "--pool", "30",
                    "--seed", str(pools.randrange(10 ** 6))], w)]
    for g in GROUPS:
        chains.append(_cli(f"group-algebra-{g}", "group-algebra",
                           ["example", "group-algebra", "--group", g,
                            "--pool", "50", "--seed",
                            str(pools.randrange(10 ** 6))], w, group=g))
        seed = pools.randrange(10 ** 6)
        chains.append([Job(f"check-fr2-{g}", "check-fr2-group-algebra",
                           call=lambda g=g, seed=seed:
                           check_fr2_group_algebra(g, 50, seed),
                           params={"group": g})])
    rng.shuffle(chains)
    return chains


def finite(rng, w):
    """Finite tables: loading validates, checkers run on table lookups."""
    # inputs written by the benchmark itself
    ps3 = oracle.powerset_quantale_doc(oracle.symmetric_group_3())
    rel2 = oracle.powerset_quantale_doc(oracle.pair_groupoid(2))
    inputs = {"bench-p-s3": ps3, "bench-rel2": rel2}
    f1, f2 = rng.sample(sorted(oracle.PRODUCT_FACTORS), 2)
    inputs["product"] = oracle.product_quantale_doc(
        oracle.PRODUCT_FACTORS[f1](), oracle.PRODUCT_FACTORS[f2]())
    position = rng.randrange(len(ps3["mult"]))
    inputs["perturbed-p-s3"] = oracle.perturbed(ps3, position,
                                                rng.randrange(1, 64))
    for name, doc in inputs.items():
        _save(os.path.join(w, f"{name}.quantale.json"), doc)
    malformed = rng.choice(sorted(oracle.MALFORMED))
    with open(os.path.join(w, "malformed.quantale.json"), "w") as fh:
        fh.write(oracle.MALFORMED[malformed])

    def path(name, kind="quantale"):
        return os.path.join(w, f"{name}.{kind}.json")

    # materialising jobs (writes) come first, in seeded order
    writes = [
        _cli("example-group-s3", "materialize",
             ["example", "group", "--group", "s3", "--out", w], w,
             report=False, file="p-s3.quantale.json", size=64),
        _cli("example-group-z3", "materialize",
             ["example", "group", "--group", "z3", "--out", w], w,
             report=False, file="p-z3.quantale.json", size=8),
        _cli("example-rel-2", "materialize",
             ["example", "rel", "--n", "2", "--out", w], w,
             report=False, file="rel2.quantale.json", size=16),
        _cli("example-omega-support-s3", "materialize",
             ["example", "omega-support", "--group", "s3", "--out", w], w,
             report=False, file="omega-support-s3.map.json"),
        [Job("corpus-materialize", "corpus-materialize",
             call=lambda: corpus_materialize(w))],
    ]
    for which in ("sierpinski", "two-point", "open-inclusion"):
        writes.append(_cli(f"example-locale-{which}", "materialize",
                           ["example", "locale", "--which", which, "--out", w],
                           w, report=False, file=f"locale-{which}.map.json"))
    rng.shuffle(writes)

    checks = [_cli(f"validate-{name}", "validate-quantale",
                   ["validate", path(name)], w)
              for name in ("p-s3", "p-z3", "rel2", "product")]
    checks.append(_cli("validate-perturbed", "validate-perturbed",
                       ["validate", path("perturbed-p-s3")], w))
    checks.append(_cli("validate-malformed", "validate-malformed",
                       ["validate", path("malformed")], w, report=False))
    flags = ["--semiopen", "--fr1", "--fr1-right", "--fr2", "--wos"]
    checks.append(_cli("check-map-omega-support-s3",
                       "check-map-omega-support-s3",
                       ["check-map", "--map", path("omega-support-s3", "map"),
                        "--seed", str(rng.randrange(10 ** 6))] + flags, w))
    for name in load_known()["answers"]["corpus-materialize"]["names"]:
        checks.append(_cli(f"check-map-{name}", "check-map-corpus",
                           ["check-map", "--map", path(name, "map")] + flags,
                           w, map=name))
    for which in ("sierpinski", "two-point", "open-inclusion"):
        checks.append(_cli(f"locale-meet-{which}", "locale-meet",
                           ["check-map", "--map",
                            path(f"locale-{which}", "map"), "--locale-meet"],
                           w))
    for base, size, npairs in (("bench-p-s3", 64, 1), ("bench-rel2", 16, 2)):
        pairs = [sorted(rng.sample(range(1, size), 2)) for _ in range(npairs)]
        _save(path(f"{base}-pairs", "relation"), {"pairs": pairs})
        out = path(f"quotient-{base}")
        chain = _cli(f"quotient-{base}", "quotient",
                     ["quotient", "--quantale", path(base), "--relation",
                      path(f"{base}-pairs", "relation"), "--out", out], w,
                     base=path(base), pairs=pairs, out=out)
        chain += _cli(f"validate-quotient-{base}", "validate-quotient",
                      ["validate", out], w)
        checks.append(chain)
    # a fixed set of factor pairs keeps the round's cost steady; the seed
    # picks each pair's orientation
    for k, pair in enumerate(TENSOR_PAIRS):
        left, right = rng.sample(pair, 2)
        for name in (left, right):
            _save(path(name, "lattice"), oracle.lattice_doc(name))
        checks.append(_cli(f"tensor-{k}", "tensor",
                           ["tensor", "--lattices", path(left, "lattice"),
                            path(right, "lattice")], w,
                           count=oracle.tensor_size(left, right),
                           unit_iso=left == "chain2"))
    rng.shuffle(checks)
    return writes + checks


def load_known():
    with open(KNOWN_ANSWERS, encoding="utf-8") as fh:
        return json.load(fh)


JOB_LISTS = {"pullback": pullback, "effective": effective, "finite": finite}


def jobs(workload, seed, round_index, workdir):
    """Write the round's inputs under workdir and return its job list."""
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    return [job for chain in JOB_LISTS[workload](rng, workdir) for job in chain]
