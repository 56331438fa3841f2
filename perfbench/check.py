"""Check every job's outcome against the hand-written known answers.

`problems(job, outcome, jobs_by_id, answers)` returns a list of strings,
empty when the job matches its known answer.  A CLI outcome carries the
exit code and captured output; a library outcome carries the returned
value.  Reports are read back from disk after the timed loop.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

import oracle

REPLAYED = re.compile(r"replayed (\d+) witnesses, (\d+) problems")


def _report(job):
    with open(job.report, encoding="utf-8") as fh:
        return json.load(fh)


def failed_units(doc):
    """Failed claims a report makes, counted the way report-verify replays them.

    Top-level failed checks count once each, except relation compatibility,
    whose failures are replayed instance by instance.  Failed checks nested
    in the 'frobenius' and 'hypothesis' blocks count too: they are verdicts
    of the report even though report-verify does not look at them.
    """
    n = 0
    for chk in doc.get("checks", []):
        if chk.get("ok", True):
            continue
        if chk.get("check") == "relation-compatibility":
            n += sum(len(f.get("failures", []))
                     for f in chk.get("families", {}).values())
        else:
            n += 1
    for block in ("frobenius", "hypothesis"):
        for chk in (doc.get(block) or {}).get("checks", []):
            if not chk.get("ok", True):
                n += 1
    return n


def replay_counts(outcome, producer):
    """(replayed, skipped) for a report-verify job, from output and report."""
    m = REPLAYED.search(outcome.get("out", ""))
    replayed = int(m.group(1)) if m else 0
    failed = failed_units(_report(producer))
    return replayed, failed - replayed


def _checks(doc, key="checks"):
    return {c.get("check"): c for c in doc.get(key, [])}


def _verdicts(doc, expected, key="checks"):
    out = []
    found = _checks(doc, key)
    for name, ok in expected.items():
        if name not in found:
            out.append(f"{key}: check {name!r} missing")
        elif bool(found[name].get("ok")) != ok:
            out.append(f"{key}: {name} ok={found[name].get('ok')}, expected {ok}")
    extra = set(found) - set(expected)
    if extra:
        out.append(f"{key}: unexpected checks {sorted(extra)}")
    return out


def _subspace_rows(raw):
    return [[Fraction(x) for x in row] for row in raw["basis"]]


def _fr2_witness_problems(group, a_rows, x, b_rows, canonical):
    if canonical is not None:
        want_a, want_x, want_b = canonical
        got = ([[str(v) for v in r] for r in a_rows], x,
               [[str(v) for v in r] for r in b_rows])
        if got != (want_a, want_x, want_b):
            return [f"fr2 witness {got} is not the canonical {canonical}"]
        return []
    if not oracle.group_algebra_fr2_violated(oracle.GROUPS[group](), a_rows,
                                             x, b_rows):
        return ["fr2 witness does not violate the equation (oracle)"]
    return []


def _materialize(job, out, a):
    path = os.path.join(job.argv[-1], job.params["file"])
    if not os.path.exists(path):
        return [f"{path} not written"]
    probs = []
    size = job.params.get("size")
    if size is not None:
        with open(path) as fh:
            doc = json.load(fh)
        if len(doc["lattice"]["elements"]) != size:
            probs.append(f"{job.params['file']} has "
                         f"{len(doc['lattice']['elements'])} elements, "
                         f"expected {size}")
    return probs


def _pullback_verify(job, out, a):
    doc = _report(job)
    probs = _verdicts(doc, a["checks"])
    chk = _checks(doc)
    fams = sorted(chk.get("relation-compatibility", {}).get("families", {}))
    if fams != a["families"]:
        probs.append(f"relation families {fams}")
    cases = chk.get("pullback-frobenius", {}).get("cases", {})
    if len(cases) != a["case_shapes"]:
        probs.append(f"{len(cases)} case shapes")
    return probs


def _negative_control(job, out, a):
    p, rc = out["value"]
    probs = []
    if rc.ok != a["ok"]:
        probs.append(f"relation compatibility ok={rc.ok}")
    failing = sorted(f for f, r in rc.families.items() if r.failures)
    if failing != a["failing_families"]:
        probs.append(f"failing families {failing}")
    res = rc.families.get("mid_qq")
    if res is None or res.hypothesis != a["hypothesis"]:
        probs.append("mid_qq hypothesis")
        return probs
    names = p.source.carrier.names
    want = [[t, names.index(e) if t == "q" else e]
            for t, e in a["canonical_right"]]
    if not any([list(l) for l in f["instance"]["right"]] == want
               and f["instance"]["x"] == a["canonical_x"]
               for f in res.failures):
        probs.append("canonical mid_qq instance missing")
    return probs


def _frobenius_suite(job, out, a):
    doc = _report(job)
    probs = _verdicts(doc, a["checks"])
    probs += _verdicts(doc.get("frobenius", {}), a["frobenius"])
    if doc.get("frobenius", {}).get("surjective") != a["surjective"]:
        probs.append("surjective verdict")
    group = job.params.get("group")
    if group is not None and not probs:
        fr2 = _checks(doc["frobenius"])["fr2"]
        canonical = a["canonical_fr2_display"].get(group)
        if canonical is not None and fr2["witness_display"] != canonical:
            probs.append(f"fr2 witness {fr2['witness_display']!r}")
        a_raw, x, b_raw = fr2["witness"]
        probs += _fr2_witness_problems(group, _subspace_rows(a_raw), x,
                                       _subspace_rows(b_raw), None)
    return probs


def _check_fr2(job, out, a):
    chk = out["value"]
    if chk.ok != a["ok"]:
        return [f"check_fr2 ok={chk.ok}"]
    wa, x, wb = chk.witness
    group = job.params["group"]
    return _fr2_witness_problems(group, [list(r) for r in wa.basis], x,
                                 [list(r) for r in wb.basis],
                                 a["canonical_witness"].get(group))


def _validate(job, out, a):
    doc = _report(job)
    probs = _verdicts(doc, a["checks"])
    if "replayable_laws" in a and not probs:
        law = _checks(doc)["quantale"].get("law")
        if law not in a["replayable_laws"]:
            probs.append(f"violated law {law!r} has no replay rule")
    return probs


def _check_map(job, out, a):
    doc = _report(job)
    if "checks" in a:
        return _verdicts(doc, a["checks"])
    name = job.params["map"]
    failed = set(a["failed"].get(name, ()))
    expected = {c: c not in failed
                for c in ("semiopen", "fr1", "fr1_right", "fr2", "wos")}
    probs = _verdicts(doc, expected)
    found = _checks(doc)
    for key, want in a["witness"].items():
        mapname, check = key.split("/")
        if mapname == name and found.get(check, {}).get("witness") != want:
            probs.append(f"{check} witness {found.get(check, {}).get('witness')}")
    for key, want in a["witness_display"].items():
        mapname, check = key.split("/")
        if mapname == name and \
                found.get(check, {}).get("witness_display") != want:
            probs.append(f"{check} witness "
                         f"{found.get(check, {}).get('witness_display')!r}")
    return probs


def _quotient(job, out, a):
    doc = _report(job)
    probs = _verdicts(doc, a["checks"])
    with open(job.params["base"]) as fh:
        base = json.load(fh)
    with open(job.params["out"]) as fh:
        quot = json.load(fh)
    n = len(quot["lattice"]["elements"])
    hom = doc["quotient"]["hom"]
    qmult = {(i, j): k for i, j, k in quot["mult"]}
    qinv = dict(map(tuple, quot["inv"]))
    if len(qmult) != n * n or any(not 0 <= k < n for k in qmult.values()):
        probs.append("quotient mult table not complete and closed")
    if sorted(qinv) != list(range(n)) or any(
            not 0 <= k < n for k in qinv.values()):
        probs.append("quotient inv table not complete and closed")
    if probs:
        return probs
    for r, s in job.params["pairs"]:
        if hom[r] != hom[s]:
            probs.append(f"pair ({r},{s}) not identified")
    if sorted(set(hom)) != list(range(n)):
        probs.append("quotient hom is not onto")
    for i, j, k in base["mult"]:
        if hom[k] != qmult[hom[i], hom[j]]:
            probs.append(f"hom does not preserve mult at ({i},{j})")
            break
    for i, j in base["inv"]:
        if hom[j] != qinv[hom[i]]:
            probs.append(f"hom does not preserve inv at {i}")
            break
    return probs


def _tensor(job, out, a):
    doc = _report(job)
    expected = dict(a["checks"])
    if not job.params["unit_iso"]:
        del expected["tensor-unit-iso"]
    probs = _verdicts(doc, expected)
    count = _checks(doc).get("tensor-count", {}).get("count")
    if count != job.params["count"]:
        probs.append(f"tensor has {count} elements, expected "
                     f"{job.params['count']}")
    return probs


def _corpus(job, out, a):
    return [] if out["value"] == a["names"] else [f"corpus {out['value']}"]


CHECKERS = {
    "materialize": _materialize,
    "corpus-materialize": _corpus,
    "readme-pullback-verify": _pullback_verify,
    "negative-control": _negative_control,
    "matrix-max": _frobenius_suite,
    "group-algebra": _frobenius_suite,
    "check-fr2-group-algebra": _check_fr2,
    "validate-quantale": _validate,
    "validate-quotient": _validate,
    "validate-perturbed": _validate,
    "validate-malformed": lambda job, out, a: [],
    "check-map-omega-support-s3": _check_map,
    "check-map-corpus": _check_map,
    "locale-meet": _check_map,
    "quotient": _quotient,
    "tensor": _tensor,
}


def _replay(job, outcome, jobs_by_id, answers):
    a = answers["report-verify"]
    producer = jobs_by_id[job.params["of"]]
    probs = []
    if outcome["rc"] != a["exit"]:
        probs.append(f"exit {outcome['rc']}, expected {a['exit']}")
    m = REPLAYED.search(outcome.get("out", ""))
    if not m or int(m.group(2)) != a["problems"]:
        probs.append("replay reported problems")
    replayed, skipped = replay_counts(outcome, producer)
    want = answers[producer.answer]["unreplayable"]
    if skipped != want:
        probs.append(f"{skipped} failed checks not replayed "
                     f"({replayed} replayed), expected {want}")
    return probs


def problems(job, outcome, jobs_by_id, answers):
    """Every way the job's outcome differs from its known answer."""
    if outcome.get("timeout"):
        return ["ran past the per-job time limit"]
    if outcome.get("exc"):
        return [f"raised {outcome['exc']}"]
    try:
        if job.answer == "report-verify":
            return _replay(job, outcome, jobs_by_id, answers)
        a = answers[job.answer]
        if job.argv is not None:
            want = a["exit"]
            if isinstance(want, dict):
                want = want[job.params["map"]]
            if outcome["rc"] != want:
                return [f"exit {outcome['rc']}, expected {want}"]
            if outcome["rc"] == 2:
                return []
        return CHECKERS[job.answer](job, outcome, a)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        return [f"output unreadable: {type(e).__name__}: {e}"]
