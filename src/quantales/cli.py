"""Command-line front end: load structures, run checkers, emit JSON reports.

Exit codes: 0 all requested checks pass, 1 a violation was found, 2 usage
or input error.  Reports carry a schema version, the command line, sha256
digests plus embedded copies of the inputs, per-check verdicts with
witnesses, seeds and timing, so that `report-verify` can replay every
recorded failure of the top-level checks.  `main` opens the report for the
subcommand to fill and, when the subcommand returns, writes it with the
verdict that its exit code gives; a subcommand that raises writes none.

`report-verify` fails closed: every embedded input must match its
`doc_sha256` (the digest of its canonical JSON), the verdict must agree
with the checks, and each failed check is replayed through the
definition that produced it (a law witness through its predicate or
one-element sweep, a structural failure by reloading the embedded input)
or counted as a problem.  The nested `frobenius` and `hypothesis` blocks
are not read yet.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import examples as ex
from . import fileformats as ff
from . import __version__
from .fileformats import FormatError
from .freeprod import (DEFAULT_TRACES, REDUCTION, Y_LETTER_LEMMA,
                       HypothesisNotSatisfied, NotASquare, PullbackContext,
                       check_maxlen, verify_adjunction_on_words,
                       verify_beck_chevalley, verify_pullback_frobenius,
                       verify_relation_compatibility)
from .nucleus import nucleus_from_relation, quotient
from .openness import (MAP_LAWS, MissingDirectImage, NotALocale, NotUnital,
                       check_locale_meet_lemma, frobenius_report, violates)
from .quantale import (HOM_LAWS, QUANTALE_LAWS, InvalidQuantale,
                       validate_hom, validate_quantale)
from .subspaces import RationalSubspace
from .suplattice import LatticeError
from .tensor import EnumerationBoundExceeded, TensorLattice, swap_map, unit_iso

SCHEMA = 1


class _Report:
    def __init__(self, argv, seed=None):
        self.doc = {
            "schema": SCHEMA,
            "tool": f"quantales {__version__}",
            "command": list(argv),
            "seed": seed,
            "inputs": {},
            "checks": [],
        }
        self.t0 = time.perf_counter()

    def add_input(self, role, path, doc):
        self.doc["inputs"][role] = {
            "path": path, "sha256": ff.digest(path),
            "doc_sha256": ff.doc_digest(doc), "doc": doc}

    def add_check(self, check_doc):
        self.doc["checks"].append(check_doc)

    def finish(self, verdict):
        self.doc["verdict"] = verdict
        self.doc["elapsed_s"] = round(time.perf_counter() - self.t0, 3)
        return self.doc

    def write(self, path):
        if path:
            ff.save_json(path, self.doc)


def _print_check(check):
    status = "ok" if check.get("ok") else "VIOLATION"
    name = check.get("check", "?")
    extra = ""
    if not check.get("ok"):
        w = check.get("witness_display") or check.get("witness")
        law = check.get("law")
        extra = f"  [{law + ' at ' if law else ''}{w}]"
    print(f"  {name}: {status}{extra}")


# -- validate -----------------------------------------------------------------

def _parts(kind, doc):
    """Load a document; its law-checked parts as (part, laws, arguments of
    the law predicates, carrier of the witness elements)."""
    if kind == "lattice":
        ff.lattice_from_doc(doc)
        return ()
    if kind == "quantale":
        q = ff.quantale_from_doc(doc, validate=False)
        return (("quantale", QUANTALE_LAWS, (q,), q),)
    if kind == "map":
        p = ff.map_from_doc(doc, validate=False)
        return (("source", QUANTALE_LAWS, (p.source,), p.source),
                ("target", QUANTALE_LAWS, (p.target,), p.target),
                ("inverse_image", HOM_LAWS, (p.star, p.target, p.source),
                 p.target))
    raise FormatError(f"cannot validate a {kind} document alone")


def cmd_validate(args, report):
    worst = 0
    for path in args.paths:
        doc = ff.load_json(path)
        kind = ff.sniff_kind(doc)
        print(f"{path}: {kind}")
        check = {"check": kind, "ok": True}
        try:
            for part, laws, law_args, _ in _parts(kind, doc):
                validate = validate_hom if laws is HOM_LAWS else \
                    validate_quantale
                v = validate(*law_args)
                if v is not None:
                    check = {"check": kind, "ok": False, "part": part,
                             "law": v.law, "witness": list(v.witness),
                             "detail": v.detail}
                    break
        except LatticeError as e:
            check = {"check": kind, "ok": False, "law": type(e).__name__,
                     "witness": list(getattr(e, "witness", ()) or ()),
                     "detail": str(e)}
        check["input"] = path
        report.add_input(path, path, doc)
        report.add_check(check)
        _print_check(check)
        if not check["ok"]:
            worst = 1
    return worst


# -- check-map ------------------------------------------------------------------

def cmd_check_map(args, report):
    doc = ff.load_json(args.map)
    report.add_input("map", args.map, doc)
    rep = frobenius_report(ff.map_from_doc(doc), args.pool, args.seed)
    requested = [name for name, on in (
        ("semiopen", args.semiopen), ("fr1", args.fr1),
        ("fr1-right", args.fr1_right), ("fr2", args.fr2),
        ("wos", args.wos), ("locale-meet", args.locale_meet)) if on]
    if not requested:
        requested = ["semiopen", "fr1", "fr1-right", "fr2"]

    if rep.certified is None:
        # every other check needs p_!, so its absence fails each of them
        chk = rep.semiopen.to_json()
        report.add_check(chk)
        _print_check(chk)
        if set(requested) - {"semiopen"}:
            print("  (remaining checks skipped: map is not semiopen)")
        return 1

    laws = {"semiopen": rep.semiopen, "fr1": rep.fr1,
            "fr1-right": rep.fr1_right, "fr2": rep.fr2}
    failed = False
    for name in requested:
        if name in laws:
            chk = laws[name].to_json()
        elif name == "wos":
            if rep.unit_identity is None:
                raise NotUnital("target has no declared unit")
            chk = {"check": "wos", "map": rep.map_name,
                   "weakly_open": rep.weakly_open,
                   "unit_identity": rep.unit_identity,
                   "surjective": rep.surjective,
                   "consistent": rep.wos_consistent,
                   "ok": rep.wos_consistent,
                   "pool": args.pool, "seed": args.seed}
        else:
            lm = check_locale_meet_lemma(rep)
            chk = {**lm.to_json(), "check": "locale-meet",
                   "ok": lm.meet_preserved is not False}
        report.add_check(chk)
        _print_check(chk)
        failed |= not chk["ok"]
    report.doc["surjective"] = rep.surjective
    print(f"  surjective: {rep.surjective}")
    return 1 if failed else 0


# -- quotient ---------------------------------------------------------------------

def cmd_quotient(args, report):
    qdoc = ff.load_json(args.quantale)
    rdoc = ff.load_json(args.relation)
    report.add_input("quantale", args.quantale, qdoc)
    report.add_input("relation", args.relation, rdoc)
    q = ff.quantale_from_doc(qdoc)
    rel = ff.relation_from_doc(rdoc, q)
    nuc = nucleus_from_relation(rel)
    qq, hom = quotient(q, nuc)
    out_doc = ff.quantale_to_doc(qq.quantale)
    if args.out:
        ff.save_json(args.out, out_doc)
        print(f"quotient written to {args.out}")
    report.doc["quotient"] = {
        "size": qq.quantale.size,
        "closed_elements": list(qq.closed),
        "hom": list(hom.values),
        "nucleus": list(nuc.values),
    }
    report.add_check({"check": "quotient", "ok": True,
                      "size": qq.quantale.size})
    print(f"quotient has {qq.quantale.size} elements "
          f"(closed: {[q.name_of(c) for c in qq.closed]})")
    return 0


# -- tensor ------------------------------------------------------------------------

def cmd_tensor(args, report):
    lattices = []
    for path in args.lattices:
        doc = ff.load_json(path)
        report.add_input(path, path, doc)
        lattices.append(ff.lattice_from_doc(doc))
    T = TensorLattice(tuple(lattices), bound=args.bound)
    try:
        count = len(T.elements())
    except EnumerationBoundExceeded as e:
        print(str(e))
        report.add_check({"check": "tensor-enumeration", "ok": False,
                          "detail": str(e)})
        return 2
    print(f"tensor of {[l.size for l in lattices]} has {count} elements")
    report.add_check({"check": "tensor-count", "ok": True, "count": count})
    ok = True
    if len(lattices) == 2:
        T_rev = TensorLattice((lattices[1], lattices[0]), bound=args.bound)
        swapped = {swap_map(T, T_rev, g) for g in T.elements()}
        sym_ok = swapped == set(T_rev.elements())
        print(f"symmetry bijection onto the reversed tensor: {sym_ok}")
        report.add_check({"check": "tensor-symmetry", "ok": sym_ok})
        ok &= sym_ok
        if lattices[0].size == 2:
            to_l, from_l = unit_iso(T)
            round1 = all(to_l.values[from_l.values[l]] == l
                         for l in lattices[1].elements)
            round2 = all(from_l.values[to_l.values[i]] == i
                         for i in range(len(T.elements())))
            print(f"unit collapse onto the second factor: {round1 and round2}")
            report.add_check({"check": "tensor-unit-iso",
                              "ok": round1 and round2})
            ok &= round1 and round2
    return 0 if ok else 1


# -- pullback-verify ------------------------------------------------------------------

def cmd_pullback_verify(args, report):
    pdoc = ff.load_json(args.p)
    fdoc = ff.load_json(args.f)
    report.add_input("p", args.p, pdoc)
    report.add_input("f", args.f, fdoc)
    p = ff.map_from_doc(pdoc)
    f = ff.map_from_doc(fdoc)
    try:
        ctx = PullbackContext.build(p, f)
    except HypothesisNotSatisfied as e:
        print("base map is not a certified semiopen surjection with both "
              "Frobenius conditions:")
        rep = e.report.to_json()
        report.doc["hypothesis"] = rep
        for chk in rep["checks"]:
            _print_check(chk)
        report.add_check({"check": "pullback-hypothesis", "ok": False})
        return 1
    report.doc["hypothesis"] = ctx.report.to_json()
    report.add_check({"check": "pullback-hypothesis", "ok": True})

    scope = REDUCTION["scope"]
    rc = verify_relation_compatibility(ctx, args.maxlen)
    report.add_check({"check": "relation-compatibility", "ok": rc.ok,
                      **rc.to_json()})
    print(f"relation compatibility: {'ok' if rc.ok else 'FAIL'} "
          f"({rc.total_instances} cores over {len(rc.families)} families, "
          f"{scope})")
    for fam, res in sorted(rc.families.items()):
        print(f"    {fam:<11} [{res.hypothesis:<12}] "
              f"{res.instances:>7} cores, {len(res.failures)} failures")

    adj = verify_adjunction_on_words(ctx, args.maxlen, max_traces=args.traces)
    report.add_check({"check": "adjunction-on-words", "ok": adj.ok,
                      **adj.to_json(ctx)})
    print(f"adjunction on words: {'ok' if adj.ok else 'FAIL'} "
          f"({ctx.Q.size} base units and {adj.cores} cores, {scope}; "
          f"{adj.traces_kept} rewrite traces of words up to length "
          f"{args.maxlen} recorded)")

    bc = verify_beck_chevalley(ctx)
    report.add_check({"check": "beck-chevalley", "ok": bc.ok, **bc.to_json()})
    print(f"beck-chevalley: {'ok' if bc.ok else 'FAIL'} ({bc.checked} elements)")

    pf = verify_pullback_frobenius(ctx, args.maxlen)
    report.add_check({"check": "pullback-frobenius", **pf.to_json()})
    print(f"pullback frobenius: ok (both module conditions and "
          f"{len(pf.cases)} case shapes, {scope}, by the {Y_LETTER_LEMMA})")
    return 0 if rc.ok and adj.ok and bc.ok else 1


# -- example -----------------------------------------------------------------------

def _group_by_name(name):
    if name == "z2":
        return ex.cyclic_group(2)
    if name == "z3":
        return ex.cyclic_group(3)
    if name == "s3":
        return ex.symmetric_group_3()
    raise FormatError(f"unknown group {name!r} (use z2, z3 or s3)")


def _materialized_examples(args):
    """Example name -> (file name, document writer, builder) for the
    examples that are written out as files."""
    locales = {"sierpinski": ex.sierpinski_closed_point_map,
               "two-point": ex.discrete_to_point_map,
               "open-inclusion": ex.open_inclusion_map}

    def locale_map():
        if args.which not in locales:
            raise FormatError(f"unknown locale example {args.which!r}")
        return locales[args.which]()

    def powerset():
        return ex.group_powerset_quantale(_group_by_name(args.group))

    return {
        "rel": (f"rel{args.n}.quantale.json", ff.quantale_to_doc,
                lambda: ex.rel_quantale(args.n)),
        "group": (f"p-{args.group}.quantale.json", ff.quantale_to_doc,
                  powerset),
        "locale": (f"locale-{args.which}.map.json", ff.map_to_doc,
                   locale_map),
        "omega-support": (f"omega-support-{args.group}.map.json",
                          ff.map_to_doc,
                          lambda: ex.omega_support_map(powerset())),
        "delta-embedding": (f"delta-embedding-{args.n}.map.json",
                            ff.map_to_doc,
                            lambda: ex.delta_embedding_map(args.n)),
    }


def _example_map(example):
    """The support map that a probed example runs its suite on, from the
    report's `example` record."""
    if example.get("name") == "matrix-max":
        return ex.matrix_support_map(example["n"])
    if example.get("name") == "group-algebra":
        return ex.group_algebra_support_map(_group_by_name(example["group"]))
    raise FormatError("the report embeds no map to replay against")


# probed example -> (its option, suite line, `expected` of the suite check,
# suite verdict of the frobenius report)
_SUITES = {
    "matrix-max": ("n", "semiopen surjection with fr1 and fr2", None,
                   lambda rep: rep.hypothesis_for_pullback),
    "group-algebra": ("group", "fr1 holds, fr2 fails with witness",
                      "fr1 holds, fr2 has a witness",
                      lambda rep: rep.fr1.ok and rep.fr1_right.ok
                      and rep.surjective and not rep.fr2.ok),
}


def cmd_example(args, report):
    name = args.name
    materialized = _materialized_examples(args)
    if name in materialized:
        fname, to_doc, build = materialized[name]
        doc = to_doc(build())
        outdir = args.out or "."
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, fname)
        ff.save_json(path, doc)
        print(f"wrote {path}")
        report.add_check({"check": "materialize", "ok": True,
                          "files": [fname]})
        code = 0
    elif name in _SUITES:
        option, line, expected, verdict = _SUITES[name]
        example = {"name": name, option: getattr(args, option)}
        rep = frobenius_report(_example_map(example), pool=args.pool,
                               seed=args.seed)
        report.doc["example"] = example
        report.doc["frobenius"] = rep.to_json()
        for chk in report.doc["frobenius"]["checks"]:
            _print_check(chk)
        print(f"  surjective: {rep.surjective}")
        suite_ok = verdict(rep)
        check = {"check": f"{name}-suite", "ok": suite_ok}
        if expected:
            check["expected"] = expected
        report.add_check(check)
        print(f"suite ({line}): {'ok' if suite_ok else 'FAIL'}")
        code = 0 if suite_ok else 1
    else:
        raise FormatError(f"unknown example {name!r}")
    return code


# -- report-verify -----------------------------------------------------------------
#
# A replay rule takes the report and one failed check and returns one
# boolean per recorded failure: does it still fail?  Malformed records
# raise FormatError.

def _rebuild_map(report_doc):
    inputs = report_doc.get("inputs", {})
    if "map" in inputs:
        return ff.map_from_doc(inputs["map"]["doc"])
    return _example_map(report_doc.get("example") or {})


def _witness(chk, carriers):
    raw = chk.get("witness")
    if not isinstance(raw, list) or len(raw) != len(carriers):
        raise FormatError(f"{chk.get('check')} witness {raw!r} must have "
                          f"{len(carriers)} elements")
    return tuple(_witness_element(r, c) for r, c in zip(raw, carriers))


def _witness_element(raw, carrier):
    dim = getattr(carrier, "dim", None)
    if carrier.is_finite:
        if type(raw) is int and 0 <= raw < carrier.size:
            return raw
    elif dim is not None:
        try:
            return RationalSubspace.from_json(raw, dim)
        except ValueError:
            pass
    raise FormatError(f"witness element {raw!r} is not an element of "
                      f"{carrier!r}")


def _replay_document(doc, chk):
    """A validate failure: a law witness, or the error of reloading."""
    entry = doc.get("inputs", {}).get(chk.get("input"))
    if entry is None:
        raise FormatError(f"{chk.get('check')} check names no embedded input")
    try:
        parts = _parts(chk.get("check"), entry["doc"])
    except LatticeError as e:
        return [type(e).__name__ == chk.get("law")]
    for part, laws, law_args, carrier in parts:
        if part == chk.get("part"):
            law = next((law for law in laws if law.name == chk.get("law")),
                       None)
            if law is None:
                raise FormatError(f"no {part} law {chk.get('law')!r}")
            witness = _witness(chk, [carrier] * law.arity)
            return [not law.holds(*law_args, *witness)]
    return [False]


def _replay_map_law(doc, chk):
    p = _rebuild_map(doc)
    name = chk["check"]
    carriers = [p.target if r == "x" else p.source
                for r in MAP_LAWS[name][0]]
    witness = _witness(chk, carriers)
    try:
        return [violates(p, name, witness)]
    except MissingDirectImage:
        return [False]


def _replay_wos(doc, chk):
    pool, seed = chk.get("pool"), chk.get("seed")
    if not (type(pool) is int and pool > 0 and type(seed) is int):
        raise FormatError("wos check records no pool and seed")
    return [not frobenius_report(_rebuild_map(doc), pool, seed).wos_consistent]


def _replay_relation_compatibility(doc, chk):
    from .freeprod import PullbackContext, Word, word_direct_image
    pdoc = doc["inputs"]["p"]["doc"]
    fdoc = doc["inputs"]["f"]["doc"]
    ctx = PullbackContext.build(ff.map_from_doc(pdoc), ff.map_from_doc(fdoc),
                                verify=False)
    out = []
    for fam in chk.get("families", {}).values():
        for failure in fam.get("failures", []):
            inst = failure["instance"]
            lw = Word(tuple((t, e) for t, e in inst["left"]))
            rw = Word(tuple((t, e) for t, e in inst["right"]))
            out.append(word_direct_image(ctx, lw) != word_direct_image(ctx, rw))
    return out


_REPLAY_RULES = {
    "lattice": _replay_document,
    "quantale": _replay_document,
    "map": _replay_document,
    "wos": _replay_wos,
    "relation-compatibility": _replay_relation_compatibility,
    **{name: _replay_map_law for name in MAP_LAWS},
}


def cmd_report_verify(args, report):
    doc = ff.load_json(args.path)
    if doc.get("schema") != SCHEMA:
        raise FormatError(f"unsupported report schema {doc.get('schema')!r}")
    checks = doc.get("checks", [])
    if not (isinstance(checks, list) and all(
            isinstance(c, dict) and isinstance(c.get("ok"), bool)
            for c in checks)):
        raise FormatError("report checks must be objects with a boolean 'ok'")
    inputs = doc.get("inputs", {})
    if not (isinstance(inputs, dict) and all(
            isinstance(e, dict) and isinstance(e.get("doc_sha256"), str)
            for e in inputs.values())):
        raise FormatError("report inputs must be objects with a 'doc_sha256'")
    edited = [role for role, e in inputs.items()
              if ff.doc_digest(e.get("doc")) != e["doc_sha256"]]
    # a failure replayed against an edited input would show nothing
    failures = [(f"input {role}", "embedded doc does not match its "
                                  "doc_sha256; nothing replayed")
                for role in edited]
    replayed = 0
    verdict = "pass" if all(c["ok"] for c in checks) else "violation"
    if doc.get("verdict") != verdict:
        failures.append(("verdict", f"recorded {doc.get('verdict')!r}, "
                                    f"the checks give {verdict!r}"))
    for chk in checks:
        if chk["ok"] or edited:
            continue
        kind = chk.get("check")
        rule = _REPLAY_RULES.get(kind)
        if rule is None:
            failures.append((kind, "no replay rule; not replayed"))
            continue
        results = rule(doc, chk)
        replayed += len(results)
        if not results:
            failures.append((kind, "no recorded failure to replay"))
        failures += [(kind, "recorded failure does not replay")
                     ] * results.count(False)
    print(f"replayed {replayed} witnesses, {len(failures)} problems")
    for kind, why in failures:
        print(f"  {kind}: {why}")
    return 1 if failures else 0


# -- entry point --------------------------------------------------------------------

def _maxlen(text):
    try:
        return check_maxlen(int(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quantales",
        description="construct and check involutive quantales, their maps, "
                    "quotients, tensors and pullbacks")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", help="validate lattice/quantale/map files")
    sp.add_argument("paths", nargs="+")
    sp.add_argument("--report")

    sp = sub.add_parser("check-map", help="run openness checks on a map file")
    sp.add_argument("--map", required=True)
    sp.add_argument("--semiopen", action="store_true")
    sp.add_argument("--fr1", action="store_true")
    sp.add_argument("--fr1-right", dest="fr1_right", action="store_true")
    sp.add_argument("--fr2", action="store_true")
    sp.add_argument("--wos", action="store_true")
    sp.add_argument("--locale-meet", dest="locale_meet", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pool", type=int, default=50)
    sp.add_argument("--report")

    sp = sub.add_parser("quotient", help="quotient a quantale by a relation")
    sp.add_argument("--quantale", required=True)
    sp.add_argument("--relation", required=True)
    sp.add_argument("--out")
    sp.add_argument("--report")

    sp = sub.add_parser("tensor", help="enumerate small tensor products")
    sp.add_argument("--lattices", nargs="+", required=True)
    sp.add_argument("--bound", type=int, default=4096)
    sp.add_argument("--report")

    sp = sub.add_parser("pullback-verify",
                        help="verify the pullback identities for p along f")
    sp.add_argument("--p", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--maxlen", type=_maxlen, default=4)
    sp.add_argument("--traces", type=int, default=DEFAULT_TRACES)
    sp.add_argument("--report")

    sp = sub.add_parser("example", help="materialize or probe a named example")
    sp.add_argument("name", choices=["rel", "group", "matrix-max",
                                     "group-algebra", "locale",
                                     "omega-support", "delta-embedding"])
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--group", default="z2")
    sp.add_argument("--which", default="sierpinski")
    sp.add_argument("--out")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pool", type=int, default=50)
    sp.add_argument("--report")

    sp = sub.add_parser("report-verify", help="replay the witnesses of a report")
    sp.add_argument("path")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handlers = {
        "validate": cmd_validate,
        "check-map": cmd_check_map,
        "quotient": cmd_quotient,
        "tensor": cmd_tensor,
        "pullback-verify": cmd_pullback_verify,
        "example": cmd_example,
        "report-verify": cmd_report_verify,
    }
    report = _Report(argv, seed=getattr(args, "seed", None))
    try:
        code = handlers[args.cmd](args, report)
    except (FormatError, OSError, NotUnital, NotALocale, NotASquare,
            ex.TooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (LatticeError, InvalidQuantale) as e:
        print(f"violation: {e}", file=sys.stderr)
        return 1
    report.finish("pass" if code == 0 else "violation")
    report.write(getattr(args, "report", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
