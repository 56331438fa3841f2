"""Command-line front end: load structures, run checkers, emit JSON reports.

Exit codes: 0 every recorded check passed, 1 some recorded check failed,
2 usage or input error.  Reports carry a schema version, the command line,
sha256 digests plus embedded copies of the inputs, per-check verdicts with
witnesses and timing, so that `report-verify` can replay every recorded
failure of the top-level checks.  A subcommand fills the report that
`main` opens; `main` then derives the verdict and the exit code from its
checks, by the rule that `report-verify` applies, and writes it (a
subcommand that raises writes none).  Each input's `doc_sha256` is
computed when the report is written, from the very text that the report
embeds (`fileformats.save_report`).  `main` builds only the parser of
the command named, once per process, and parses argv once.  Before any
check runs it refuses, with exit 2, an output path (`--report`, `--out`,
or the file `example` writes) that resolves to an input of the command
or to its other output, and `--out` on a suite example, which writes no file.

`report-verify` fails closed: every embedded input must match its
`doc_sha256` (the digest of its canonical JSON), the verdict must agree
with the checks, and each failed check is replayed through the
definition that produced it (a law witness by the law engine on
one-element pools, a structural failure by reloading the embedded input,
a relation failure by rebuilding its instance from family, x and
parameters, a failed pullback hypothesis by rerunning the battery on the
embedded p) or counted as a problem.  Each problem is a failed check of
its own report, which it never writes.  The nested `frobenius` and
`hypothesis` blocks are not read yet.
"""

import argparse
import functools
import os
import sys
import time

from . import examples as ex
from . import fileformats as ff
from . import __version__
from .fileformats import FormatError
from .freeprod import (CORE_PARAMETERS, DEFAULT_TRACES, DEFINITION_OF_H,
                       Q_TAG, REDUCTION, Y_FREE_COROLLARY, Y_LETTER_LEMMA,
                       Y_TAG, HypothesisNotSatisfied, NotASquare,
                       PullbackContext, check_maxlen, core_failure,
                       verify_adjunction_on_words, verify_beck_chevalley,
                       verify_pullback_frobenius,
                       verify_relation_compatibility)
from .laws import fails_at
from .nucleus import nucleus_from_relation, quotient
from .openness import (BATTERY, MAP_LAWS, MissingDirectImage, NotALocale,
                       NotUnital, check_locale_meet_lemma, frobenius_report,
                       violates)
from .quantale import (HOM_LAWS, QUANTALE_LAWS, InvalidQuantale,
                       validate_hom, validate_quantale)
from .subspaces import RationalSubspace
from .suplattice import LatticeError, join_irreducibles
from .tensor import EnumerationBoundExceeded, TensorLattice, swap_map, unit_iso

SCHEMA = 1


def _verdict(checks):
    return "pass" if all(c["ok"] for c in checks) else "violation"


class _Report:
    def __init__(self, argv):
        self.doc = {
            "schema": SCHEMA,
            "tool": f"quantales {__version__}",
            "command": list(argv),
            "inputs": {},
            "checks": [],
        }
        self.t0 = time.perf_counter()

    def load(self, role, path):
        # `ff.save_report` adds the doc_sha256 when it encodes the document
        doc, sha = ff.load_json(path, with_sha256=True)
        self.doc["inputs"][role] = {"path": path, "sha256": sha, "doc": doc}
        return doc

    def add_check(self, check_doc):
        self.doc["checks"].append(check_doc)

    def finish(self):
        self.doc["verdict"] = _verdict(self.doc["checks"])
        self.doc["elapsed_s"] = round(time.perf_counter() - self.t0, 3)
        return int(self.doc["verdict"] == "violation")


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
    for path in args.paths:
        doc = report.load(path, path)
        kind = ff.sniff_kind(doc)
        print(f"{path}: {kind}")
        check = {"check": kind, "ok": True}
        try:
            parts = _parts(kind, doc)
            # the quantale laws are decided or swept on join-irreducibles
            sizes = {part: len(join_irreducibles(carrier.carrier))
                     for part, laws, _, carrier in parts
                     if laws is QUANTALE_LAWS}
            reduction = {"reduction": "join-irreducibles",
                         "join_irreducibles": sizes} if sizes else {}
            check.update(reduction)
            for part, laws, law_args, _ in parts:
                validate = validate_hom if laws is HOM_LAWS else \
                    validate_quantale
                v = validate(*law_args)
                if v is not None:
                    check = {"check": kind, "ok": False, "part": part,
                             "law": v.law, "witness": list(v.witness),
                             "detail": v.detail, **reduction}
                    break
        except LatticeError as e:
            check = {"check": kind, "ok": False, "law": type(e).__name__,
                     "witness": list(getattr(e, "witness", ()) or ()),
                     "detail": str(e)}
        check["input"] = path
        report.add_check(check)
        _print_check(check)


# -- check-map ------------------------------------------------------------------

# the checks of check-map, one flag each; the first four run by default
_MAP_CHECKS = (*BATTERY[:4], "wos", "locale-meet")


def cmd_check_map(args, report):
    # a map file has finite carriers, which are swept exhaustively:
    # --pool and --seed are accepted and unused
    rep = frobenius_report(ff.map_from_doc(report.load("map", args.map)))
    requested = [name for name in _MAP_CHECKS if getattr(args, name)] \
        or _MAP_CHECKS[:4]

    if rep.certified is None:
        # every other check needs p_!, so its absence fails each of them
        chk = rep.semiopen.to_json()
        report.add_check(chk)
        _print_check(chk)
        if set(requested) - {"semiopen"}:
            print("  (remaining checks skipped: map is not semiopen)")
        return

    for name in requested:
        if name in BATTERY:
            chk = getattr(rep, name).to_json()
        elif name == "wos":
            if rep.unit_identity is None:
                raise NotUnital("target has no declared unit")
            chk = {"check": "wos", "map": rep.map_name,
                   "weakly_open": rep.weakly_open,
                   "unit_identity": rep.unit_identity,
                   "surjective": rep.surjective,
                   "consistent": rep.wos_consistent,
                   "ok": rep.wos_consistent}
        else:
            lm = check_locale_meet_lemma(rep)
            chk = {**lm.to_json(), "check": "locale-meet",
                   "ok": lm.meet_preserved is not False}
        report.add_check(chk)
        _print_check(chk)
    report.doc["surjective"] = rep.surjective
    print(f"  surjective: {rep.surjective}")


# -- quotient ---------------------------------------------------------------------

def cmd_quotient(args, report):
    qdoc = report.load("quantale", args.quantale)
    rdoc = report.load("relation", args.relation)
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


# -- tensor ------------------------------------------------------------------------

def cmd_tensor(args, report):
    lattices = [ff.lattice_from_doc(report.load(path, path))
                for path in args.lattices]
    T = TensorLattice(tuple(lattices), bound=args.bound)
    count = len(T.elements())
    print(f"tensor of {[l.size for l in lattices]} has {count} elements")
    report.add_check({"check": "tensor-count", "ok": True, "count": count})
    if len(lattices) == 2:
        T_rev = TensorLattice((lattices[1], lattices[0]), bound=args.bound)
        swapped = {swap_map(T_rev, g) for g in T.elements()}
        sym_ok = swapped == set(T_rev.elements())
        print(f"symmetry bijection onto the reversed tensor: {sym_ok}")
        report.add_check({"check": "tensor-symmetry", "ok": sym_ok})
        if lattices[0].size == 2:
            to_l, from_l = unit_iso(T)
            round1 = all(to_l.values[from_l.values[l]] == l
                         for l in lattices[1].elements)
            round2 = all(from_l.values[to_l.values[i]] == i
                         for i in range(len(T.elements())))
            print(f"unit collapse onto the second factor: {round1 and round2}")
            report.add_check({"check": "tensor-unit-iso",
                              "ok": round1 and round2})


# -- pullback-verify ------------------------------------------------------------------

def cmd_pullback_verify(args, report):
    docs = report.load("p", args.p), report.load("f", args.f)
    p, f = (ff.map_from_doc(doc) for doc in docs)
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
        return
    report.doc["hypothesis"] = ctx.report.to_json()
    report.add_check({"check": "pullback-hypothesis", "ok": True})

    scope = REDUCTION["scope"]
    rc = verify_relation_compatibility(ctx, args.maxlen)
    report.add_check({"check": "relation-compatibility", "ok": rc.ok,
                      **rc.to_json()})
    print(f"relation compatibility: {'ok' if rc.ok else 'FAIL'} "
          f"({rc.total_instances} cores over {len(rc.families)} families, "
          f"{scope}; Y-neighbours by the {Y_FREE_COROLLARY})")
    for fam, res in sorted(rc.families.items()):
        print(f"    {fam:<11} [{res.hypothesis:<12}] "
              f"{res.instances:>7} cores, {len(res.failures)} failures")

    adj = verify_adjunction_on_words(ctx, args.maxlen, max_traces=args.traces)
    report.add_check({"check": "adjunction-on-words", "ok": adj.ok,
                      **adj.to_json(ctx)})
    print(f"adjunction on words: {'ok' if adj.ok else 'FAIL'} "
          f"({ctx.Q.size} base units and {adj.cores} cores, {scope}, "
          f"Y-neighbours by the {Y_FREE_COROLLARY}; "
          f"{adj.traces_kept} rewrite traces of words up to length "
          f"{args.maxlen} recorded)")

    bc = verify_beck_chevalley(ctx)
    report.add_check({"check": "beck-chevalley", "ok": bc.ok, **bc.to_json()})
    print(f"beck-chevalley: ok (by the {DEFINITION_OF_H})")

    pf = verify_pullback_frobenius(ctx, args.maxlen)
    report.add_check({"check": "pullback-frobenius", **pf.to_json()})
    print(f"pullback frobenius: ok (both module conditions and "
          f"{len(pf.cases)} case shapes, {scope}, by the {Y_LETTER_LEMMA})")


# -- example -----------------------------------------------------------------------

def _group_by_name(name):
    if name == "z2":
        return ex.cyclic_group(2)
    if name == "z3":
        return ex.cyclic_group(3)
    if name == "s3":
        return ex.symmetric_group_3()
    raise FormatError(f"unknown group {name!r} (use z2, z3 or s3)")


def _locale(which):
    locales = {"sierpinski": ex.sierpinski_closed_point_map,
               "two-point": ex.discrete_to_point_map,
               "open-inclusion": ex.open_inclusion_map}
    if which not in locales:
        raise FormatError(f"unknown locale example {which!r}")
    return locales[which]()


def _powerset(group):
    return ex.group_powerset_quantale(_group_by_name(group))


# example -> (its option, the option's type, the builder that takes the
# option's value, and either the name of the file it writes, with "{}" for
# the value, or its suite: (suite line, `expected` of the suite check,
# suite verdict of the frobenius report)); in the order of `--help`
_EXAMPLES = {
    "rel": ("n", int, ex.rel_quantale, "rel{}.quantale.json"),
    "group": ("group", str, _powerset, "p-{}.quantale.json"),
    "matrix-max": ("n", int, ex.matrix_support_map, (
        "semiopen surjection with fr1 and fr2", None,
        lambda rep: rep.hypothesis_for_pullback)),
    "group-algebra": (
        "group", str,
        lambda name: ex.group_algebra_support_map(_group_by_name(name)), (
            "fr1 holds, fr2 fails with witness",
            "fr1 holds, fr2 has a witness",
            lambda rep: rep.fr1.ok and rep.fr1_right.ok and rep.surjective
            and not rep.fr2.ok)),
    "locale": ("which", str, _locale, "locale-{}.map.json"),
    "omega-support": ("group", str,
                      lambda name: ex.omega_support_map(_powerset(name)),
                      "omega-support-{}.map.json"),
    "delta-embedding": ("n", int, ex.delta_embedding_map,
                        "delta-embedding-{}.map.json"),
}


def _example_map(example):
    """The support map that an effective example runs its suite on, from the
    report's `example` record."""
    name = example.get("name") if isinstance(example, dict) else None
    # a name that is not a string, such as a list, names no example
    if not (isinstance(name, str) and name in _EXAMPLES
            and not isinstance(_EXAMPLES[name][3], str)):
        raise FormatError("the report embeds no map to replay against")
    option, kind, build, _ = _EXAMPLES[name]
    value = example.get(option)
    if type(value) is not kind:  # a bool is not an int here
        raise FormatError(f"example {option} {value!r} is not "
                          f"{'an int' if kind is int else 'a string'}")
    return build(value)


def _example_path(args):
    """The file that `example` writes, or None for a suite example."""
    option, _, _, output = _EXAMPLES[args.name]
    if not isinstance(output, str):
        return None
    return os.path.join(args.out or ".", output.format(getattr(args, option)))


def cmd_example(args, report):
    name = args.name
    option, _, build, output = _EXAMPLES[name]
    if isinstance(output, str):
        to_doc = ff.map_to_doc if output.endswith(".map.json") \
            else ff.quantale_to_doc
        doc = to_doc(build(getattr(args, option)))
        os.makedirs(args.out or ".", exist_ok=True)
        path = _example_path(args)
        ff.save_json(path, doc)
        print(f"wrote {path}")
        report.add_check({"check": "materialize", "ok": True,
                          "files": [os.path.basename(path)]})
    else:
        line, expected, verdict = output
        example = {"name": name, option: getattr(args, option)}
        rep = frobenius_report(_example_map(example))
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


# -- report-verify -----------------------------------------------------------------
#
# A replay rule takes the report and one failed check and returns one
# boolean per recorded failure: does it still fail?  Malformed records
# raise FormatError.

def _rebuild_map(report_doc):
    inputs = report_doc.get("inputs", {})
    if "map" in inputs:
        return ff.map_from_doc(inputs["map"]["doc"])
    return _example_map(report_doc.get("example"))


def _witness(chk, carriers):
    raw = chk.get("witness")
    if not isinstance(raw, list) or len(raw) != len(carriers):
        raise FormatError(f"{chk.get('check')} witness {raw!r} must have "
                          f"{len(carriers)} elements")
    return tuple(_witness_element(r, c) for r, c in zip(raw, carriers))


def _witness_element(raw, carrier):
    dim = getattr(carrier, "dim", None)
    if isinstance(carrier, ex.GroupoidPowerset):
        # a subset of G is the bitmask of its arrows, its index in P(G)
        size = 1 << carrier.groupoid.size
    else:
        size = carrier.size if carrier.is_finite else None
    if size is not None:
        if type(raw) is int and 0 <= raw < size:
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
            return [fails_at(law, law_args,
                             _witness(chk, [carrier] * law.arity))]
    return [False]


def _replay_map_law(doc, chk):
    p, name = _rebuild_map(doc), chk["check"]
    witness = _witness(chk, [p.target if r == "x" else p.source
                             for r in MAP_LAWS[name].roles])
    try:
        return [violates(p, name, witness)]
    except MissingDirectImage:
        return [False]


def _replay_wos(doc, chk):
    # check-map sweeps a map file exhaustively, so the pool and seed
    # that older wos records carry are ignored
    return [not frobenius_report(_rebuild_map(doc)).wos_consistent]


def _replay_pullback_hypothesis(doc, chk):
    # p, rebuilt from its embedded document, fails `PullbackContext.build`
    if "p" not in doc.get("inputs", {}):
        raise FormatError("pullback-hypothesis needs the embedded p")
    p = ff.map_from_doc(doc["inputs"]["p"]["doc"])
    return [not frobenius_report(p).hypothesis_for_pullback]


def _replay_relation_compatibility(doc, chk):
    """Rebuild each recorded failure from its family, x and parameters; it
    replays when it is filed under its family and equals, field for field,
    the failure record that the check writes for that core."""
    inputs = doc.get("inputs", {})
    if not {"p", "f"} <= inputs.keys():
        raise FormatError("relation-compatibility needs the embedded p and f")
    ctx = PullbackContext.build(ff.map_from_doc(inputs["p"]["doc"]),
                                ff.map_from_doc(inputs["f"]["doc"]),
                                verify=False)
    # compared as canonical JSON, in which the rebuilt tuples are lists
    return [filed == family and ff.doc_digest(recorded) ==
            ff.doc_digest(core_failure(ctx, family, x, values))
            for filed, family, x, values, recorded
            in _relation_records(ctx, chk)]


def _relation_records(ctx, chk):
    """(family it is filed under, family, x, parameters, record) of each
    recorded failure, every element checked against its carrier."""
    carrier_of = {Y_TAG: ctx.Y, Q_TAG: ctx.Q}
    try:
        records = []
        for filed, res in chk.get("families", {}).items():
            for failure in res.get("failures", []):
                inst, params = failure["instance"], failure["parameters"]
                names = CORE_PARAMETERS[inst["family"]]
                if sorted(params) != sorted(names):
                    raise FormatError(f"parameters {params!r} do not name "
                                      f"the {inst['family']} core")
                values = {n: _witness_element(
                    params[n], ctx.Q if n[0] == "a" else ctx.Y) for n in names}
                for word in (inst["left"], inst["right"]):
                    for tag, e in word:
                        _witness_element(e, carrier_of[tag])
                x = _witness_element(inst["x"], ctx.X)
                records.append((filed, inst["family"], x, values, failure))
        return records
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed relation failure: {e}") from None


_REPLAY_RULES = {
    "lattice": _replay_document,
    "quantale": _replay_document,
    "map": _replay_document,
    "wos": _replay_wos,
    "pullback-hypothesis": _replay_pullback_hypothesis,
    "relation-compatibility": _replay_relation_compatibility,
    **{name: _replay_map_law for name in MAP_LAWS},
}


def cmd_report_verify(args, report):
    doc = ff.load_json(args.path)
    if not isinstance(doc, dict):
        raise FormatError("a report must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise FormatError(f"unsupported report schema {doc.get('schema')!r}")
    checks = doc.get("checks", [])
    if not (isinstance(checks, list) and all(
            isinstance(c, dict) and isinstance(c.get("ok"), bool)
            and isinstance(c.get("check"), str)
            and isinstance(c.get("input", ""), str) for c in checks)):
        raise FormatError("report checks must be objects with a string "
                          "'check', a boolean 'ok' and, if any, a string "
                          "'input'")
    inputs = doc.get("inputs", {})
    if not (isinstance(inputs, dict) and all(
            isinstance(e, dict) and isinstance(e.get("doc"), dict)
            and isinstance(e.get("doc_sha256"), str)
            for e in inputs.values())):
        raise FormatError("report inputs must be objects with a 'doc' "
                          "object and a 'doc_sha256'")
    edited = [role for role, e in inputs.items()
              if ff.doc_digest(e["doc"]) != e["doc_sha256"]]
    # a failure replayed against an edited input would show nothing
    failures = [(f"input {role}", "embedded doc does not match its "
                                  "doc_sha256; nothing replayed")
                for role in edited]
    replayed = 0
    verdict = _verdict(checks)
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
        report.add_check({"check": kind, "ok": False, "detail": why})


# -- entry point --------------------------------------------------------------------

def _maxlen(text):
    try:
        return check_maxlen(int(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _at_least(minimum):
    """An argparse type for integers >= minimum: smaller ones are usage
    errors rather than values the checkers or a replay would refuse."""
    def count(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{value} is below the least allowed value {minimum}")
        return value
    return count


# command -> (help line, handler, the options naming the files it reads)
_COMMANDS = {
    "validate": ("validate lattice/quantale/map files", cmd_validate,
                 ("paths",)),
    "check-map": ("run openness checks on a map file", cmd_check_map,
                  ("map",)),
    "quotient": ("quotient a quantale by a relation", cmd_quotient,
                 ("quantale", "relation")),
    "tensor": ("enumerate small tensor products", cmd_tensor,
               ("lattices",)),
    "pullback-verify": ("verify the pullback identities for p along f",
                        cmd_pullback_verify, ("p", "f")),
    "example": ("materialize a named example or run its suite",
                cmd_example, ()),
    "report-verify": ("replay the witnesses of a report",
                      cmd_report_verify, ()),
}


def _with_arguments(sp, cmd):
    if cmd == "validate":
        sp.add_argument("paths", nargs="+")
    elif cmd == "check-map":
        sp.add_argument("--map", required=True)
        for name in _MAP_CHECKS:
            sp.add_argument("--" + name.replace("_", "-"), dest=name,
                            action="store_true")
    elif cmd == "quotient":
        sp.add_argument("--quantale", required=True)
        sp.add_argument("--relation", required=True)
        sp.add_argument("--out")
    elif cmd == "tensor":
        sp.add_argument("--lattices", nargs="+", required=True)
        sp.add_argument("--bound", type=_at_least(1), default=4096)
    elif cmd == "pullback-verify":
        sp.add_argument("--p", required=True)
        sp.add_argument("--f", required=True)
        sp.add_argument("--maxlen", type=_maxlen, default=4)
        sp.add_argument("--traces", type=_at_least(0), default=DEFAULT_TRACES)
    elif cmd == "example":
        sp.add_argument("name", choices=list(_EXAMPLES))
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--group", default="z2")
        sp.add_argument("--which", default="sierpinski")
        sp.add_argument("--out")
    else:  # report-verify, which writes no report
        sp.add_argument("path")
        return sp
    if cmd in ("check-map", "example"):
        unused = "accepted and unused: every check is exhaustive or decided"
        sp.add_argument("--seed", type=int, default=0, help=unused)
        sp.add_argument("--pool", type=_at_least(1), default=50, help=unused)
    sp.add_argument("--report")
    return sp


def _clobber(args):
    """An error naming an output path that resolves to an input of the
    same command or to its other output, or `--out` on a suite example,
    which writes no file; or None."""
    files = []
    for option in _COMMANDS[args.cmd][2]:
        value = getattr(args, option)
        files += [("input", path) for path in
                  (value if isinstance(value, list) else [value])]
    writes = [getattr(args, "report", None)]
    if args.cmd == "quotient":
        writes.append(args.out)
    elif args.cmd == "example":
        path = _example_path(args)
        if path is None and args.out is not None:
            return (f"example {args.name} runs its suite and writes no file; "
                    "--out is not accepted")
        writes.append(path)
    for path in writes:
        if path is None:
            continue
        real = os.path.realpath(path)
        for role, other in files:
            if os.path.realpath(other) == real:
                return (f"output {path} is the same file as {role} {other}; "
                        f"refusing to overwrite it")
        files.append(("output", path))
    return None


@functools.cache
def _parser(cmd):
    # cmd's parser as `add_parser` builds it, or with None the full tree;
    # kept, since `parse_args` leaves a parser as it was
    if cmd:
        return _with_arguments(
            argparse.ArgumentParser(prog=f"quantales {cmd}"), cmd)
    parser = argparse.ArgumentParser(
        prog="quantales",
        description="construct and check involutive quantales, their maps, "
                    "quotients, tensors and pullbacks")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _with_arguments(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # the full tree only where argv names no command or leaves some unparsed
    cmd = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args, extra = _parser(cmd).parse_known_args(argv[1:] if cmd else argv)
        if extra:
            args = _parser(None).parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    args.cmd = cmd or args.cmd
    clobber = _clobber(args)
    if clobber is not None:
        print(f"error: {clobber}", file=sys.stderr)
        return 2
    report = _Report(argv)
    try:
        # looked up by name, so that a patched handler is the one called
        globals()[_COMMANDS[args.cmd][1].__name__](args, report)
    except (FormatError, OSError, NotUnital, NotALocale, NotASquare,
            ex.TooLarge, EnumerationBoundExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (LatticeError, InvalidQuantale) as e:
        print(f"violation: {e}", file=sys.stderr)
        return 1
    code = report.finish()
    try:
        if getattr(args, "report", None):
            ff.save_report(args.report, report.doc)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
