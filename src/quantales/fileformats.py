"""JSON documents for lattices, quantales, maps and relation presentations.

Lattice:   {"elements": [names...], "leq": [[i, j], ...],
            "leq_is"?: "covers"}
Quantale:  {"lattice": <lattice>, "mult": [[i, j, k], ...],
            "mult_on"?: "join-irreducibles", "inv": [[i, j], ...], "unit": i?}
Map:       {"source": <quantale>, "target": <quantale>,
            "inverse_image": [[x, q], ...], "name"?: str}
Relation:  {"pairs": [[r, s], ...]}

Element names are distinct.  Without "leq_is", `leq` lists pairs i <= j
of the order, and reflexive ones may be omitted; with "leq_is": "covers"
the order is the reflexive-transitive closure of the pairs, which the
writer gives as the covering pairs (i below j, nothing between).  Without
"mult_on", `mult` gives the product of every pair of elements.  With
"mult_on": "join-irreducibles" it gives the products of the pairs of
join-irreducibles J exactly, on a distributive carrier, and the loader
extends them to the whole table (`FiniteInvQuantale.from_join_irreducibles`:
ab is the join of ij over the i in J below a and j in J below b).

The writer gives every lattice by its covers, and the product of a
quantale on J x J exactly when `from_join_irreducibles` built its table,
as it builds P(G) and Rel(n): 36 products for P(S3) and 81 for Rel(3),
where the full tables have 4,096 and 262,144.  Every other quantale,
a quotient among them, is written with its full table, although its
carrier may be distributive, so that readers of those files keep the
form they read.  Both forms load, so older files and reports load and
replay as before.

Every file written here, documents and reports alike, holds the
document's canonical JSON on one line (`canonical_json`: sorted keys,
"," and ":" as separators) and a newline.  That line is the text whose
sha256 a report records as an input's `doc_sha256`; the input's `sha256`
digests the file as it lies on disk.  `save_report` computes each
`doc_sha256` when it writes the report, from the very text that the
report embeds, so each input document is encoded once.
`python -m json.tool FILE` prints it indented.  A file written in the
indented layout of earlier versions loads to the same value and so keeps
its `doc_sha256`; only its file `sha256` differs from that of the same
document written now.

Loaders raise FormatError for malformed documents; semantic failures (a
relation that is not a lattice, a table that is not a quantale, a table
that is not a homomorphism) surface as the validation errors of the
owning modules.
"""

from __future__ import annotations

import hashlib
import json

from .quantale import FiniteInvQuantale, QuantaleMap, require, \
    validate_hom, validate_quantale
from .suplattice import distributive_peeling, join_irreducibles, \
    validate_lattice


class FormatError(ValueError):
    pass


def _require(doc, key, kind):
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise FormatError(f"key {key!r} must be {kind.__name__}")
    return value


def _int_pairs(raw, what):
    out = []
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise FormatError(f"{what} entries must be pairs")
        i, j = entry
        if not (type(i) is int and type(j) is int):
            raise FormatError(f"{what} entries must hold integers")
        out.append((i, j))
    return out


def _function_table(doc, key, size, codomain):
    """The value table of a total function from 0..size-1 to
    0..codomain-1, given under `key` as [i, value] pairs, one per i."""
    table = [None] * size
    for i, j in _int_pairs(_require(doc, key, list), key):
        if not (0 <= i < size and 0 <= j < codomain):
            raise FormatError(f"{key} pair ({i},{j}) out of range")
        if table[i] is not None:
            raise FormatError(f"duplicate {key} entry for {i}")
        table[i] = j
    if None in table:
        raise FormatError(f"{key} table incomplete")
    return table


def _compact(doc, key, value):
    """Whether `doc` marks its compact form by key: value; a missing key
    means the full form."""
    if key not in doc:
        return False
    if doc[key] != value:
        raise FormatError(f"unknown {key} {doc[key]!r}; the only value "
                          f"is {value!r}")
    return True


def lattice_to_doc(lat):
    return {"elements": list(lat.names), "leq": list(map(list, lat.covers())),
            "leq_is": "covers"}


def lattice_from_doc(doc):
    names = _require(doc, "elements", list)
    if not all(isinstance(n, str) for n in names):
        raise FormatError("element names must be strings")
    if len(set(names)) < len(names):
        twice = next(name for name in names if names.count(name) > 1)
        raise FormatError(f"element name {twice!r} is repeated")
    covers = _compact(doc, "leq_is", "covers")
    pairs = _int_pairs(_require(doc, "leq", list), "leq")
    n = len(names)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise FormatError(f"leq pair ({i},{j}) out of range")
    return validate_lattice(pairs, size=n, names=names, covers=covers)


def quantale_to_doc(q):
    # a table that from_join_irreducibles built is written on J x J
    compact = q._j_extended is q.mult_table
    on = join_irreducibles(q.carrier) if compact else q.elements
    doc = {
        "lattice": lattice_to_doc(q.carrier),
        "mult": [[i, j, q.mult(i, j)] for i in on for j in on],
        "inv": [[i, q.inv(i)] for i in q.elements],
    }
    if compact:
        doc["mult_on"] = "join-irreducibles"
    if q.unit is not None:
        doc["unit"] = q.unit
    return doc


def quantale_from_doc(doc, validate=True, label=""):
    carrier = lattice_from_doc(_require(doc, "lattice", dict))
    n = carrier.size
    compact = _compact(doc, "mult_on", "join-irreducibles")
    if compact and distributive_peeling(carrier) is None:
        raise FormatError("mult_on join-irreducibles needs a distributive "
                          "lattice, and this one is not")
    on = join_irreducibles(carrier) if compact else range(n)
    given = [False] * n
    for i in on:
        given[i] = True
    mult = [[None] * n for _ in range(n)]
    for entry in _require(doc, "mult", list):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise FormatError("mult entries must be triples")
        i, j, k = entry
        # spelled out: a generator over (i, j, k) per entry was about half
        # of loading Rel(3)
        if not (type(i) is int and type(j) is int and type(k) is int
                and 0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise FormatError(f"mult triple {entry} out of range")
        if not (given[i] and given[j]):
            raise FormatError(f"mult pair ({i},{j}) is not in J x J")
        if mult[i][j] is not None:
            raise FormatError(f"duplicate mult entry for ({i},{j})")
        mult[i][j] = k
    for i in on:
        for j in on:
            if mult[i][j] is None:
                raise FormatError(f"mult entry for ({i},{j}) missing")
    inv = _function_table(doc, "inv", n, n)
    unit = doc.get("unit")
    if unit is not None and not (type(unit) is int and 0 <= unit < n):
        raise FormatError("unit out of range")
    if compact:
        q = FiniteInvQuantale.from_join_irreducibles(
            carrier, {(i, j): mult[i][j] for i in on for j in on}, inv,
            unit=unit, label=label)
    else:
        q = FiniteInvQuantale(carrier, mult, inv, unit=unit, label=label)
    if validate:
        require(validate_quantale(q))
    return q


def map_to_doc(m):
    if not (m.source.is_finite and m.target.is_finite):
        raise FormatError("only maps between finite carriers are serializable")
    doc = {
        "source": quantale_to_doc(m.source),
        "target": quantale_to_doc(m.target),
        "inverse_image": [[x, m.star(x)] for x in m.target.elements],
    }
    if m.name:
        doc["name"] = m.name
    return doc


def map_from_doc(doc, validate=True):
    source = quantale_from_doc(_require(doc, "source", dict),
                               validate=validate, label="source")
    target = quantale_from_doc(_require(doc, "target", dict),
                               validate=validate, label="target")
    table = _function_table(doc, "inverse_image", target.size, source.size)
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise FormatError("key 'name' must be str")
    m = QuantaleMap.from_table(source, target, table, name=name)
    if validate:
        require(validate_hom(m.inverse_image, target, source))
    return m


def relation_from_doc(doc, quantale):
    pairs = _int_pairs(_require(doc, "pairs", list), "pairs")
    from .nucleus import RelationPresentation
    try:
        return RelationPresentation(quantale, pairs)
    except ValueError as e:  # a pair out of range, the first in doc order
        raise FormatError(f"relation {e}") from e


def load_json(path, with_sha256=False):
    """The JSON value in a file, and with `with_sha256` also the sha256 of
    the bytes it was parsed from: the file is read once.  Text that is not
    JSON, bytes that are not UTF-8 and nesting deeper than the decoder's
    recursion limit all raise FormatError naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise FormatError(f"{path}: {e}") from e
    return (doc, hashlib.sha256(data).hexdigest()) if with_sha256 else doc


def canonical_json(doc):
    """A document's canonical text: sorted keys, compact separators.

    `json.dumps` runs CPython's C encoder only without `indent`, so this
    one call is also the fast way to write a large table.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_json(path, doc):
    """Write the canonical text and a newline.  The document is serialized
    before the file is opened, so one that cannot be (a TypeError) leaves
    an existing file as it was."""
    text = canonical_json(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _object_pieces(doc, given):
    """The canonical text of the object `doc` as a list of pieces; a key in
    `given` (key -> its value's pieces) takes those pieces as its value.
    This is `canonical_json`'s text, which for an object is "{", the
    members `"key":value` in sorted key order joined by ",", and "}"."""
    pieces = []
    for key in sorted(doc.keys() | given.keys()):
        pieces.append(("," if pieces else "{") + json.dumps(key) + ":")
        pieces += given[key] if key in given else [canonical_json(doc[key])]
    return pieces + ["}"] if pieces else ["{}"]


def save_report(path, report):
    """Write a report, filling in each input's `doc_sha256`.

    `report["inputs"]` maps each role to {"path", "sha256", "doc"}.  Each
    input document is encoded once: that text is embedded as the entry's
    `doc`, and its sha256 is recorded as `doc_sha256`.  The file holds
    `canonical_json` of the completed report and a newline, as
    `save_json` would write it.  Every piece is serialized before the file
    is opened, as in `save_json`, and each document's text is written as
    a piece of its own rather than copied into a larger string.
    """
    inputs = {}
    for role, entry in report["inputs"].items():
        text = canonical_json(entry["doc"])
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        inputs[role] = _object_pieces(entry, {"doc": [text],
                                              "doc_sha256": [json.dumps(sha)]})
    pieces = _object_pieces(report, {
        "inputs": _object_pieces(report["inputs"], inputs)})
    pieces.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def doc_digest(doc):
    """sha256 of a document's canonical text (`canonical_json`)."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def sniff_kind(doc):
    """Which document kind a JSON object represents, by its key shape."""
    if not isinstance(doc, dict):
        raise FormatError("top-level JSON value must be an object")
    if "inverse_image" in doc:
        return "map"
    if "mult" in doc:
        return "quantale"
    if "leq" in doc:
        return "lattice"
    if "pairs" in doc:
        return "relation"
    raise FormatError("unrecognized document shape")
