"""Independent generators and brute-force answers for the benchmark.

Nothing here imports the library.  Input files are written from the
definitions (group tables, powersets, products, chains), and the answers
for seeded inputs come from closed formulas or direct evaluation of the
defining equation, so a job's verdict is never checked against the code
that produced it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def _bits(mask):
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


# -- groups and groupoids, element orders as in the quantales file format ----

def cyclic_group(n):
    names = ["e" if i == 0 else ("g" if i == 1 else f"g{i}") for i in range(n)]
    mult = [[(i + j) % n for j in range(n)] for i in range(n)]
    inv = [(-i) % n for i in range(n)]
    return {"names": names, "mult": mult, "inv": inv, "units": [0]}


def symmetric_group_3():
    """S3 as sorted permutations, (p q)(i) = p(q(i))."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def name(p):
        if p == (0, 1, 2):
            return "e"
        moved = [i for i in range(3) if p[i] != i]
        if len(moved) == 2:
            return f"({moved[0]}{moved[1]})"
        return "(" + "".join(str(c) for c in (0, p[0], p[p[0]])) + ")"

    mult = [[index[tuple(p[q[i]] for i in range(3))] for q in perms]
            for p in perms]
    inv = [index[tuple(sorted(range(3), key=lambda i: p[i]))] for p in perms]
    return {"names": [name(p) for p in perms], "mult": mult, "inv": inv,
            "units": [index[(0, 1, 2)]]}


GROUPS = {"z2": lambda: cyclic_group(2), "z3": lambda: cyclic_group(3),
          "s3": symmetric_group_3}


def pair_groupoid(n):
    arrows = [(i, j) for i in range(n) for j in range(n)]
    index = {a: k for k, a in enumerate(arrows)}
    mult = [[index[(a[0], b[1])] if a[1] == b[0] else None for b in arrows]
            for a in arrows]
    return {"names": [f"({i + 1},{j + 1})" for i, j in arrows], "mult": mult,
            "inv": [index[(j, i)] for i, j in arrows],
            "units": [index[(i, i)] for i in range(n)]}


# -- quantale documents ---------------------------------------------------------

def powerset_quantale_doc(groupoid):
    """Subsets under setwise product, converse and union."""
    k = len(groupoid["names"])
    n = 1 << k
    names = ["{" + ",".join(groupoid["names"][b] for b in _bits(u)) + "}"
             for u in range(n)]
    leq = [[u, v] for u in range(n) for v in range(n) if u != v and u & ~v == 0]
    mult = []
    for u in range(n):
        for v in range(n):
            out = 0
            for a in _bits(u):
                for b in _bits(v):
                    c = groupoid["mult"][a][b]
                    if c is not None:
                        out |= 1 << c
            mult.append([u, v, out])
    inv = [[u, sum(1 << groupoid["inv"][a] for a in _bits(u))] for u in range(n)]
    unit = sum(1 << a for a in groupoid["units"])
    return {"lattice": {"elements": names, "leq": leq}, "mult": mult,
            "inv": inv, "unit": unit}


def omega_doc():
    return {"lattice": {"elements": ["0", "1"], "leq": [[0, 1]]},
            "mult": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]],
            "inv": [[0, 0], [1, 1]], "unit": 1}


def product_quantale_doc(d1, d2):
    """Componentwise product; element (a, b) has index a * |Q2| + b."""
    n1, n2 = len(d1["lattice"]["elements"]), len(d2["lattice"]["elements"])
    up1 = {(i, i) for i in range(n1)} | {tuple(p) for p in d1["lattice"]["leq"]}
    up2 = {(i, i) for i in range(n2)} | {tuple(p) for p in d2["lattice"]["leq"]}
    m1 = {(i, j): k for i, j, k in d1["mult"]}
    m2 = {(i, j): k for i, j, k in d2["mult"]}
    i1, i2 = dict(map(tuple, d1["inv"])), dict(map(tuple, d2["inv"]))
    names = [f"({a},{b})" for a in d1["lattice"]["elements"]
             for b in d2["lattice"]["elements"]]
    leq = [[a1 * n2 + a2, b1 * n2 + b2] for a1, b1 in up1 for a2, b2 in up2
           if (a1, a2) != (b1, b2)]
    mult = [[a1 * n2 + a2, b1 * n2 + b2, m1[a1, b1] * n2 + m2[a2, b2]]
            for a1 in range(n1) for a2 in range(n2)
            for b1 in range(n1) for b2 in range(n2)]
    inv = [[a1 * n2 + a2, i1[a1] * n2 + i2[a2]]
           for a1 in range(n1) for a2 in range(n2)]
    return {"lattice": {"elements": names, "leq": sorted(leq)}, "mult": mult,
            "inv": inv, "unit": d1["unit"] * n2 + d2["unit"]}


PRODUCT_FACTORS = {
    "omega": omega_doc,
    "p-z2": lambda: powerset_quantale_doc(cyclic_group(2)),
    "rel1": lambda: powerset_quantale_doc(pair_groupoid(1)),
}


def perturbed(doc, position, shift):
    """The document with the mult entry at `position` moved off its value.

    Every single-entry change of a powerset quantale of a group with at
    least three elements breaks a law: an entry on a non-atom breaks
    distributivity, an entry on two atoms a, b breaks distributivity at
    (a, b, c) for some third atom c, and an entry with a bottom argument
    breaks absorption.  So `validate` must exit 1 on the result.
    """
    n = len(doc["lattice"]["elements"])
    out = dict(doc)
    mult = [list(t) for t in doc["mult"]]
    i, j, k = mult[position]
    mult[position] = [i, j, (k + shift) % n]
    out["mult"] = mult
    return out


MALFORMED = {
    # each must be refused as an input error, exit code 2
    "truncated-json": '{"lattice": {"elements": ["0", "1"], "leq": [[0, 1]]',
    "no-mult-key": '{"lattice": {"elements": ["0"], "leq": []}, "inv": [[0, 0]]}',
    "mult-out-of-range":
        '{"lattice": {"elements": ["0", "1"], "leq": [[0, 1]]}, '
        '"mult": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 7]], '
        '"inv": [[0, 0], [1, 1]]}',
    "missing-mult-entry":
        '{"lattice": {"elements": ["0", "1"], "leq": [[0, 1]]}, '
        '"mult": [[0, 0, 0], [0, 1, 0], [1, 0, 0]], "inv": [[0, 0], [1, 1]]}',
}


# -- lattices and tensor sizes ----------------------------------------------------

def chain_doc(m):
    return {"elements": [str(i) for i in range(m)],
            "leq": [[i, j] for i in range(m) for j in range(i + 1, m)]}


def boolean_doc(k):
    n = 1 << k
    return {"elements": ["{" + ",".join(map(str, _bits(u))) + "}"
                         for u in range(n)],
            "leq": [[u, v] for u in range(n) for v in range(n)
                    if u != v and u & ~v == 0]}


LATTICES = {"chain2": (chain_doc, 2), "chain3": (chain_doc, 3),
            "chain4": (chain_doc, 4), "bool2": (boolean_doc, 2),
            "bool3": (boolean_doc, 3)}


def lattice_doc(name):
    make, arg = LATTICES[name]
    return make(arg)


def tensor_size(left, right):
    """Elements of the sup-lattice tensor of two finite distributive lattices.

    For L = O(P) and M = O(R) (down-sets of their join-irreducibles) the
    tensor is O(P x R).  A chain with m elements has an (m-1)-chain of
    join-irreducibles and the Boolean lattice on k atoms an antichain of k,
    so the down-sets of P x R are counted in closed form: lattice paths for
    two chains, (m)^k for a chain against an antichain, 2^(kl) for two
    antichains.
    """
    def shape(name):
        kind, arg = LATTICES[name]
        return ("chain", arg - 1) if kind is chain_doc else ("anti", arg)

    (k1, a), (k2, b) = shape(left), shape(right)
    if k1 == k2 == "chain":
        return math.comb(a + b, a)
    if k1 == k2 == "anti":
        return 2 ** (a * b)
    chain_len, atoms = (a, b) if k1 == "chain" else (b, a)
    return (chain_len + 1) ** atoms


# -- the two-sided Frobenius equation on a group algebra ---------------------------

def _support(vectors):
    return {i for v in vectors for i, x in enumerate(v) if x != 0}


def group_algebra_fr2_violated(group, a_basis, x, b_basis):
    """Evaluate p_!(a p*(x) b) != p_!(a) x p_!(b) for the support map Q[G] -> P(G).

    a and b are given by spanning vectors, x by its bitmask.  The support of
    a span is the union of the supports of its spanning vectors, and
    p*(x) is spanned by the basis vectors of the elements of x.
    """
    mult = group["mult"]
    dim = len(group["names"])
    products = []
    for u in a_basis:
        for g in _bits(x):
            for v in b_basis:
                out = [Fraction(0)] * dim
                for i, ui in enumerate(u):
                    if ui == 0:
                        continue
                    for j, vj in enumerate(v):
                        if vj != 0:
                            out[mult[mult[i][g]][j]] += ui * vj
                products.append(out)
    lhs = _support(products)
    rhs = {mult[mult[i][g]][j] for i in _support(a_basis) for g in _bits(x)
           for j in _support(b_basis)}
    return lhs != rhs
