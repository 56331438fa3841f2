"""Exact rational subspaces in reduced row echelon form.

A subspace of Q^dim is stored as the tuple of rows of its RREF basis.
RREF is unique per subspace, so equal subspaces have identical (and
hashable) representations, which is what makes handles of the subspace
quantales canonical.  Reports write a subspace as its dimension and the
rows of its RREF basis, each entry a string such as "1" or "-1/2".

The arithmetic runs over the integers.  Rescaling a vector does not change
its span, so `rref` scales each vector by the lcm of its denominators and
reduces integer rows; only the entries of the returned rows are built as
`Fraction`s.  The same argument lets the product of the subspace
quantales multiply the integer rescalings of two bases (`integer_rows`),
and the support maps build p*(U) from unit rows, which are already in
RREF.  Handles and their JSON are the ones the `Fraction` elimination
gave, so reports written before still replay.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

_ZERO, _ONE = Fraction(0), Fraction(1)


def _integer_row(v):
    """v times the lcm of its denominators: an integer row with v's span."""
    nums, dens = [], []
    for x in v:
        if type(x) is not int and type(x) is not Fraction:
            x = Fraction(x)
        nums.append(x.numerator)
        dens.append(x.denominator)
    scale = lcm(*dens)
    if scale == 1:
        return nums
    return [n * (scale // d) for n, d in zip(nums, dens)]


def _eliminate(row, pivot_row, col):
    """row with its entry at col cancelled by pivot_row, fraction-free."""
    d, x = pivot_row[col], row[col]
    g = gcd(d, x)
    d, x = d // g, x // g
    return [d * a - x * b for a, b in zip(row, pivot_row)]


def _fraction_row(row, d):
    """The entries x/d of an integer row with pivot d > 0."""
    return tuple(_ZERO if x == 0 else _ONE if x == d else Fraction(x, d)
                 for x in row)


def _canonical(entry):
    """Whether entry is `str` of a Fraction, the form reports write."""
    try:
        return type(entry) is str and str(Fraction(entry)) == entry
    except (ValueError, ZeroDivisionError):
        return False


def rref(vectors, dim):
    """Reduced row echelon form of the span of the vectors; zero rows dropped.

    The vectors are inserted one at a time into an echelon basis of
    primitive integer rows with positive pivots, kept in pivot order.
    Once the rank is dim every further vector lies in the span and is only
    checked for its length.  Back-substitution also stays in the integers:
    a row with pivot d becomes the RREF row of entries x/d.
    """
    pivots, rows = [], []
    for v in vectors:
        if len(v) != dim:
            raise ValueError("vector has wrong length")
        if len(rows) == dim:
            continue
        row = _integer_row(v)
        for col, pivot_row in zip(pivots, rows):
            if row[col]:
                row = _eliminate(row, pivot_row, col)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        g = gcd(*row)
        if row[lead] < 0:
            g = -g
        at = bisect(pivots, lead)
        pivots.insert(at, lead)
        rows.insert(at, [x // g for x in row])
    for i in range(len(rows) - 1, 0, -1):
        col, pivot_row = pivots[i], rows[i]
        for j in range(i):
            if rows[j][col]:
                rows[j] = _eliminate(rows[j], pivot_row, col)
    return tuple(_fraction_row(row, row[col]) for col, row in zip(pivots, rows))


@dataclass(frozen=True)
class RationalSubspace:
    dim: int
    basis: tuple

    @staticmethod
    def from_vectors(dim, vectors):
        return RationalSubspace(dim, rref(vectors, dim))

    @staticmethod
    def zero(dim):
        return RationalSubspace(dim, ())

    def to_json(self):
        return {"dim": self.dim,
                "basis": [[str(x) for x in row] for row in self.basis]}

    @staticmethod
    def from_json(raw, dim):
        """Inverse of to_json; ValueError unless raw is a subspace of Q^dim
        written as to_json writes one: an int `dim` and a list of rows, each
        a list of strings that `str` of a Fraction gives ("1", "-1/2")."""
        if not (isinstance(raw, dict) and type(raw.get("dim")) is int
                and raw["dim"] == dim and type(raw.get("basis")) is list
                and all(type(row) is list and all(map(_canonical, row))
                        for row in raw["basis"])):
            raise ValueError(f"{raw!r} is not a subspace of Q^{dim}")
        return RationalSubspace.from_vectors(
            dim, [[Fraction(x) for x in row] for row in raw["basis"]])

    @property
    def rank(self):
        return len(self.basis)

    def integer_rows(self):
        """The basis rows, each scaled to integers; they span the same space."""
        return [_integer_row(row) for row in self.basis]

    def contains_vector(self, v):
        if len(v) != self.dim:
            raise ValueError("vector has wrong length")
        # RREF rows vanish at each other's pivots, so cancelling each pivot
        # once leaves zero exactly on the span
        w = _integer_row(v)
        for row in self.basis:
            lead = next(c for c, x in enumerate(row) if x)
            if w[lead]:
                w = _eliminate(w, _integer_row(row), lead)
        return not any(w)

    def leq(self, other):
        if self.dim != other.dim:
            raise ValueError("ambient dimensions differ")
        return all(other.contains_vector(row) for row in self.basis)

    def __repr__(self):
        if not self.basis:
            return "span{}"
        if self.rank == self.dim:
            return "full"
        rows = ";".join(
            "[" + ",".join(str(x) for x in row) + "]" for row in self.basis)
        return f"span{{{rows}}}"
