"""Exact rational subspaces in reduced row echelon form.

A subspace of Q^dim is stored as the tuple of rows of its RREF basis.
RREF is unique per subspace, so equal subspaces have identical (and
hashable) representations, which is what makes handles of the subspace
quantales canonical.  Reports write a subspace as its dimension and the
rows of its RREF basis, each entry a string such as "1" or "-1/2".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def rref(vectors, dim):
    """Reduced row echelon form of the span of the vectors; zero rows dropped."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    for v in rows:
        if len(v) != dim:
            raise ValueError("vector has wrong length")
    rank = 0
    for col in range(dim):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1, 1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return tuple(tuple(r) for r in rows[:rank])


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

    @staticmethod
    def full(dim):
        eye = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        return RationalSubspace(dim, rref(eye, dim))

    def to_json(self):
        return {"dim": self.dim,
                "basis": [[str(x) for x in row] for row in self.basis]}

    @staticmethod
    def from_json(raw, dim):
        """Inverse of to_json; ValueError unless raw is a subspace of Q^dim."""
        if not (isinstance(raw, dict) and raw.get("dim") == dim):
            raise ValueError(f"{raw!r} is not a subspace of Q^{dim}")
        try:
            vectors = [[Fraction(x) for x in row] for row in raw["basis"]]
        except (KeyError, TypeError, ZeroDivisionError) as e:
            raise ValueError(f"{raw!r} is not a subspace of Q^{dim}") from e
        return RationalSubspace.from_vectors(dim, vectors)

    @property
    def rank(self):
        return len(self.basis)

    def contains_vector(self, v):
        v = [Fraction(x) for x in v]
        for row in self.basis:
            lead = next((c for c in range(self.dim) if row[c] != 0), None)
            if lead is not None and v[lead] != 0:
                factor = v[lead]
                v = [a - factor * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    def leq(self, other):
        if self.dim != other.dim:
            raise ValueError("ambient dimensions differ")
        return all(other.contains_vector(row) for row in self.basis)

    def add(self, other):
        return RationalSubspace.from_vectors(self.dim, self.basis + other.basis)

    def __repr__(self):
        if not self.basis:
            return "span{}"
        if self.rank == self.dim:
            return "full"
        rows = ";".join(
            "[" + ",".join(str(x) for x in row) + "]" for row in self.basis)
        return f"span{{{rows}}}"
