"""Exact complex-rational scalars and dense square matrices.

Everything downstream (rotation generators, ladder operators, Casimir
invariants) is built from these two types, so every identity the toolkit
checks is decided with zero tolerance: two matrices are equal iff every
entry is equal as a pair of reduced fractions.

Scalars are Gaussian rationals a + b*i with ``fractions.Fraction``
components, which keeps numerators and denominators in lowest terms with
positive denominators automatically.  Matrices stay dense tuples of
entries, but the arithmetic skips zero entries: a sum or difference
returns the other entry as it is, a negation or scalar product leaves a
zero alone, and a product skips zero factors.  The rotation generators
have two nonzero entries in 36 or 64, so most entries cost one truth
test rather than ``Fraction`` arithmetic.  A scalar multiplies a matrix
from either side, a ``GaussianRational`` included.  Rank and basis
expansion share one Gauss-Jordan elimination over Q(i), which skips zero
entries the same way when it eliminates and scales a row: ``rank`` counts
its reduced rows and ``SpanSolver`` keeps them, with the combination of
inputs behind each, to answer repeated expansion queries.  Identities are
decided by matrix equality; expansion is for rendering a matrix in a
basis and for testing that a basis is independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["GaussianRational", int, Fraction]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        other = as_scalar(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = as_scalar(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return as_scalar(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if isinstance(other, ExactMatrix):
            return NotImplemented  # so Python tries ExactMatrix.__rmul__
        other = as_scalar(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        other = as_scalar(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return as_scalar(other) / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    # -- canonical text form --------------------------------------------------

    def __str__(self) -> str:
        """Canonical form: "0", "3/4", "-i", "2i", "1/2-3/4i"."""
        if not self.im:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}i"
        if not self.re:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{imag}"

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Inverse of ``str``; accepts any "a", "bi", or "a+bi" spelling."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        if not s.endswith("i"):
            return GaussianRational(Fraction(s))
        body = s[:-1]
        # split off a real part, if any, at the last +/- that is not a
        # fraction sign or the leading sign
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                split = k
                break
        if split == -1:
            coeff = body
            real = Fraction(0)
        else:
            real = Fraction(body[:split])
            coeff = body[split:]
        if coeff in ("", "+"):
            imag = Fraction(1)
        elif coeff == "-":
            imag = Fraction(-1)
        else:
            imag = Fraction(coeff)
        return GaussianRational(real, imag)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


def as_scalar(value: ScalarLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


class ExactMatrix:
    """Immutable square matrix over the Gaussian rationals.

    Equality is entrywise exact equality; there is no tolerance anywhere.
    """

    __slots__ = ("dim", "rows", "_hash")

    def __init__(self, rows: Sequence[Sequence[ScalarLike]]):
        dim = len(rows)
        data = []
        for row in rows:
            if len(row) != dim:
                raise ValueError("matrix must be square")
            data.append(tuple(as_scalar(x) for x in row))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", tuple(data))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def zeros(dim: int) -> "ExactMatrix":
        return ExactMatrix([[ZERO] * dim for _ in range(dim)])

    @staticmethod
    def identity(dim: int) -> "ExactMatrix":
        return ExactMatrix(
            [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
        )

    @staticmethod
    def from_entries(dim: int, entries: dict[tuple[int, int], ScalarLike]) -> "ExactMatrix":
        """Build from a sparse {(row, col): value} map with 0-based indices."""
        rows = [[ZERO] * dim for _ in range(dim)]
        for (i, j), v in entries.items():
            rows[i][j] = as_scalar(v)
        return ExactMatrix(rows)

    def __getitem__(self, ij: tuple[int, int]) -> GaussianRational:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(self.rows)
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_dim(other)
        return ExactMatrix(
            [
                [(a + b if b else a) if a else b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_dim(other)
        return ExactMatrix(
            [
                [(a - b if a else -b) if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-a if a else a for a in row] for row in self.rows])

    def __mul__(self, scalar: ScalarLike) -> "ExactMatrix":
        s = as_scalar(scalar)
        return ExactMatrix([[a * s if a else ZERO for a in row] for row in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_dim(other)
        n = self.dim
        out = [[ZERO] * n for _ in range(n)]
        brows = other.rows
        for i, arow in enumerate(self.rows):
            orow = out[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                for j, b in enumerate(brows[k]):
                    if b:
                        orow[j] = orow[j] + a * b
        return ExactMatrix(out)

    def _check_dim(self, other: "ExactMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.rows)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.rows)))

    def scaled_identity(self) -> Optional[GaussianRational]:
        """Return lambda with self == lambda * I, or None."""
        lam = self.rows[0][0]
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if (v != lam) if i == j else bool(v):
                    return None
        return lam

    def flatten(self) -> tuple[GaussianRational, ...]:
        return tuple(v for row in self.rows for v in row)

    def __str__(self) -> str:
        cells = [[str(v) for v in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells
        )

    __repr__ = __str__


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The bracket a@b - b@a, exact; raises on dimension mismatch."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return a @ b - b @ a


def scalar_multiple_of(
    a: ExactMatrix, b: ExactMatrix
) -> Optional[GaussianRational]:
    """Return lambda with a == lambda*b if one exists, else None.

    b must be nonzero; the zero matrix has every matrix as a multiple, so
    asking for a coefficient against it signals a caller bug.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if b.is_zero():
        raise ValueError("reference matrix is zero")
    lam = None
    for ra, rb in zip(a.rows, b.rows):
        for va, vb in zip(ra, rb):
            if vb:
                lam = va / vb
                break
        if lam is not None:
            break
    assert lam is not None
    for ra, rb in zip(a.rows, b.rows):
        for va, vb in zip(ra, rb):
            if va != vb * lam:
                return None
    return lam


# -- exact elimination --------------------------------------------------------

# A reduced row: (pivot column, row, the row as a combination of the inputs).
_Row = tuple[int, list[GaussianRational], list[GaussianRational]]


def _gauss_jordan(matrices: Sequence[ExactMatrix]) -> tuple[list[_Row], list[int]]:
    """Reduced row-echelon form of the flattened matrices over Q(i).

    Returns the reduced rows sorted by pivot and the indices of the inputs
    that depend on earlier ones.
    """
    size = len(matrices)
    rows: list[_Row] = []
    dependent: list[int] = []
    for k, mat in enumerate(matrices):
        if mat.dim != matrices[0].dim:
            raise ValueError("matrices must share a dimension")
        combo = [ZERO] * size
        combo[k] = ONE
        vec = list(mat.flatten())
        for pivot, pvec, pcombo in rows:
            c = vec[pivot]
            if not c:
                continue
            for idx, v in enumerate(pvec):
                if v:
                    vec[idx] = vec[idx] - c * v
            for idx, v in enumerate(pcombo):
                if v:
                    combo[idx] = combo[idx] - c * v
        pivot = next((idx for idx, v in enumerate(vec) if v), None)
        if pivot is None:
            dependent.append(k)
            continue
        inv = ONE / vec[pivot]
        vec = [v * inv if v else v for v in vec]
        combo = [c * inv if c else c for c in combo]
        for _, pvec, pcombo in rows:
            c = pvec[pivot]
            if c:
                for idx, v in enumerate(vec):
                    if v:
                        pvec[idx] = pvec[idx] - c * v
                for idx, v in enumerate(combo):
                    if v:
                        pcombo[idx] = pcombo[idx] - c * v
        rows.append((pivot, vec, combo))
    rows.sort(key=lambda item: item[0])
    return rows, dependent


def rank(matrices: Sequence[ExactMatrix]) -> int:
    """Dimension of the span of the given matrices (all same size)."""
    return len(_gauss_jordan(matrices)[0])


class SpanSolver:
    """Reduced-echelon factorisation of a fixed spanning set.

    Factors the flattened basis once so that repeated expansion queries
    (hundreds per verification suite) cost a single sparse sweep each.
    """

    def __init__(self, basis: Sequence[ExactMatrix]):
        if not basis:
            raise ValueError("empty basis")
        self.dim = basis[0].dim
        self.size = len(basis)
        self._rows, dependent = _gauss_jordan(basis)
        if dependent:
            raise ValueError(f"basis element {dependent[0]} is dependent on earlier ones")

    def expand(self, x: ExactMatrix) -> Optional[list[GaussianRational]]:
        """Coefficients of x in the basis, or None if x is outside the span."""
        if x.dim != self.dim:
            raise ValueError("dimension mismatch")
        vec = list(x.flatten())
        coeffs = [ZERO] * self.size
        for pivot, pvec, pcombo in self._rows:
            c = vec[pivot]
            if not c:
                continue
            for idx, v in enumerate(pvec):
                if v:
                    vec[idx] = vec[idx] - c * v
            for idx, v in enumerate(pcombo):
                if v:
                    coeffs[idx] = coeffs[idx] + c * v
        if any(vec):
            return None
        return coeffs
