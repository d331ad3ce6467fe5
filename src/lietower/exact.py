"""Exact complex-rational scalars and sparse square matrices.

Everything downstream (rotation generators, ladder operators, Casimir
invariants) is built from these two types, so every identity the toolkit
checks is decided with zero tolerance: two matrices are equal iff every
entry is equal as a pair of reduced fractions.

Scalars are Gaussian rationals stored as one integer triple (a, b, d)
meaning (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1: every arithmetic
result is brought to that form by one builder, which skips the gcd when
d == 1 (generator entries are 0, +-1 and +-i, so that is the common case).
Equal numbers therefore have equal triples; ``re`` and ``im`` read the parts
as ``fractions.Fraction`` in lowest terms.  A matrix stores only its nonzero
entries, in an immutable {(row, col): value} map that never holds a zero:
an entry that cancels to zero is removed, so equal matrices have equal maps
and equal hashes however they were built.  A rotation generator has two
nonzero entries and a commutator of two has at most four, so arithmetic
touches only those: a product walks the nonzeros of the left factor against
the rows of the right one, multiplying stored integer triples inline into a
map of unreduced (re, im, den) sums (equal denominators add numerators,
others cross-multiply), and turns each nonzero sum into one canonical scalar.
``commutator`` runs that walk for a@b and for b@a, its left integers negated,
into one map, so it builds no intermediate matrix and no scalar per term.
``commutes`` and ``bracket_multiple`` judge a bracket on those unreduced
sums without building it: [a, b] = 0 when every sum is 0 + 0i, and
[a, b] = lambda*c when lambda, read at c's first stored key, matches every
other nonzero sum against c's entry there by cross-multiplied integers, no
nonzero sum lies outside c's support and, for a nonzero lambda, none of c's
entries is missing; only lambda is reduced.
``pairwise_commutators`` brackets every pair of a family in one sparse join:
it indexes the stored entries of all members by row, meets each entry
(i, k) only with the entries in row k, and sums each product into the
triple of its (pair, entry) slot, so a pair whose entries never meet costs
nothing; a generic ``verify`` builds its whole bracket table this way.
``linear_combination`` sums scaled matrices into one map of scalars.
Indexing, ``rows`` and ``str`` read the matrix as if it were dense.  A
scalar multiplies a matrix from either side, a ``GaussianRational``
included.  Rank and basis expansion share one Gauss-Jordan elimination over
Q(i) whose rows are the matrices' own {(row, col): value} maps, pivoting in
row-major order: ``rank`` counts its reduced rows and ``SpanSolver`` keeps
them, with the combination of inputs behind each, to answer repeated
expansion queries.  Identities are decided by exact equality, of matrices
or of integer sums; expansion is for rendering a matrix in a basis and for
testing that a basis is independent.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["GaussianRational", int, Fraction]


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Stored as integers (a, b, d) meaning (a + b*i)/d, with d > 0 and
    gcd(a, b, d) = 1, so equal numbers have equal triples.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        d = lcm(q, s)
        # p/q and r/s are in lowest terms, so gcd(a, b, d) = 1 already
        _set_a(self, p * (d // q))
        _set_b(self, r * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        other = as_scalar(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = as_scalar(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return as_scalar(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if isinstance(other, ExactMatrix):
            return NotImplemented  # so Python tries ExactMatrix.__rmul__
        other = as_scalar(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        other = as_scalar(other)
        c, e = other._a, other._b
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a+bi)/d / ((c+ei)/f) = (a+bi)(c-ei)f / (d(c^2+e^2))
        a, b, f = self._a, self._b, other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return as_scalar(other) / self

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    @property
    def is_real(self) -> bool:
        return self._b == 0

    # -- canonical text form --------------------------------------------------

    def __str__(self) -> str:
        """Canonical form: "0", "3/4", "-i", "2i", "1/2-3/4i"."""
        re, im = self.re, self.im
        if not im:
            return str(re)
        if im == 1:
            imag = "i"
        elif im == -1:
            imag = "-i"
        else:
            imag = f"{im}i"
        if not re:
            return imag
        sign = "+" if im > 0 else ""
        return f"{re}{sign}{imag}"

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


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple that is already canonical."""
    x = object.__new__(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d in canonical form, for any nonzero d."""
    if d != 1:
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


def as_scalar(value: ScalarLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


# A sparse map from an index to a nonzero entry; no map ever holds a zero.
_Entries = dict[tuple[int, int], GaussianRational]
# A product's running sums (re, im, den), unreduced; a sum may be zero.
_Triples = dict[tuple[int, int], tuple[int, int, int]]


def _nonzero(items: Iterable[tuple[tuple[int, int], ScalarLike]]) -> _Entries:
    """The (key, value) pairs as a map of scalars, leaving out the zeros."""
    return {key: v for key, x in items if (v := as_scalar(x))}


def _accumulate(acc: dict, key, value: GaussianRational) -> None:
    """acc[key] += value, removing the entry if it cancels to zero."""
    old = acc.get(key)
    if old is None:
        acc[key] = value
        return
    total = old + value
    if total:
        acc[key] = total
    else:
        del acc[key]


class ExactMatrix:
    """Immutable square matrix over the Gaussian rationals.

    Equality is entrywise exact equality; there is no tolerance anywhere.
    Only the nonzero entries are stored, in a {(row, col): value} map.
    """

    __slots__ = ("dim", "_entries")

    def __init__(self, rows: Sequence[Sequence[ScalarLike]]):
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise ValueError("matrix must be square")
        cells = (((i, j), x) for i, row in enumerate(rows) for j, x in enumerate(row))
        self._init(dim, _nonzero(cells))

    def _init(self, dim: int, entries: _Entries) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_entries", entries)

    @staticmethod
    def _of(dim: int, entries: _Entries) -> "ExactMatrix":
        """Wrap a map that already holds no zero, without copying it."""
        mat = object.__new__(ExactMatrix)
        mat._init(dim, entries)
        return mat

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return ExactMatrix.from_entries, (self.dim, dict(self._entries))

    @staticmethod
    def zeros(dim: int) -> "ExactMatrix":
        return ExactMatrix._of(dim, {})

    @staticmethod
    def identity(dim: int) -> "ExactMatrix":
        return ExactMatrix._of(dim, {(i, i): ONE for i in range(dim)})

    @staticmethod
    def from_entries(dim: int, entries: dict[tuple[int, int], ScalarLike]) -> "ExactMatrix":
        """Build from a sparse {(row, col): value} map with 0-based indices."""
        for i, j in entries:
            if not (0 <= i < dim and 0 <= j < dim):
                raise IndexError(f"entry ({i}, {j}) outside 0..{dim - 1}")
        return ExactMatrix._of(dim, _nonzero(entries.items()))

    @property
    def rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """The dense entries, row by row, as a read-only tuple of tuples."""
        get, n = self._entries.get, self.dim
        return tuple(tuple(get((i, j), ZERO) for j in range(n)) for i in range(n))

    def __getitem__(self, ij: tuple[int, int]) -> GaussianRational:
        i, j = ij
        n = self.dim
        if not (-n <= i < n and -n <= j < n):
            raise IndexError(f"index ({i}, {j}) outside a {n}x{n} matrix")
        return self._entries.get((i % n, j % n), ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.dim == other.dim and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self._entries.items())))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_dim(other)
        out = dict(self._entries)
        for key, b in other._entries.items():
            _accumulate(out, key, b)
        return ExactMatrix._of(self.dim, out)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_dim(other)
        out = dict(self._entries)
        for key, b in other._entries.items():
            _accumulate(out, key, -b)
        return ExactMatrix._of(self.dim, out)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of(self.dim, {key: -a for key, a in self._entries.items()})

    def __mul__(self, scalar: ScalarLike) -> "ExactMatrix":
        s = as_scalar(scalar)
        if not s:
            return ExactMatrix.zeros(self.dim)
        return ExactMatrix._of(self.dim, {key: a * s for key, a in self._entries.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_dim(other)
        acc: _Triples = {}
        _sum_products(acc, self._entries, other._entries, 1)
        return _from_triples(self.dim, acc)

    def _check_dim(self, other: "ExactMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def is_zero(self) -> bool:
        return not self._entries

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(self.dim, {(j, i): v for (i, j), v in self._entries.items()})

    def scaled_identity(self) -> Optional[GaussianRational]:
        """Return lambda with self == lambda * I, or None."""
        lam = self._entries.get((0, 0), ZERO)
        return lam if self == ExactMatrix.identity(self.dim) * lam else None

    def __str__(self) -> str:
        cells = [[str(v) for v in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells
        )

    __repr__ = __str__


def _sum_products(acc: _Triples, left: _Entries, right: _Entries, sign: int) -> None:
    """acc += sign * (left @ right), in place, as unreduced integer triples."""
    right_rows: dict[int, list[tuple[int, int, int, int]]] = {}
    for (k, j), y in right.items():
        right_rows.setdefault(k, []).append((j, y._a, y._b, y._d))
    for (i, k), x in left.items():
        a, b, d = sign * x._a, sign * x._b, x._d
        for j, c, e, f in right_rows.get(k, ()):
            re, im, den = a * c - b * e, a * e + b * c, d * f
            key = i, j
            old = acc.get(key)
            if old is not None:
                p, q, r = old
                if r == den:
                    re, im = p + re, q + im
                else:
                    re, im, den = p * den + re * r, q * den + im * r, r * den
            acc[key] = (re, im, den)


def _from_triples(dim: int, acc: _Triples) -> ExactMatrix:
    """The matrix of the nonzero sums in ``acc``, each reduced once."""
    return ExactMatrix._of(dim, {k: _reduced(*t) for k, t in acc.items() if t[0] or t[1]})


def _bracket_sums(a: ExactMatrix, b: ExactMatrix) -> _Triples:
    """The unreduced sums of a@b - b@a; raises on dimension mismatch."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    acc: _Triples = {}
    _sum_products(acc, a._entries, b._entries, 1)
    _sum_products(acc, b._entries, a._entries, -1)
    return acc


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The bracket a@b - b@a, exact; raises on dimension mismatch.

    Both products are summed into one map of integer triples, so no
    intermediate matrix or scalar is built.
    """
    return _from_triples(a.dim, _bracket_sums(a, b))


def commutes(a: ExactMatrix, b: ExactMatrix) -> bool:
    """Whether a@b == b@a, decided on the unreduced sums of the bracket."""
    return not any(re or im for re, im, _ in _bracket_sums(a, b).values())


def pairwise_commutators(
    matrices: Sequence[ExactMatrix],
) -> dict[tuple[int, int], ExactMatrix]:
    """The nonzero brackets [m_s, m_t] for s < t, keyed (s, t) in ascending
    order; a commuting pair has no entry.  Raises unless all share one size.

    One sparse join builds them all: every stored entry of every matrix is
    indexed by its row, and each entry (i, k) of m_s meets only the entries
    in row k.  A product of m_s and m_t is summed as an unreduced integer
    triple into the (s, t, i, j) slot of its pair, with sign + when m_s is
    the left factor and - when it is the right one, and each sum is reduced
    once, so a pair whose entries never meet costs nothing.  Each bracket
    equals ``commutator(m_s, m_t)``, stored map and key order included.
    """
    if not matrices:
        return {}
    dim = matrices[0].dim
    if any(m.dim != dim for m in matrices):
        raise ValueError("matrices must share a dimension")
    by_row: dict[int, list[tuple[int, int, int, int, int]]] = {}
    for t, m in enumerate(matrices):
        for (k, j), y in m._entries.items():
            by_row.setdefault(k, []).append((t, j, y._a, y._b, y._d))
    acc: dict[tuple[int, int, int, int], tuple[int, int, int]] = {}
    for s, m in enumerate(matrices):
        for (i, k), x in m._entries.items():
            a, b, d = x._a, x._b, x._d
            for t, j, c, e, f in by_row.get(k, ()):
                if t == s:
                    continue
                re, im, den = a * c - b * e, a * e + b * c, d * f
                if s < t:
                    key = s, t, i, j
                else:
                    key, re, im = (t, s, i, j), -re, -im
                old = acc.get(key)
                if old is not None:
                    p, q, r = old
                    if r == den:
                        re, im = p + re, q + im
                    else:
                        re, im, den = p * den + re * r, q * den + im * r, r * den
                acc[key] = (re, im, den)
    brackets: dict[tuple[int, int], _Entries] = {}
    for (s, t, i, j), (re, im, den) in acc.items():
        if re or im:
            brackets.setdefault((s, t), {})[i, j] = _reduced(re, im, den)
    return {pair: ExactMatrix._of(dim, brackets[pair]) for pair in sorted(brackets)}


def linear_combination(
    dim: int, terms: Iterable[tuple[ScalarLike, ExactMatrix]]
) -> ExactMatrix:
    """The sum of c * m over the (c, m) terms, all of size ``dim``, summed
    into one sparse map."""
    out: _Entries = {}
    for c, mat in terms:
        if mat.dim != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {mat.dim}")
        s = as_scalar(c)
        if s:
            _add_scaled(out, s, mat._entries)
    return ExactMatrix._of(dim, out)


def _proportion(sums: _Triples, ref: _Entries) -> Optional[GaussianRational]:
    """The lambda with sums == lambda * ref, or None.

    ``sums`` holds unreduced (re, im, den) triples, zeros allowed, and
    ``ref`` a nonempty map.  lambda = u/v is read at ref's first key; every
    other nonzero sum x/t is held against ref's entry w/m there by the
    integer identity x*v*m == u*w*t, so only lambda is reduced.
    """
    key = next(iter(ref))
    r = ref[key]
    p, q, s = sums.get(key, (0, 0, 1))
    u_re, u_im, v_re, v_im = p * r._d, q * r._d, r._a * s, r._b * s
    met = 0
    for k, (x, y, t) in sums.items():
        if not (x or y):
            continue
        w = ref.get(k)
        if w is None:  # a nonzero sum outside ref's support
            return None
        met += 1
        m, c, e = w._d, w._a, w._b
        lhs = (x * v_re - y * v_im) * m, (x * v_im + y * v_re) * m
        if lhs != ((u_re * c - u_im * e) * t, (u_re * e + u_im * c) * t):
            return None
    if 0 < met < len(ref):  # a nonzero lambda misses an entry of ref
        return None
    norm = v_re * v_re + v_im * v_im
    return _reduced(u_re * v_re + u_im * v_im, u_im * v_re - u_re * v_im, norm)


def bracket_multiple(
    a: ExactMatrix, b: ExactMatrix, c: ExactMatrix
) -> Optional[GaussianRational]:
    """Return lambda with [a, b] == lambda*c if one exists, else None.

    c must be a nonzero matrix of the same size: the zero matrix has every
    matrix as a multiple, so asking for a coefficient against it signals a
    caller bug.  The bracket is judged on its unreduced sums, so no bracket
    matrix is built.
    """
    if a.dim != c.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {c.dim}")
    if c.is_zero():
        raise ValueError("reference matrix is zero")
    return _proportion(_bracket_sums(a, b), c._entries)


# -- exact elimination --------------------------------------------------------

# A reduced row: (pivot, the row as a matrix's own {(row, col): entry} map,
# the row as a combination {input index: coefficient} of the inputs).
_Row = tuple[tuple[int, int], _Entries, dict[int, GaussianRational]]


def _add_scaled(target: dict, c: GaussianRational, source: dict) -> None:
    """target += c * source, in place."""
    for idx, v in source.items():
        _accumulate(target, idx, c * v)


def _gauss_jordan(matrices: Sequence[ExactMatrix]) -> tuple[list[_Row], list[int]]:
    """Reduced row-echelon form of the matrices over Q(i), each read as one
    row of its entries, with (row, col) keys in row-major order.

    Returns the reduced rows sorted by pivot and the indices of the inputs
    that depend on earlier ones.
    """
    rows: list[_Row] = []
    dependent: list[int] = []
    for k, mat in enumerate(matrices):
        if mat.dim != matrices[0].dim:
            raise ValueError("matrices must share a dimension")
        vec = dict(mat._entries)
        combo = {k: ONE}
        for pivot, pvec, pcombo in rows:
            c = vec.get(pivot)
            if c is not None:
                _add_scaled(vec, -c, pvec)
                _add_scaled(combo, -c, pcombo)
        if not vec:
            dependent.append(k)
            continue
        pivot = min(vec)
        inv = ONE / vec[pivot]
        vec = {idx: v * inv for idx, v in vec.items()}
        combo = {idx: v * inv for idx, v in combo.items()}
        for _, pvec, pcombo in rows:
            c = pvec.get(pivot)
            if c is not None:
                _add_scaled(pvec, -c, vec)
                _add_scaled(pcombo, -c, combo)
        rows.append((pivot, vec, combo))
    rows.sort(key=lambda item: item[0])
    return rows, dependent


def rank(matrices: Sequence[ExactMatrix]) -> int:
    """Dimension of the span of the given matrices (all same size)."""
    return len(_gauss_jordan(matrices)[0])


class SpanSolver:
    """Reduced-echelon factorisation of a fixed spanning set.

    Factors the basis once, each matrix read as one row of its (row, col)
    entries, so each expansion is one sparse sweep; a passing verdict
    expands 15 times on (4,2), 23 on (4,4), 0 on (5,5).
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
        vec = dict(x._entries)
        coeffs: dict[int, GaussianRational] = {}
        for pivot, pvec, pcombo in self._rows:
            c = vec.get(pivot)
            if c is not None:
                _add_scaled(vec, -c, pvec)
                _add_scaled(coeffs, c, pcombo)
        if vec:
            return None
        return [coeffs.get(idx, ZERO) for idx in range(self.size)]

    def describer(self, names: Sequence[str], outside: str) -> Callable[[ExactMatrix], str]:
        """Render a matrix as an exact combination of the factored basis,
        whose members are called ``names``; a matrix outside its span
        renders as ``outside``."""

        def describe(x: ExactMatrix) -> str:
            coeffs = self.expand(x)
            if coeffs is None:
                return outside
            parts = [f"({c})*{names[k]}" for k, c in enumerate(coeffs) if c]
            return " + ".join(parts) if parts else "0"

        return describe
