"""Exact complex-rational scalars and sparse square matrices.

Everything downstream (rotation generators, ladder operators, Casimir
invariants) is built from these two types, so every identity the toolkit
checks is decided with zero tolerance: two matrices are equal iff every
entry is equal as a pair of reduced fractions.

A Gaussian rational is one integer triple (a, b, d) meaning (a + b*i)/d,
with d > 0 and gcd(a, b, d) = 1: every result, of scalar and of matrix
arithmetic alike, is brought to that form by one canonicaliser, which skips
the gcd when d == 1 (generator entries are 0, +-1 and +-i, so that is the
common case).  Equal numbers therefore have equal triples.  The triple is
the one representation: a ``GaussianRational`` holds it in its one slot,
compares and hashes as it, and reads ``re`` and ``im`` from it as
``fractions.Fraction`` in lowest terms.  A matrix, built from values by
``from_entries`` only, stores its nonzero entries as those same triples in
an immutable {(row, col): (a, b, d)} map that never holds a zero: an entry
that cancels to zero is removed, so equal matrices have equal maps and
equal hashes however they were built, and matrix equality is one
comparison of plain dicts of int tuples.  Arithmetic inside the kernel
unpacks and builds triples only; where the public API returns a scalar
(indexing, ``rows``, ``str``, ``scaled_identity``, ``bracket_multiple``
and ``SpanSolver.expand``) it wraps the triple itself, not a copy.  Scalar
``*``, unary ``-`` and ``/`` run the kernel's triple rules ``_times``,
``_neg`` and ``_inverse``, and ``_inverse`` is also the elimination
pivot's inverse and the division that reads lambda in
``bracket_multiple``.  Scalar ``+`` keeps its own rule: the kernel's sums
(``_product_sums``, ``pairwise_commutators``, ``_add_scaled``) add inline,
unreduced, because a call per term is slower.

A rotation generator has two nonzero entries and a commutator of two has at
most four, so arithmetic touches only those.  ``product_sum`` sums any
signed sum of products, sum of +-(a @ b), into one map of unreduced
(re, im, den) sums: each product walks the stored entries of both factors
in a plain double loop, multiplying each pair whose inner indices meet
inline into its slot (equal denominators add numerators, others
cross-multiply), and each nonzero sum is reduced once at the end, so no
product or partial sum is built.  ``@`` is its one-term case and
``commutator`` its two-term case a@b - b@a.  Subtraction is addition of
the negation, and every operation on several matrices has the one size
check.  ``commutes`` and ``bracket_multiple`` judge a bracket on those
unreduced sums without building it: [a, b] = 0 when every sum is 0 + 0i,
and [a, b] = lambda*c when lambda, read at c's first stored key, matches
every other nonzero sum against c's entry there by cross-multiplied
integers, no nonzero sum lies outside c's support and, for a nonzero
lambda, none of c's entries is missing; only lambda is reduced.
``pairwise_commutators`` brackets every pair of a family in one sparse join:
it indexes the stored entries of all members by row, meets each entry
(i, k) only with the entries in row k, and sums each product into the
triple of its (pair, entry) slot, so a pair whose entries never meet costs
nothing; a generic ``verify`` builds its whole bracket table this way.
``linear_combination`` sums scaled matrices into one map, reducing each
sum as it goes.  Indexing, ``rows`` and ``str`` read the matrix as if it
were dense.  A scalar multiplies a matrix from either side, a
``GaussianRational`` included, by ``_times`` on each stored triple.
``is_pseudo_antisymmetric`` decides g M^T g == -M for a diagonal g of
+-1s by holding each stored entry against its transpose partner, with no
product.

Rank and basis expansion share one sparse echelon elimination over Q(i)
whose rows are the matrices' own {(row, col): (a, b, d)} maps, kept in a
pivot -> (row, combination of the inputs) map, pivoting in row-major order.
A vector is reduced by popping its keys in ascending order from a heap: at
a pivot the row is subtracted, and every key the subtraction fills in is
pushed.  A row holds no key below its pivot, so each row is met at most
once, and only where the vector carries its pivot; the work is
proportional to the entries met, not to the number of rows (Gilbert &
Peierls, SIAM J. Sci. Stat. Comput. 9, 1988).  The first key that is no
pivot ends the reduction: it becomes the pivot of a new input, or puts an
expanded matrix outside the span.  ``rank`` counts the rows and
``SpanSolver`` keeps them, to answer repeated expansion queries.
Identities are decided by exact equality, of matrices or of integer sums;
expansion is for rendering a matrix in a basis and for testing that a
basis is independent.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

RationalLike = int | Fraction
# (a, b, d) meaning (a + b*i)/d
Triple = tuple[int, int, int]


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, in lowest terms."""
    # an exact type test first: bool is an int subclass, and True would scale by 1
    if type(value) is not bool and isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _canonical(a: int, b: int, d: int) -> Triple:
    """The triple of (a + b*i)/d with d > 0 and gcd(a, b, d) = 1, for any
    nonzero d: the one canonicaliser of scalar and matrix arithmetic."""
    if d != 1:
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return a, b, d


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Holds one canonical triple (a, b, d) meaning (a + b*i)/d, with d > 0
    and gcd(a, b, d) = 1, so equal numbers have equal triples.
    """

    __slots__ = ("_t",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        d = lcm(q, s)
        # p/q and r/s are in lowest terms, so gcd(a, b, d) = 1 already
        _set_t(self, (p * (d // q), r * (d // s), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        a, b, d = self._t
        c, e, f = as_scalar(other)._t
        if d == f:
            return _wrap(_canonical(a + c, b + e, d))
        return _wrap(_canonical(a * f + c * d, b * f + e * d, d * f))

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        return self + -as_scalar(other)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return -self + other

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if isinstance(other, ExactMatrix):
            return NotImplemented  # so Python tries ExactMatrix.__rmul__
        return _wrap(_times(self._t, as_scalar(other)._t))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        return _wrap(_times(self._t, _inverse(as_scalar(other)._t)))

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return as_scalar(other) / self

    def __neg__(self) -> "GaussianRational":
        return _wrap(_neg(self._t))

    def __bool__(self) -> bool:
        return self._t != (0, 0, 1)  # the canonical triple of zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(self._t)

    @property
    def is_real(self) -> bool:
        return self._t[1] == 0

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


# defined after the class: a runtime union needs the class, not its name
ScalarLike = GaussianRational | int | Fraction

_set_t = GaussianRational._t.__set__


def _wrap(t: Triple) -> GaussianRational:
    """The scalar holding a canonical triple, the triple itself, not a copy."""
    x = object.__new__(GaussianRational)
    _set_t(x, t)
    return x


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


def as_scalar(value: ScalarLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


def _scalar(t: Triple | None) -> GaussianRational:
    """The scalar of a stored triple, an absent one being zero."""
    return ZERO if t is None else _wrap(t)


def _neg(t: Triple) -> Triple:
    a, b, d = t
    return -a, -b, d


def _times(x: Triple, y: Triple) -> Triple:
    a, b, d = x
    c, e, f = y
    return _canonical(a * c - b * e, a * e + b * c, d * f)


def _inverse(t: Triple) -> Triple:
    """1 / ((a + b*i)/d) = (a - b*i)*d / (a^2 + b^2); raises on zero."""
    a, b, d = t
    norm = a * a + b * b
    if not norm:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return _canonical(a * d, -b * d, norm)


# A sparse map from an index to the canonical triple of a nonzero entry; no
# map ever holds a zero.
_Entries = dict[tuple[int, int], Triple]
# The running sums (re, im, den) of a fused sum, unreduced; a sum may be zero.
_Sums = dict[tuple[int, int], Triple]
# The signed products +-(a @ b) of a fused sum, as (sign, a, b).
_Terms = Iterable[tuple[int, "ExactMatrix", "ExactMatrix"]]


class ExactMatrix:
    """Immutable square matrix over the Gaussian rationals.

    Equality is entrywise exact equality; there is no tolerance anywhere.
    Only the nonzero entries are stored, in a {(row, col): (a, b, d)} map.
    """

    __slots__ = ("dim", "_entries")

    def __init__(self, *args, **kwargs):
        raise TypeError("build an ExactMatrix with ExactMatrix.from_entries(dim, entries)")

    @staticmethod
    def _of(dim: int, entries: _Entries) -> "ExactMatrix":
        """Wrap a map that already holds no zero, without copying it."""
        mat = object.__new__(ExactMatrix)
        _set_dim(mat, dim)
        _set_entries(mat, entries)
        return mat

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        values = {key: _wrap(t) for key, t in self._entries.items()}
        return ExactMatrix.from_entries, (self.dim, values)

    @staticmethod
    def zeros(dim: int) -> "ExactMatrix":
        return ExactMatrix._of(dim, {})

    @staticmethod
    def identity(dim: int) -> "ExactMatrix":
        return ExactMatrix._of(dim, {(i, i): (1, 0, 1) for i in range(dim)})

    @staticmethod
    def from_entries(dim: int, entries: dict[tuple[int, int], ScalarLike]) -> "ExactMatrix":
        """Build from a sparse {(row, col): value} map with 0-based indices."""
        for i, j in entries:
            if not (0 <= i < dim and 0 <= j < dim):
                raise IndexError(f"entry ({i}, {j}) outside 0..{dim - 1}")
        return ExactMatrix._of(
            dim, {key: v._t for key, x in entries.items() if (v := as_scalar(x))}
        )

    @property
    def rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """The dense entries, row by row, as a read-only tuple of tuples."""
        get, n = self._entries.get, self.dim
        return tuple(tuple(_scalar(get((i, j))) for j in range(n)) for i in range(n))

    def __getitem__(self, ij: tuple[int, int]) -> GaussianRational:
        i, j = ij
        n = self.dim
        if not (-n <= i < n and -n <= j < n):
            raise IndexError(f"index ({i}, {j}) outside a {n}x{n} matrix")
        return _scalar(self._entries.get((i % n, j % n)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.dim == other.dim and self._entries == other._entries

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.dim != other.dim or self._entries != other._entries

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self._entries.items())))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        _check_dim(self.dim, other.dim)
        out = dict(self._entries)
        _add_scaled(out, (1, 0, 1), other._entries)
        return ExactMatrix._of(self.dim, out)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + -other

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of(self.dim, {key: _neg(t) for key, t in self._entries.items()})

    def __mul__(self, scalar: ScalarLike) -> "ExactMatrix":
        # a product of two nonzero Gaussian rationals is nonzero
        c = as_scalar(scalar)._t
        if c == (0, 0, 1):
            return ExactMatrix.zeros(self.dim)
        return ExactMatrix._of(self.dim, {key: _times(c, t) for key, t in self._entries.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        return product_sum(self.dim, ((1, self, other),))

    def is_zero(self) -> bool:
        return not self._entries

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._of(self.dim, {(j, i): t for (i, j), t in self._entries.items()})

    def is_pseudo_antisymmetric(self, signs: Sequence[int]) -> bool:
        """Whether g M^T g == -M for the diagonal g = diag(signs) of +-1s.

        Entry by entry that is M_ji == -g_i g_j M_ij, so each stored entry is
        held against its stored transpose partner, with no product: a nonzero
        diagonal entry or an entry without its partner fails.
        """
        _check_dim(self.dim, len(signs))
        get = self._entries.get
        for (i, j), (a, b, d) in self._entries.items():
            want = (a, b, d) if signs[i] != signs[j] else (-a, -b, d)
            if get((j, i)) != want:
                return False
        return True

    def scaled_identity(self) -> GaussianRational | None:
        """Return lambda with self == lambda * I, or None."""
        lam = self._entries.get((0, 0))
        want = {} if lam is None else {(i, i): lam for i in range(self.dim)}
        return _scalar(lam) if self._entries == want else None

    def __str__(self) -> str:
        cells = [[str(v) for v in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=0)
        text = "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)
        return text or "[]"

    __repr__ = __str__


_set_dim = ExactMatrix.dim.__set__
_set_entries = ExactMatrix._entries.__set__


def _check_dim(dim: int, other: int) -> None:
    """The one size check of every operation on two or more matrices."""
    if dim != other:
        raise ValueError(f"dimension mismatch: {dim} vs {other}")


def _product_sums(dim: int, terms: _Terms) -> _Sums:
    """The unreduced sums of sign * (a @ b) over the (sign, a, b) terms.

    Operands hold a handful of entries, so a plain double loop costs less
    than indexing each right factor by row."""
    acc: _Sums = {}
    for sign, left, right in terms:
        if left.dim != dim or right.dim != dim:
            _check_dim(dim, left.dim)
            _check_dim(dim, right.dim)
        pairs = right._entries.items()
        for (i, k), (a, b, d) in left._entries.items():
            a, b = sign * a, sign * b
            for (r, j), y in pairs:
                if r != k:
                    continue
                c, e, f = y
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
    return acc


def product_sum(dim: int, terms: _Terms) -> ExactMatrix:
    """The sum of sign * (a @ b) over the (sign, a, b) terms, sign +1 or -1,
    every matrix of size ``dim``; no terms give the zero matrix.

    Every product is summed into one map of unreduced integer triples and
    each nonzero sum is reduced once, so no product or partial sum is built.
    """
    acc = _product_sums(dim, terms)
    return ExactMatrix._of(dim, {k: _canonical(*t) for k, t in acc.items() if t[0] or t[1]})


def _bracket(a: ExactMatrix, b: ExactMatrix) -> _Terms:
    """The two signed products of [a, b] = a@b - b@a."""
    return (1, a, b), (-1, b, a)


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The bracket a@b - b@a, exact; raises on dimension mismatch.

    Both products are summed into one map of integer triples, so no
    intermediate matrix or scalar is built.
    """
    return product_sum(a.dim, _bracket(a, b))


def commutes(a: ExactMatrix, b: ExactMatrix) -> bool:
    """Whether a@b == b@a, decided on the unreduced sums of the bracket."""
    return not any(re or im for re, im, _ in _product_sums(a.dim, _bracket(a, b)).values())


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
    for m in matrices:
        _check_dim(dim, m.dim)
    by_row: dict[int, list[tuple[int, int, int, int, int]]] = {}
    for t, m in enumerate(matrices):
        for (k, j), (c, e, f) in m._entries.items():
            by_row.setdefault(k, []).append((t, j, c, e, f))
    acc: dict[tuple[int, int, int, int], Triple] = {}
    for s, m in enumerate(matrices):
        for (i, k), (a, b, d) in m._entries.items():
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
            brackets.setdefault((s, t), {})[i, j] = (
                (re, im, den) if den == 1 else _canonical(re, im, den)
            )
    return {pair: ExactMatrix._of(dim, brackets[pair]) for pair in sorted(brackets)}


def linear_combination(
    dim: int, terms: Iterable[tuple[ScalarLike, ExactMatrix]]
) -> ExactMatrix:
    """The sum of c * m over the (c, m) terms, all of size ``dim``, summed
    into one sparse map."""
    out: _Entries = {}
    for c, mat in terms:
        _check_dim(dim, mat.dim)
        s = as_scalar(c)
        if s:
            _add_scaled(out, s._t, mat._entries)
    return ExactMatrix._of(dim, out)


def _proportion(sums: _Sums, ref: _Entries) -> GaussianRational | None:
    """The lambda with sums == lambda * ref, or None.

    ``sums`` holds unreduced (re, im, den) triples, zeros allowed, and
    ``ref`` a nonempty map.  lambda = u/v is read at ref's first key; every
    other nonzero sum x/t is held against ref's entry w/m there by the
    integer identity x*v*m == u*w*t, so only lambda is reduced.
    """
    key = next(iter(ref))
    r_a, r_b, r_d = ref[key]
    p, q, s = sums.get(key, (0, 0, 1))
    u_re, u_im, v_re, v_im = p * r_d, q * r_d, r_a * s, r_b * s
    met = 0
    for k, (x, y, t) in sums.items():
        if not (x or y):
            continue
        w = ref.get(k)
        if w is None:  # a nonzero sum outside ref's support
            return None
        met += 1
        c, e, m = w
        lhs = (x * v_re - y * v_im) * m, (x * v_im + y * v_re) * m
        if lhs != ((u_re * c - u_im * e) * t, (u_re * e + u_im * c) * t):
            return None
    if 0 < met < len(ref):  # a nonzero lambda misses an entry of ref
        return None
    return _wrap(_times((u_re, u_im, 1), _inverse((v_re, v_im, 1))))


def bracket_multiple(
    a: ExactMatrix, b: ExactMatrix, c: ExactMatrix
) -> GaussianRational | None:
    """Return lambda with [a, b] == lambda*c if one exists, else None.

    c must be a nonzero matrix of the same size: the zero matrix has every
    matrix as a multiple, so asking for a coefficient against it signals a
    caller bug.  The bracket is judged on its unreduced sums, so no bracket
    matrix is built.
    """
    _check_dim(a.dim, c.dim)
    if c.is_zero():
        raise ValueError("reference matrix is zero")
    return _proportion(_product_sums(a.dim, _bracket(a, b)), c._entries)


# -- exact elimination --------------------------------------------------------

# Echelon rows keyed by pivot: pivot -> (row, combination).  A row is a
# matrix's own {(row, col): triple} map whose least key is its pivot, with
# entry 1 there, and its combination {input index: coefficient triple} writes
# it in the inputs.
_Rows = dict[tuple[int, int], tuple[_Entries, dict[int, Triple]]]


def _add_scaled(target: dict, c: Triple, source: dict) -> None:
    """target += c * source, in place, each sum canonical; a sum that
    cancels to zero is removed."""
    p, q, s = c
    for idx, (a, b, d) in source.items():
        re, im, den = p * a - q * b, p * b + q * a, s * d
        old = target.get(idx)
        if old is not None:
            x, y, t = old
            if t == den:
                re, im = x + re, y + im
            else:
                re, im, den = x * den + re * t, y * den + im * t, t * den
            if not (re or im):
                del target[idx]
                continue
        target[idx] = _canonical(re, im, den)


def _reduce(rows: _Rows, vec: _Entries, combo: dict[int, Triple]) -> tuple[int, int] | None:
    """Subtract rows from ``vec``, in place, until its least key is no
    pivot, and the same multiples of their combinations from ``combo``;
    return that key, or None when ``vec`` cancels to zero.

    The keys of ``vec`` are popped in ascending order from a heap, and every
    key that a subtraction fills in is pushed.  The row of pivot p holds no
    key below p, so its subtraction only fills in keys above p, and each row
    is met at most once, at a pivot the vector carries.  A nonzero element
    of the rows' span has a pivot for its least key, so a vector left with a
    least key that is no pivot lies outside the span.
    """
    heap = list(vec)
    heapify(heap)
    while heap:
        key = heappop(heap)
        c = vec.get(key)
        if c is None:  # cancelled, or pushed twice
            continue
        row = rows.get(key)
        if row is None:
            return key
        prow, pcombo = row
        for k in prow:
            if k not in vec:
                heappush(heap, k)
        c = _neg(c)
        _add_scaled(vec, c, prow)
        _add_scaled(combo, c, pcombo)
    return None


def _echelon(matrices: Sequence[ExactMatrix]) -> tuple[_Rows, list[int]]:
    """Row-echelon form of the matrices over Q(i), each read as one row of
    its entries, with (row, col) keys in row-major order.

    Returns the rows keyed by pivot and the indices of the inputs that
    depend on earlier ones.  Each input is reduced only until its least key
    is no pivot, which becomes its own pivot.
    """
    rows: _Rows = {}
    dependent: list[int] = []
    for k, mat in enumerate(matrices):
        _check_dim(matrices[0].dim, mat.dim)
        vec = dict(mat._entries)
        combo = {k: (1, 0, 1)}
        pivot = _reduce(rows, vec, combo)
        if pivot is None:
            dependent.append(k)
            continue
        inv = _inverse(vec[pivot])
        rows[pivot] = (
            {idx: _times(v, inv) for idx, v in vec.items()},
            {idx: _times(v, inv) for idx, v in combo.items()},
        )
    return rows, dependent


def rank(matrices: Sequence[ExactMatrix]) -> int:
    """Dimension of the span of the given matrices (all same size)."""
    return len(_echelon(matrices)[0])


class SpanSolver:
    """Row-echelon factorisation of a fixed spanning set.

    Factors the basis once, each matrix read as one row of its (row, col)
    entries, into rows keyed by pivot; each expansion then meets only the
    rows at the pivots it carries or fills in, in ascending order.  A
    passing verdict expands 15 times on (4,2), 23 on (4,4), 0 on (5,5).
    """

    def __init__(self, basis: Sequence[ExactMatrix]):
        if not basis:
            raise ValueError("empty basis")
        self.dim = basis[0].dim
        self.size = len(basis)
        self._rows, dependent = _echelon(basis)
        if dependent:
            raise ValueError(f"basis element {dependent[0]} is dependent on earlier ones")

    def expand(self, x: ExactMatrix) -> list[GaussianRational] | None:
        """Coefficients of x in the basis, or None if x is outside the span."""
        _check_dim(self.dim, x.dim)
        # reducing -x to zero leaves in coeffs the combination equal to x
        vec = {key: _neg(t) for key, t in x._entries.items()}
        coeffs: dict[int, Triple] = {}
        if _reduce(self._rows, vec, coeffs) is not None:
            return None
        return [_scalar(coeffs.get(idx)) for idx in range(self.size)]

    def describer(self, names: Sequence[str], outside: str) -> Callable[[ExactMatrix], str]:
        """Render a matrix as an exact combination of the factored basis,
        whose members are called ``names``; a matrix outside its span
        renders as ``outside``."""

        def describe(x: ExactMatrix) -> str:
            coeffs = self.expand(x)
            if coeffs is None:
                return outside
            return format_combination((c, names[k]) for k, c in enumerate(coeffs) if c)

        return describe


def format_combination(terms: Iterable[tuple[GaussianRational, str]]) -> str:
    """The (coefficient, name) terms as ``(c)*name + ...``; no terms as ``0``."""
    return " + ".join(f"({c})*{name}" for c, name in terms) or "0"
