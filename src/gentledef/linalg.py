"""Exact linear algebra over the prime fields F_q.

One elimination routine, `_reduce`, does all the row reduction: it
takes sparse rows (dicts column -> nonzero entry mod q) to echelon form
by forward elimination, and `_back_substitute` takes its pivot rows on
to reduced row echelon form.  Neither modifies the rows it is given:
`_reduce` copies a row only to subtract from or scale it, so a pivot row
may be the caller's own row, and `_back_substitute` copies a pivot row
before it clears it.  A rank count needs only the first step:
`LinearSystem.nullspace_dim` counts `_reduce`'s pivots, and only `rref`
and `Presolved` back-substitute.
`LinearSystem` holds equations A @ X + Y @ B = 0 in unknown matrices
X, Y and takes its coefficient matrices A, B as sparse (shape,
nonzeros) pairs from `_nonzeros`, the one dense-to-sparse converter, so
a caller that enters one matrix in many systems reads its nonzeros
once.  A system records each equation's first row and
unknowns, and `LinearSystem.unpack` views the unknowns' blocks of any
stack of vectors, so callers read its layout instead of copying it.
`Presolved` reduces a `LinearSystem`'s sparse rows once
and serves both its solutions against many right-hand sides and its
nullspace, which `_basis` builds.  Only `rref` and `Presolved.solve_many`
take dense numpy arrays; results are int64 arrays with entries reduced
mod q.  No floating point is involved anywhere, so ranks and nullspaces
are exact.  q must be prime (inverses via Fermat).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


def is_prime(q: int) -> bool:
    """Trial division; the field sizes used here are small."""
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _inv_mod(a: int, q: int) -> int:
    return pow(int(a) % q, q - 2, q)


def as_field(A, q: int) -> np.ndarray:
    """Coerce to an int64 array with entries reduced into [0, q)."""
    return np.asarray(A, dtype=np.int64) % q


def _subtract_row(r: dict[int, int], f: int, p: dict[int, int],
                  q: int) -> None:
    """r -= f * p over F_q in place, dropping the entries that vanish."""
    for col, v in p.items():
        x = (r.get(col, 0) - f * v) % q
        if x:
            r[col] = x
        else:
            del r[col]


def _reduce(rows, q: int) -> dict[int, dict[int, int]]:
    """Forward elimination of sparse rows over F_q.

    Each row is a dict column -> entry, entries nonzero residues mod q;
    empty rows are skipped.  Returns the pivot rows keyed by pivot
    column: each has entry 1 at its pivot, which is its least column, so
    their number is the rank.  Pivot rows are not cleared of each
    other's pivot columns; `_back_substitute` does that.

    Rows are taken one at a time.  While a new row's least column is
    already a pivot, that pivot row is subtracted from it, which leaves
    its least column strictly larger; if anything is left, it is scaled
    to a new pivot at its least column.  A row is copied only when it is
    changed, so the rows given are never modified, and a row that needs
    neither step is kept as its own pivot row.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = row
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                break
            if r is row:
                r = dict(row)
            _subtract_row(r, r[lead], p, q)
        if not r:
            continue
        if r[lead] != 1:
            inv = _inv_mod(r[lead], q)
            r = {col: v * inv % q for col, v in r.items()}
        pivots[lead] = r
    return pivots


def _back_substitute(pivots: dict[int, dict[int, int]],
                     q: int) -> dict[int, dict[int, int]]:
    """Clears every pivot column from the other pivot rows.

    Takes `_reduce`'s pivot rows and returns the same dict with no entry
    in any other pivot column, so sorted by pivot they are the nonzero
    rows of the reduced row echelon form.  A row that meets another
    pivot is copied before it is cleared, since `_reduce` may have kept
    a caller's row as a pivot row.  Rows are cleared last pivot first: a
    pivot row meets only larger pivots, whose rows are already clear,
    so one pass over the pivot columns it meets clears it.
    """
    for c in sorted(pivots, reverse=True):
        if meets := [d for d in pivots[c] if d != c and d in pivots]:
            r = pivots[c] = dict(pivots[c])
            for d in meets:
                _subtract_row(r, r[d], pivots[d], q)
    return pivots


def rref(A, q: int):
    """Reduced row echelon form over F_q.

    Returns (R, pivot_cols) where R is a new array and pivot_cols lists
    the pivot column of each nonzero row in order.  A dense adapter over
    `_reduce` and `_back_substitute`: the nonzeros of A become sparse
    rows, and the reduced pivot rows are written back, zero rows last.
    """
    A = as_field(A, q)
    rows = [{c: v for c, v in enumerate(line) if v} for line in A.tolist()]
    reduced = _back_substitute(_reduce(rows, q), q)
    pivots = sorted(reduced)
    return _dense(enumerate(reduced[c] for c in pivots), A.shape), pivots


def _dense(rows, shape: tuple[int, int]) -> np.ndarray:
    """The int64 array whose row r is the sparse row of each (r, row) given.

    Rows not given are zero.
    """
    M = [[0] * shape[1] for _ in range(shape[0])]
    for r, row in rows:
        line = M[r]
        for c, v in row.items():
            line[c] = v
    return np.array(M, dtype=np.int64).reshape(shape)


def _basis(pivots: dict[int, dict[int, int]], width: int,
           q: int) -> np.ndarray:
    """Nullspace basis read off reduced pivot rows, one vector per row.

    Vector i sets free column free[i] to 1 and each pivot column p to
    -(entry of p's row at free[i]).  Pivots lie below width; entries
    from width on are ignored.
    """
    free = [c for c in range(width) if c not in pivots]
    index = {c: i for i, c in enumerate(free)}
    basis = np.zeros((len(free), width), dtype=np.int64)
    basis[range(len(free)), free] = 1
    for p, row in pivots.items():
        for c, v in row.items():
            if c in index:
                basis[index[c], p] = -v % q
    return basis


class Presolved:
    """A `LinearSystem` A x = 0 reduced once, to solve A x = b for many b.

    Reducing the sparse rows of [A | I] yields E with E @ A in echelon
    form; a system is consistent iff E @ b vanishes on the rows below the
    last pivot of A, and then the pivot rows of E @ b read off one
    solution.  The pivot rows below A's width are the reduced rows of A,
    from which `nullspace` is read.  Both come from the one reduction,
    but the dense height x height E is written out only when
    `solve_many` first reads it, so a caller that reads only the
    nullspace never pays for it.
    """

    def __init__(self, system: LinearSystem):
        q, n, m = system.q, system.width, system.height
        self.q = q
        self.n_cols = n
        self._height = m
        # Row r of [A | I]: zero rows of A still carry their 1.
        rows = ({**system._rows.get(r, {}), n + r: 1} for r in range(m))
        self._reduced = _back_substitute(_reduce(rows, q), q)
        self.pivots = [p for p in sorted(self._reduced) if p < n]
        self.nullspace = _basis({p: self._reduced[p] for p in self.pivots},
                                n, q)

    @cached_property
    def E(self) -> np.ndarray:
        """The m x m matrix with E @ A in echelon form, built once."""
        n, m, reduced = self.n_cols, self._height, self._reduced
        return _dense(((i, {c - n: v for c, v in reduced[p].items()
                            if c >= n})
                       for i, p in enumerate(sorted(reduced))), (m, m))

    def solve_many(self, B) -> tuple[np.ndarray, np.ndarray]:
        """Solves A x = b for every column b of B.

        Returns (X, ok): column j of X solves column j of B whenever
        ok[j]; columns with ok[j] False are inconsistent (X zero there).
        """
        B = as_field(B, self.q)
        C = self.E @ B % self.q
        ok = ~C[len(self.pivots):].any(axis=0)
        X = np.zeros((self.n_cols, B.shape[1]), dtype=np.int64)
        for r, pc in enumerate(self.pivots):
            X[pc] = C[r]
        X[:, ~ok] = 0
        return X, ok


class LinearSystem:
    """Linear equations in several unknown matrices over F_q.

    Unknowns are named matrices of fixed shape; each equation is
    A @ X + Y @ B = 0 for known A, B and unknowns X, Y (X may be Y), the
    one shape that both the Hom and the Ext^1 equations of `homext`
    take.  A and B are given sparse, as the (shape, entries) pairs
    `_nonzeros` makes, so the caller decides where a matrix's nonzeros
    are read and can read them once for many equations.  Unknowns and
    equations are flattened row-major: the equation's rows are the
    entries of A @ X + Y @ B, and row (i, j) has coefficient A[i, k] at
    X[k, j] and B[l, j] at Y[i, l].  Rows are stored sparse, as dicts
    column -> nonzero entry mod q, built from those nonzeros alone.
    `equations` records (first row, x, y) for each equation in order,
    and `unpack` views each unknown's block of a vector or a stack of
    them.  `nullspace_dim` counts the pivots of `_reduce`'s forward
    elimination, and `Presolved` reads the nullspace; only `matrix`
    builds a dense array.
    """

    def __init__(self, q: int):
        self.q = q
        self._shapes: dict[str, tuple[int, int]] = {}
        self._offsets: dict[str, int] = {}
        self._width = 0
        self._height = 0
        self._rows: dict[int, dict[int, int]] = {}
        # (first row, x, y) of each equation A @ X + Y @ B = 0, in order.
        self.equations: list[tuple[int, str, str]] = []

    def add_unknown(self, name: str, shape: tuple[int, int]) -> None:
        if name in self._shapes:
            raise ValueError(f"unknown {name!r} already declared")
        rows, cols = shape
        self._shapes[name] = (rows, cols)
        self._offsets[name] = self._width
        self._width += rows * cols

    @property
    def width(self) -> int:
        return self._width

    @property
    def height(self) -> int:
        return self._height

    def add_equation(self, A, x: str, y: str, B) -> None:
        """Adds the entrywise equations A @ X + Y @ B = 0.

        X and Y are the unknowns named x and y, possibly the same.  A and
        B are sparse pairs (shape, ((i, j, entry), ...)) as `_nonzeros`
        makes them; entries need not be reduced mod q.  Row (i, j)
        carries A[i, k] at X[k, j] and B[l, j] at Y[i, l].  The equation
        is recorded and `height` advanced first, so an empty block
        (m * n = 0) returns with no row written.  Each entry is reduced
        mod q and written by stride straight into its rows: A[i, k] into
        the n consecutive rows from (i, 0), at columns X[k, 0..n-1];
        B[l, j] into rows (0, j), (1, j), ..., n apart, at columns Y[0, l],
        Y[1, l], ..., l_y apart.  A row that cancels to zero is deleted
        (and created again if a later entry refills it), so no stored
        row is empty, though `height` counts every row.
        """
        (m, k_x), left = A
        (l_y, n), right = B
        if (k_x, n) != self._shapes[x] or (m, l_y) != self._shapes[y]:
            raise ValueError(f"shape mismatch in A @ {x} + {y} @ B")
        q, rows, top = self.q, self._rows, self._height
        self.equations.append((top, x, y))
        end = self._height = top + m * n
        if top == end:
            return
        off = self._offsets[x]
        for i, k, a in left:
            if a := a % q:
                first = top + i * n
                shift = off + k * n - first
                for r in range(first, first + n):
                    if (row := rows.get(r)) is None:
                        rows[r] = {r + shift: a}
                    else:
                        row[r + shift] = a
        off = self._offsets[y]
        for l, j, b in right:
            if b := b % q:
                c = off + l
                for r in range(top + j, end, n):
                    if (row := rows.get(r)) is None:
                        rows[r] = {c: b}
                    elif (v := row.get(c)) is None:
                        row[c] = b
                    # Only when X is Y do A[i, i] and B[j, j] meet, at
                    # X[i, j].
                    elif v := (v + b) % q:
                        row[c] = v
                    else:
                        del row[c]
                        if not row:
                            del rows[r]
                    c += l_y

    def matrix(self) -> np.ndarray:
        return _dense(self._rows.items(), (self._height, self._width))

    def unpack(self, vecs: np.ndarray) -> dict[str, np.ndarray]:
        """Views of each unknown's block of vecs, whose last axis is laid
        out as the unknowns, with shape (leading axes..., rows, cols)."""
        out = {}
        for name, (r, c) in self._shapes.items():
            off = self._offsets[name]
            out[name] = vecs[..., off:off + r * c].reshape(*vecs.shape[:-1],
                                                           r, c)
        return out

    def nullspace_dim(self) -> int:
        """width - rank, the rank counted without back-substitution."""
        return self._width - len(_reduce(self._rows.values(), self.q))


def _nonzeros(M) -> tuple[tuple[int, int],
                          tuple[tuple[int, int, int], ...]]:
    """The sparse pair (shape, ((i, j, M[i, j]) for each nonzero)) of a
    2-D array, nonzeros in row-major order and held in a tuple, so a
    module can share the pair read-only: the one dense-to-sparse
    conversion behind `LinearSystem.add_equation`'s coefficients."""
    M = np.asarray(M, dtype=np.int64)
    return M.shape, tuple((i, j, v) for i, line in enumerate(M.tolist())
                          for j, v in enumerate(line) if v)
