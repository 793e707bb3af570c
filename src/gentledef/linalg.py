"""Exact linear algebra over the prime fields F_q.

One elimination routine, `_reduce`, does all the row reduction: it
takes sparse rows (dicts column -> nonzero entry mod q) to reduced row
echelon form.  `LinearSystem` builds its equations as such rows from
the nonzeros of its coefficient matrices and reduces them directly;
`rref`, and through it `rank`, `nullspace`, `solve` and `Presolved`,
take and return numpy int64 arrays with entries reduced mod q, and
adapt them to `_reduce`.  No floating point is involved anywhere, so
ranks and nullspaces are exact.  q must be prime (inverses via Fermat).
"""

from __future__ import annotations

import math

import numpy as np


def is_prime(q: int) -> bool:
    """Trial division; the field sizes used here are small."""
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _inv_mod(a: int, q: int) -> int:
    return pow(int(a) % q, q - 2, q)


def as_field(A, q: int) -> np.ndarray:
    """Coerce to an int64 array with entries reduced into [0, q)."""
    return np.asarray(A, dtype=np.int64) % q


def _reduce(rows, q: int) -> dict[int, dict[int, int]]:
    """Gauss-Jordan elimination of sparse rows over F_q.

    Each row is a dict column -> entry, entries nonzero residues mod q;
    the rows are not modified.  Returns the reduced pivot rows keyed by
    pivot column: each has entry 1 at its pivot, which is its least
    column, and no entry in any other pivot column, so sorted by pivot
    they are the nonzero rows of the reduced row echelon form.

    Rows are taken one at a time.  A new row is cleared of the pivot
    columns it meets by one pass, since pivot rows have no entries in
    each other's pivot columns; if anything is left, it is scaled to a
    new pivot at its least column, which is then cleared from the older
    pivot rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = dict(row)
        for c in [c for c in r if c in pivots]:
            f = r[c]
            for col, v in pivots[c].items():
                x = (r.get(col, 0) - f * v) % q
                if x:
                    r[col] = x
                else:
                    del r[col]
        if not r:
            continue
        lead = min(r)
        if r[lead] != 1:
            inv = _inv_mod(r[lead], q)
            r = {col: v * inv % q for col, v in r.items()}
        for p in pivots.values():
            f = p.get(lead)
            if f:
                for col, v in r.items():
                    x = (p.get(col, 0) - f * v) % q
                    if x:
                        p[col] = x
                    else:
                        del p[col]
        pivots[lead] = r
    return pivots


def rref(A, q: int):
    """Reduced row echelon form over F_q.

    Returns (R, pivot_cols) where R is a new array and pivot_cols lists
    the pivot column of each nonzero row in order.  A dense adapter over
    `_reduce`: the nonzeros of A become sparse rows, and the reduced
    pivot rows are written back, zero rows last.
    """
    A = as_field(A, q)
    rows = [{c: v for c, v in enumerate(line) if v} for line in A.tolist()]
    reduced = _reduce(rows, q)
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


def rank(A, q: int) -> int:
    A = as_field(A, q)
    if A.size == 0:
        return 0
    _, pivots = rref(A, q)
    return len(pivots)


def nullspace(A, q: int) -> np.ndarray:
    """Basis of the right nullspace, one vector per ROW of the result.

    The result has shape (nullity, n); for a full-rank square matrix it
    is an empty (0, n) array.  Row i is the free column free[i] set to 1,
    with each pivot variable solved from the reduced rows.
    """
    A = as_field(A, q)
    n = A.shape[1]
    R, pivots = rref(A, q)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[:, free] = np.eye(free.size, dtype=np.int64)
    basis[:, pivots] = -R[:len(pivots), free].T % q
    return basis


def solve(A, b, q: int):
    """One solution x of A x = b over F_q, or None if inconsistent.

    The reference that `Presolved.solve_many` is tested against.
    """
    A = as_field(A, q)
    b = as_field(b, q).reshape(-1)
    m, n = A.shape
    aug = np.concatenate([A, b.reshape(m, 1)], axis=1)
    R, pivots = rref(aug, q)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = R[r, n]
    return x


class Presolved:
    """A once-reduced matrix for solving A x = b against many b.

    Row-reducing [A | I] yields E with E @ A in echelon form; a system
    is consistent iff E @ b vanishes on the rows below the last pivot
    of A, and then the pivot rows of E @ b read off one solution.
    """

    def __init__(self, A, q: int):
        A = as_field(A, q)
        m, n = A.shape
        self.q = q
        self.n_cols = n
        aug = np.concatenate([A, np.eye(m, dtype=np.int64)], axis=1)
        R, pivots = rref(aug, q)
        self.pivots = [p for p in pivots if p < n]
        self.E = R[:, n:]
        self.n_pivot_rows = len(self.pivots)

    def solve_many(self, B) -> tuple[np.ndarray, np.ndarray]:
        """Solves A x = b for every column b of B.

        Returns (X, ok): column j of X solves column j of B whenever
        ok[j]; columns with ok[j] False are inconsistent (X zero there).
        """
        B = as_field(B, self.q)
        C = self.E @ B % self.q
        ok = ~C[self.n_pivot_rows:].any(axis=0)
        X = np.zeros((self.n_cols, B.shape[1]), dtype=np.int64)
        for r, pc in enumerate(self.pivots):
            X[pc] = C[r]
        X[:, ~ok] = 0
        return X, ok


class LinearSystem:
    """Linear equations in several unknown matrices over F_q.

    Unknowns are named matrices of fixed shape; each equation is a sum
    of terms A @ X @ B (A, B known, None standing for the identity) set
    equal to zero.  Unknowns and equations are flattened row-major: the
    equation's rows are the entries of A @ X @ B, and X[k, l] has
    coefficient A[i, k] * B[l, j] in row (i, j).  Rows are stored sparse,
    as dicts column -> nonzero entry mod q, built from the nonzeros of A
    and B alone; `nullspace_dim` and `nullspace_basis` reduce them with
    `_reduce` directly, and only `matrix` builds a dense array.
    """

    def __init__(self, q: int):
        self.q = q
        self._shapes: dict[str, tuple[int, int]] = {}
        self._offsets: dict[str, int] = {}
        self._width = 0
        self._height = 0
        self._rows: dict[int, dict[int, int]] = {}

    def add_unknown(self, name: str, shape: tuple[int, int]) -> None:
        if name in self._shapes:
            raise ValueError(f"unknown {name!r} already declared")
        self._shapes[name] = shape
        self._offsets[name] = self._width
        self._width += shape[0] * shape[1]

    @property
    def width(self) -> int:
        return self._width

    def add_equation(self, terms) -> None:
        """terms: iterable of (A, name, B) whose sum is set to zero.

        A or B may be None for the identity.  Every term's A @ X @ B
        must share one output shape.
        """
        shape = None
        eq: dict[int, dict[int, int]] = {}
        for A, name, B in terms:
            rows, cols = self._shapes[name]
            left, right = _nonzeros(A, rows), _nonzeros(B, cols)
            a_shape = (rows, rows) if A is None else np.shape(A)
            b_shape = (cols, cols) if B is None else np.shape(B)
            if a_shape[1] != rows or b_shape[0] != cols:
                raise ValueError(f"term shape mismatch on {name!r}")
            if shape is None:
                shape = (a_shape[0], b_shape[1])
            elif (a_shape[0], b_shape[1]) != shape:
                raise ValueError("terms have mismatched output shapes")
            off, out_cols = self._offsets[name], shape[1]
            for i, k, a in left:
                first_row, first_col = i * out_cols, off + k * cols
                for l, j, b in right:
                    row = eq.get(first_row + j)
                    if row is None:
                        row = eq[first_row + j] = {}
                    row[first_col + l] = row.get(first_col + l, 0) + a * b
        if shape is None:
            raise ValueError("equation needs at least one term")
        q, top = self.q, self._height
        for r, row in eq.items():
            row = {c: x for c, v in row.items() if (x := v % q)}
            if row:
                self._rows[top + r] = row
        self._height += shape[0] * shape[1]

    def matrix(self) -> np.ndarray:
        return _dense(self._rows.items(), (self._height, self._width))

    def _unpack(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        for name, (r, c) in self._shapes.items():
            off = self._offsets[name]
            out[name] = vec[off:off + r * c].reshape(r, c).copy()
        return out

    def nullspace_dim(self) -> int:
        return self._width - len(_reduce(self._rows.values(), self.q))

    def nullspace_basis(self) -> list[dict[str, np.ndarray]]:
        """The basis `nullspace(self.matrix(), q)` gives, read off the
        reduced sparse rows: vector i sets free column free[i] to 1 and
        each pivot column p to -(entry of p's row at free[i])."""
        q = self.q
        pivots = _reduce(self._rows.values(), q)
        free = [c for c in range(self._width) if c not in pivots]
        index = {c: i for i, c in enumerate(free)}
        basis = np.zeros((len(free), self._width), dtype=np.int64)
        for c, i in index.items():
            basis[i, c] = 1
        for p, row in pivots.items():
            for c, v in row.items():
                if c != p:
                    basis[index[c], p] = -v % q
        return [self._unpack(v) for v in basis]


def _nonzeros(M, size: int) -> list[tuple[int, int, int]]:
    """Nonzero entries (i, j, M[i, j]) of M.

    None stands for the size x size identity.
    """
    if M is None:
        return [(k, k, 1) for k in range(size)]
    return [(i, j, v)
            for i, line in enumerate(np.asarray(M, dtype=np.int64).tolist())
            for j, v in enumerate(line) if v]
