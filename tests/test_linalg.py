"""Exact F_q linear algebra against hand-worked examples."""

import copy

import numpy as np
import pytest

from gentledef import linalg


def test_rref_invertible_mod5():
    R, pivots = linalg.rref([[1, 2], [3, 4]], 5)
    assert pivots == [0, 1]
    assert (R == np.eye(2, dtype=np.int64)).all()


def _system(A, q):
    """The dense matrix A as a LinearSystem A @ x + y @ B = 0 with x of
    shape (n, 1) and y of shape (m, 0), so that its rows are A's."""
    m, n = np.shape(A)
    sys = linalg.LinearSystem(q)
    sys.add_unknown("x", (n, 1))
    sys.add_unknown("y", (m, 0))
    sys.add_equation(linalg._nonzeros(A), "x", "y", ((0, 1), []))
    return sys


def _nullspace(A, q):
    """Textbook nullspace basis from `_gauss_jordan`, one vector per row:
    row i sets free column free[i] to 1 and solves the pivot variables."""
    R, pivots = _gauss_jordan(A, q)
    n = R.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, p in enumerate(pivots):
            basis[i, p] = -R[r, f] % q
    return basis


def _solve(A, b, q):
    """One solution x of A x = b from `_gauss_jordan` of [A | b], free
    variables zero, or None if inconsistent."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[1]
    R, pivots = _gauss_jordan(
        np.concatenate([A, np.reshape(b, (-1, 1))], axis=1), q)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for r, p in enumerate(pivots):
        x[p] = R[r, n]
    return x


def test_rank_and_nullspace_of_rank_one_matrix():
    A = [[1, 2], [2, 4]]
    assert linalg.rref(A, 5)[1] == [0]
    for ns in (linalg.Presolved(_system(A, 5)).nullspace, _nullspace(A, 5)):
        assert ns.shape == (1, 2)
        # x + 2y = 0 over F_5 pins (3, 1) as the free-column vector
        assert ns[0].tolist() == [3, 1]
        assert (linalg.as_field(A, 5) @ ns[0] % 5 == 0).all()


def test_solve_upper_triangular_mod3():
    A, b = [[1, 1], [0, 1]], [1, 2]
    X, ok = linalg.Presolved(_system(A, 3)).solve_many(np.reshape(b, (2, 1)))
    assert ok.tolist() == [True]
    assert X[:, 0].tolist() == _solve(A, b, 3).tolist() == [2, 2]


def test_solve_inconsistent_returns_none():
    A, b = [[1, 1], [2, 2]], [1, 1]
    X, ok = linalg.Presolved(_system(A, 3)).solve_many(np.reshape(b, (2, 1)))
    assert ok.tolist() == [False]
    assert not X.any()
    assert _solve(A, b, 3) is None


def test_nullspace_of_empty_and_full_rank():
    eye, empty = np.eye(3, dtype=np.int64), np.zeros((0, 3), dtype=np.int64)
    assert linalg.Presolved(_system(eye, 7)).nullspace.shape == (0, 3)
    assert _nullspace(eye, 7).shape == (0, 3)
    assert linalg.Presolved(_system(empty, 7)).nullspace.shape == (3, 3)
    assert _nullspace(empty, 7).shape == (3, 3)


def _no_back_substitution(*args):
    raise AssertionError("a rank count back-substituted")


def _kron_reference(shapes, equations, q):
    """The dense matrix of equations (A, x, y, B), each A @ X + Y @ B = 0
    over unknowns of the given shapes: column c is every equation's
    row-major vec, stacked, with the unknowns set to the c-th unit
    vector (row-major vec, unknowns in declaration order)."""
    def apply(vec):
        X, off = {}, 0
        for name, (r, c) in shapes.items():
            X[name] = vec[off:off + r * c].reshape(r, c)
            off += r * c
        return np.concatenate(
            [(A @ X[x] + X[y] @ B).reshape(-1)
             for A, x, y, B in equations]) % q

    width = sum(r * c for r, c in shapes.values())
    height = apply(np.zeros(width, dtype=np.int64)).size
    expected = np.zeros((height, width), dtype=np.int64)
    for c, e in enumerate(np.eye(width, dtype=np.int64)):
        expected[:, c] = apply(e)
    return expected


def test_kron_flattening_matches_direct_product(monkeypatch):
    # Column c of matrix() is vec(A @ X + Y @ B) of each equation, stacked,
    # with the unknowns set to the c-th unit vector (row-major vec,
    # unknowns in declaration order).  nullspace_dim must be
    # width - rank(matrix()) without back-substituting, and the
    # nullspace of Presolved must be the textbook nullspace of matrix()
    # row for row.  Shapes up to 5 give row strides n >= 4; each
    # equation's block of m * n rows starts where the last one ended,
    # empty blocks included, and no stored row is empty.
    sparse = linalg._nonzeros
    rng = np.random.default_rng(7)
    seen = {"X == Y": 0, "cancels": 0, "0 rows": 0, "0 columns": 0,
            "empty block": 0, "stride >= 4": 0}
    for q in (2, 3, 5, 7):
        for _ in range(40):
            sys = linalg.LinearSystem(q)
            shapes = {f"X{i}": tuple(int(d) for d in rng.integers(0, 6, 2))
                      for i in range(int(rng.integers(1, 4)))}
            for name, shape in shapes.items():
                sys.add_unknown(name, shape)
            equations, tops, top = [], [], 0
            for _ in range(int(rng.integers(1, 4))):
                x, y = (str(name) for name in rng.choice(list(shapes), 2))
                # entries outside [0, q) must be reduced by the system
                A = rng.integers(-q, 2 * q, size=(shapes[y][0], shapes[x][0]))
                B = rng.integers(-q, 2 * q, size=(shapes[y][1], shapes[x][1]))
                if x == y and A.size and B.size:
                    # A[0, 0] and B[0, 0] both sit at X[0, 0] in row (0, 0)
                    A[0, 0] = int(rng.integers(1, q)) + q * int(
                        rng.integers(-1, 2))
                    B[0, 0] = -A[0, 0] + q * int(rng.integers(-1, 2))
                    seen["cancels"] += 1
                seen["X == Y"] += x == y
                sys.add_equation(sparse(A), x, y, sparse(B))
                equations.append((A, x, y, B))
                tops.append((top, x, y))
                top += A.shape[0] * B.shape[1]
                seen["empty block"] += A.shape[0] * B.shape[1] == 0
                seen["stride >= 4"] += B.shape[1] >= 4 and A.any()

            assert sys.height == top and sys.equations == tops
            assert all(sys._rows.values())
            assert all(0 <= r < top for r in sys._rows)
            M = sys.matrix()
            assert np.array_equal(M, _kron_reference(shapes, equations, q))
            _, pivots = _gauss_jordan(M, q)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_back_substitute",
                              _no_back_substitution)
                assert sys.nullspace_dim() == sys.width - len(pivots)
            basis = linalg.Presolved(sys).nullspace
            dense = _nullspace(M, q)
            assert len(basis) == dense.shape[0]
            assert all(np.array_equal(b, d) for b, d in zip(basis, dense))
            seen["0 rows"] += M.shape[0] == 0
            seen["0 columns"] += M.shape[1] == 0
    assert all(seen.values()), seen


def test_row_that_cancels_is_dropped_or_refilled():
    # A @ X + X @ B with B[0, 0] = -A[0, 0]: row (0, 0) cancels at
    # X[0, 0]; in the first case B[1, 0] then refills it at X[0, 1], in
    # the second nothing does and the row stays empty.
    A = np.array([[1, 0], [0, 0]])
    for B, empty in ((np.array([[-1, 0], [1, 0]]), [3]),
                     (np.array([[-1, 0], [0, 0]]), [0, 3])):
        for q in (2, 3):
            sys = linalg.LinearSystem(q)
            sys.add_unknown("X", (2, 2))
            sys.add_equation(linalg._nonzeros(A), "X", "X",
                             linalg._nonzeros(B))
            want = _kron_reference({"X": (2, 2)}, [(A, "X", "X", B)], q)
            assert np.array_equal(sys.matrix(), want)
            assert sys.height == 4
            assert sorted(sys._rows) == [r for r in range(4)
                                         if r not in empty]
            assert all(sys._rows.values())


def test_reductions_never_modify_their_input():
    # _reduce keeps an input row whose least column is a new pivot with
    # entry 1 as that pivot, uncopied, and back-substitution then clears
    # such rows: every reduction must leave the caller's rows as given.
    rng = np.random.default_rng(41)
    kept = 0
    for q in (2, 3, 5, 7):
        for A in _random_matrices(rng, q):
            sys, dense = _system(A, q), A.copy()
            before = copy.deepcopy(sys._rows)
            pivots = linalg._reduce(sys._rows.values(), q).values()
            kept += any(p is r for p in pivots for r in sys._rows.values())
            sys.nullspace_dim()
            pre = linalg.Presolved(sys)
            pre.solve_many(rng.integers(0, q, size=(sys.height, 2)))
            assert sys._rows == before
            linalg.rref(A, q)
            assert np.array_equal(A, dense)
    assert kept


def test_presolved_builds_E_only_when_solve_many_reads_it(monkeypatch):
    # The nullspace and pivots come from the one reduction of [A | I];
    # the dense E is written out on the first solve and then kept.
    A = [[1, 1, 0], [0, 0, 1], [1, 1, 1]]

    def no_dense(rows, shape):
        raise AssertionError("the nullspace built a dense matrix")

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_dense", no_dense)
        pre = linalg.Presolved(_system(A, 3))
        assert pre.nullspace.tolist() == [[2, 1, 0]]
        assert pre.pivots == [0, 2]
    built, dense = [], linalg._dense
    monkeypatch.setattr(linalg, "_dense",
                        lambda *args: built.append(args) or dense(*args))
    for b in ([1, 1, 0], [0, 1, 1]):
        X, ok = pre.solve_many(np.reshape(b, (3, 1)))
        want = _solve(A, b, 3)
        assert ok.tolist() == [want is not None]
        assert X[:, 0].tolist() == (want if ok[0] else np.zeros(3)).tolist()
    assert len(built) == 1


def test_linear_system_commutant_of_nilpotent_block():
    # X with NX = XN for a regular nilpotent N: dim 2 over any field
    N = np.array([[0, 0], [1, 0]])
    for q in (2, 5):
        sys = linalg.LinearSystem(q)
        sys.add_unknown("X", (2, 2))
        sys.add_equation(linalg._nonzeros(N), "X", "X", linalg._nonzeros(-N))
        assert sys.nullspace_dim() == 2
        for X in sys.unpack(linalg.Presolved(sys).nullspace)["X"]:
            assert ((N @ X - X @ N) % q == 0).all()


def test_linear_system_rejects_mismatched_shapes_and_redeclared_names():
    sparse = linalg._nonzeros
    sys = linalg.LinearSystem(3)
    sys.add_unknown("X", (2, 3))
    sys.add_unknown("Y", (4, 5))
    with pytest.raises(ValueError, match="already declared"):
        sys.add_unknown("X", (2, 3))
    # A @ X + Y @ B needs A: 4 x 2 and B: 5 x 3
    good_A, good_B = np.ones((4, 2), int), np.ones((5, 3), int)
    for A, B in [(np.ones((4, 3), int), good_B),   # A's columns != X's rows
                 (np.ones((3, 2), int), good_B),   # A's rows != Y's rows
                 (good_A, np.ones((4, 3), int)),   # B's rows != Y's columns
                 (good_A, np.ones((5, 2), int))]:  # B's columns != X's columns
        with pytest.raises(ValueError, match="shape mismatch"):
            sys.add_equation(sparse(A), "X", "Y", sparse(B))
    assert sys.matrix().shape == (0, sys.width)
    sys.add_equation(sparse(good_A), "X", "Y", sparse(good_B))
    assert sys.matrix().shape == (12, sys.width)


def test_presolve_matches_single_solve():
    rng = np.random.default_rng(19)
    for q in (2, 5):
        for _ in range(10):
            A = rng.integers(0, q, size=(4, 3))
            B = rng.integers(0, q, size=(4, 6))
            pre = linalg.Presolved(_system(A, q))
            X, ok = pre.solve_many(B)
            for j in range(6):
                single = _solve(A, B[:, j], q)
                if single is None:
                    assert not ok[j]
                else:
                    assert ok[j]
                    assert not ((A @ X[:, j] - B[:, j]) % q).any()


def test_presolve_zero_width():
    pre = linalg.Presolved(_system(np.zeros((2, 0), dtype=np.int64), 2))
    X, ok = pre.solve_many(np.array([[0, 1], [0, 0]]))
    assert X.shape == (0, 2)
    assert ok.tolist() == [True, False]


def _gauss_jordan(A, q):
    """Textbook reduction, one row update at a time: the reference."""
    R = np.asarray(A, dtype=np.int64) % q
    m, n = R.shape
    pivots, row = [], 0
    for col in range(n):
        if row == m:
            break
        nz = [r for r in range(row, m) if R[r, col]]
        if not nz:
            continue
        R[[row, nz[0]]] = R[[nz[0], row]]
        R[row] = R[row] * pow(int(R[row, col]), q - 2, q) % q
        for r in range(m):
            if r != row and R[r, col]:
                R[r] = (R[r] - R[r, col] * R[row]) % q
        pivots.append(col)
        row += 1
    return R, pivots


def _random_matrices(rng, q):
    yield np.zeros((0, 4), dtype=np.int64)
    yield np.zeros((3, 0), dtype=np.int64)
    for _ in range(25):
        m, n = (int(d) for d in rng.integers(1, 9, 2))
        yield rng.integers(0, q, size=(m, n))          # tall, wide, square
        r = int(rng.integers(0, min(m, n) + 1))
        yield rng.integers(0, q, size=(m, r)) @ rng.integers(
            0, q, size=(r, n)) % q                      # rank at most r
        sparse = rng.integers(0, q, size=(m, n))
        yield sparse * (rng.random((m, n)) < 0.3)


def test_rref_matches_textbook_gauss_jordan():
    rng = np.random.default_rng(23)
    for q in (2, 3, 5, 7):
        for A in _random_matrices(rng, q):
            R, pivots = linalg.rref(A, q)
            R_ref, pivots_ref = _gauss_jordan(A, q)
            assert pivots == pivots_ref
            assert R.shape == R_ref.shape and (R == R_ref).all()


def test_presolve_matches_column_solves_on_random_draws():
    # The 0 x 4 and 3 x 0 draws come first; the nullspace is the
    # textbook one row for row.
    rng = np.random.default_rng(29)
    for q in (2, 3, 5, 7):
        for A in _random_matrices(rng, q):
            m, n = A.shape
            # half the columns are consistent by construction
            B = np.concatenate(
                [A @ rng.integers(0, q, size=(n, 2)) % q,
                 rng.integers(0, q, size=(m, 2))], axis=1)
            pre = linalg.Presolved(_system(A, q))
            want = _nullspace(A, q)
            assert pre.nullspace.shape == want.shape
            assert (pre.nullspace == want).all()
            X, ok = pre.solve_many(B)
            for j in range(B.shape[1]):
                single = _solve(A, B[:, j], q)
                assert ok[j] == (single is not None)
                if single is not None:
                    assert (X[:, j] == single).all()
                else:
                    assert not X[:, j].any()

