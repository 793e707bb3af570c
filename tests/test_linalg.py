"""Exact F_q linear algebra against hand-worked examples."""

import numpy as np

from gentledef import linalg


def test_rref_invertible_mod5():
    R, pivots = linalg.rref([[1, 2], [3, 4]], 5)
    assert pivots == [0, 1]
    assert (R == np.eye(2, dtype=np.int64)).all()


def test_rank_and_nullspace_of_rank_one_matrix():
    A = [[1, 2], [2, 4]]
    assert linalg.rank(A, 5) == 1
    ns = linalg.nullspace(A, 5)
    assert ns.shape == (1, 2)
    # x + 2y = 0 over F_5 pins (3, 1) as the free-column vector
    assert ns[0].tolist() == [3, 1]
    assert (linalg.as_field(A, 5) @ ns[0] % 5 == 0).all()


def test_solve_upper_triangular_mod3():
    x = linalg.solve([[1, 1], [0, 1]], [1, 2], 3)
    assert x.tolist() == [2, 2]


def test_solve_inconsistent_returns_none():
    assert linalg.solve([[1, 1], [2, 2]], [1, 1], 3) is None


def test_nullspace_of_empty_and_full_rank():
    assert linalg.nullspace(np.eye(3, dtype=np.int64), 7).shape == (0, 3)
    full = linalg.nullspace(np.zeros((0, 3), dtype=np.int64), 7)
    assert full.shape == (3, 3)


def test_kron_flattening_matches_direct_product():
    # matrix() @ vec(unknowns) is vec(sum of A @ X @ B) for each equation,
    # with row-major vec and unknowns in declaration order.  A None factor
    # must give the same rows as the explicit identity, nullspace_dim
    # must be width - rank(matrix()), and nullspace_basis must flatten to
    # nullspace(matrix()) row for row.
    rng = np.random.default_rng(7)
    seen = {"A None": 0, "B None": 0, "0 rows": 0, "0 columns": 0}
    for q in (2, 3, 5, 7):
        for _ in range(40):
            sys = linalg.LinearSystem(q)
            explicit = linalg.LinearSystem(q)
            shapes = {f"X{i}": tuple(int(d) for d in rng.integers(0, 4, 2))
                      for i in range(int(rng.integers(1, 4)))}
            for name, shape in shapes.items():
                sys.add_unknown(name, shape)
                explicit.add_unknown(name, shape)
            X = {name: rng.integers(0, q, size=shape)
                 for name, shape in shapes.items()}
            expected = []
            for _ in range(int(rng.integers(1, 4))):
                out = tuple(int(d) for d in rng.integers(0, 4, 2))
                terms, eye_terms = [], []
                total = np.zeros(out, dtype=np.int64)
                for _ in range(int(rng.integers(1, 4))):
                    name = str(rng.choice(list(shapes)))
                    rows, cols = shapes[name]
                    # entries outside [0, q) must be reduced by the system
                    A = rng.integers(-q, 2 * q, size=(out[0], rows))
                    B = rng.integers(-q, 2 * q, size=(cols, out[1]))
                    side = int(rng.integers(0, 3))
                    if side == 1 and rows == out[0]:
                        A = np.eye(rows, dtype=np.int64)
                        terms.append((None, name, B))
                        seen["A None"] += 1
                    elif side == 2 and cols == out[1]:
                        B = np.eye(cols, dtype=np.int64)
                        terms.append((A, name, None))
                        seen["B None"] += 1
                    else:
                        terms.append((A, name, B))
                    eye_terms.append((A, name, B))
                    total += A @ X[name] @ B
                sys.add_equation(terms)
                explicit.add_equation(eye_terms)
                expected.append(total.reshape(-1) % q)
            vec = np.concatenate([X[name].reshape(-1) for name in shapes])
            M = sys.matrix()
            assert M.shape == (sum(e.size for e in expected), vec.size)
            assert ((M >= 0) & (M < q)).all()
            assert (M @ vec % q == np.concatenate(expected)).all()
            assert np.array_equal(M, explicit.matrix())
            _, pivots = _gauss_jordan(M, q)
            assert sys.nullspace_dim() == sys.width - len(pivots)
            basis = [np.concatenate([sol[name].reshape(-1) for name in shapes])
                     for sol in sys.nullspace_basis()]
            dense = linalg.nullspace(M, q)
            assert len(basis) == dense.shape[0]
            assert all(np.array_equal(b, d) for b, d in zip(basis, dense))
            seen["0 rows"] += M.shape[0] == 0
            seen["0 columns"] += M.shape[1] == 0
    assert all(seen.values()), seen


def test_linear_system_commutant_of_nilpotent_block():
    # X with NX = XN for a regular nilpotent N: dim 2 over any field
    N = np.array([[0, 0], [1, 0]])
    for q in (2, 5):
        I2 = np.eye(2, dtype=np.int64)
        sys = linalg.LinearSystem(q)
        sys.add_unknown("X", (2, 2))
        sys.add_equation([(N, "X", I2), (((-1) % q) * I2, "X", N)])
        assert sys.nullspace_dim() == 2
        for sol in sys.nullspace_basis():
            X = sol["X"]
            assert ((N @ X - X @ N) % q == 0).all()


def test_presolve_matches_single_solve():
    rng = np.random.default_rng(19)
    for q in (2, 5):
        for _ in range(10):
            A = rng.integers(0, q, size=(4, 3))
            B = rng.integers(0, q, size=(4, 6))
            pre = linalg.Presolved(A, q)
            X, ok = pre.solve_many(B)
            for j in range(6):
                single = linalg.solve(A, B[:, j], q)
                if single is None:
                    assert not ok[j]
                else:
                    assert ok[j]
                    assert not ((A @ X[:, j] - B[:, j]) % q).any()


def test_presolve_zero_width():
    pre = linalg.Presolved(np.zeros((2, 0), dtype=np.int64), 2)
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
    rng = np.random.default_rng(29)
    for q in (2, 3, 5, 7):
        for A in _random_matrices(rng, q):
            m, n = A.shape
            # half the columns are consistent by construction
            B = np.concatenate(
                [A @ rng.integers(0, q, size=(n, 2)) % q,
                 rng.integers(0, q, size=(m, 2))], axis=1)
            X, ok = linalg.Presolved(A, q).solve_many(B)
            for j in range(B.shape[1]):
                single = linalg.solve(A, B[:, j], q)
                assert ok[j] == (single is not None)
                if single is not None:
                    assert (X[:, j] == single).all()
                else:
                    assert not X[:, j].any()
