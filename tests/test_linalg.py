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
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        for _ in range(20):
            m, r, s, p = rng.integers(1, 4, size=4)
            A = rng.integers(0, q, size=(m, r))
            X = rng.integers(0, q, size=(r, s))
            B = rng.integers(0, q, size=(s, p))
            direct = (A @ X @ B % q).reshape(-1)
            flat = np.kron(A, B.T) % q @ X.reshape(-1) % q
            assert (direct == flat).all()


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
    x = pre.solve(np.zeros(2, dtype=np.int64))
    assert x is not None and x.size == 0
    assert pre.solve(np.array([1, 0])) is None
