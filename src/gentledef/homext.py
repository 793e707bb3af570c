"""Homomorphism and extension spaces of finite modules.

Two independent engines compute Ext^1: a linear one (cocycles modulo
coboundaries, with dim B^1 obtained from the hom space by counting) and
an exhaustive one that enumerates every cocycle tuple and every
coboundary over F_q and counts orbits.  The two are kept free of shared
code on purpose so they can check each other.

The exhaustive engine tests every tuple in F_q^width against every
relation without building the tuples: a tuple is an index whose base-q
digits, least first, are its entries, so each arrow's block is one
integer code.  Each relation b*a is evaluated by direct matrix products
on every pair of codes (every code, for a loop relation a*a), and an
index survives when each relation's table is zero at its codes.  Only
the survivors are decoded into cocycle rows.

The linear engine's systems are sparse: each equation row holds only
the products of the nonzeros of the action matrices, one-sided products
X·I and I·X are written with None for the identity, and `hom_dim` and
`ext1_dim` row-reduce those sparse rows without building a dense matrix.
The same systems carry the first-order deformation theory of a module V
that `lifts` builds on, and `lifts` reads them as dense arrays through
`matrix()`, rows in equation order: the cocycle equations of
ext_system(V, V) are the equations of each new coefficient level of a
lift, and the columns of hom_system(V, V).matrix() span the
coboundaries, the directions in which conjugation by 1 + t g moves a
lift.
"""

from __future__ import annotations

import numpy as np

from .linalg import LinearSystem, rank
from .presentation import Presentation
from .strings import FinModule, StringWord, enumerate_strings, string_module

DEFAULT_BUDGET = 2 ** 20


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


def _common(m: FinModule, n: FinModule) -> tuple[Presentation, int]:
    if m.presentation != n.presentation:
        raise ValueError("modules live over different presentations")
    if m.q != n.q:
        raise ValueError("modules live over different fields")
    return m.presentation, m.q


def hom_system(m: FinModule, n: FinModule) -> LinearSystem:
    """Intertwiner equations for maps m -> n, one unknown per vertex."""
    p, q = _common(m, n)
    sys = LinearSystem(q)
    for v in p.quiver.vertices:
        sys.add_unknown(v, (n.dims[v], m.dims[v]))
    for a in p.quiver.arrow_names:
        s, t = p.source(a), p.target(a)
        if n.dims[t] * m.dims[s] == 0:
            continue
        sys.add_equation([
            (n.action[a], s, None),
            (None, t, -m.action[a]),
        ])
    return sys


def hom_dim(m: FinModule, n: FinModule) -> int:
    return hom_system(m, n).nullspace_dim()


def hom_basis(m: FinModule, n: FinModule) -> list[dict[str, np.ndarray]]:
    return hom_system(m, n).nullspace_basis()


def end_is_trivial(m: FinModule) -> bool:
    return hom_dim(m, m) == 1


def ext_system(m: FinModule, n: FinModule) -> LinearSystem:
    """Cocycle equations: one unknown per arrow, one equation per relation.

    A cocycle assigns f_a: m at source(a) -> n at target(a) such that
    for every forbidden path b*a the mixed products cancel:
    n.action[b] @ f_a + f_b @ m.action[a] = 0.
    """
    p, q = _common(m, n)
    sys = LinearSystem(q)
    for a in p.quiver.arrow_names:
        sys.add_unknown(a, (n.dims[p.target(a)], m.dims[p.source(a)]))
    for beta, alpha in p.relations:
        sys.add_equation([
            (n.action[beta], alpha, None),
            (None, beta, m.action[alpha]),
        ])
    return sys


def cocycle_dim(m: FinModule, n: FinModule) -> int:
    return ext_system(m, n).nullspace_dim()


def coboundary_dim(m: FinModule, n: FinModule) -> int:
    p, _ = _common(m, n)
    total = sum(n.dims[v] * m.dims[v] for v in p.quiver.vertices)
    return total - hom_dim(m, n)


def ext1_dim(m: FinModule, n: FinModule) -> int:
    return cocycle_dim(m, n) - coboundary_dim(m, n)


def modules_isomorphic(m: FinModule, n: FinModule,
                       budget: int = DEFAULT_BUDGET) -> bool:
    """True iff some F_q-linear combination of hom basis maps is invertible."""
    p, q = _common(m, n)
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    basis = hom_basis(m, n)
    h = len(basis)
    if q ** h > budget:
        raise BudgetExceededError(f"{q}^{h} hom combinations exceed budget")
    verts = [v for v in p.quiver.vertices if m.dims[v]]
    for digits in _mixed_radix(q ** h, h, q):
        if not digits.any():
            continue
        good = True
        for v in verts:
            g = sum(int(c) * b[v] for c, b in zip(digits, basis)) % q
            if rank(g, q) != m.dims[v]:
                good = False
                break
        if good:
            return True
    return False


def _arrow_layout(m: FinModule, n: FinModule):
    """Flattening offsets for cocycle tuples, matching ext_system order."""
    p = m.presentation
    layout = []
    off = 0
    for a in p.quiver.arrow_names:
        shape = (n.dims[p.target(a)], m.dims[p.source(a)])
        layout.append((a, off, shape))
        off += shape[0] * shape[1]
    return layout, off


def _mixed_radix(count: int, width: int, q: int) -> np.ndarray:
    """All q-ary tuples of the given width, one per row, least digit first."""
    idx = np.arange(count, dtype=np.int64)[:, None]
    weights = q ** np.arange(width, dtype=np.int64)
    return (idx // weights) % q


def _block_codes(index: np.ndarray, off: int, shape: tuple[int, int],
                 q: int) -> tuple[np.ndarray, np.ndarray]:
    """Each candidate's code for one arrow block, and the block of each code.

    A candidate index holds its q-ary digits least first, so the block
    at flat offset off has code (index // q**off) % q**size, and code c
    is the block whose row-major entries are the digits of c.
    """
    size = shape[0] * shape[1]
    codes = (index // q ** off) % q ** size
    blocks = _mixed_radix(q ** size, size, q).reshape(q ** size, *shape)
    return codes, blocks


def brute_force_ext(m: FinModule, n: FinModule,
                    budget: int = DEFAULT_BUDGET) -> int:
    """Ext^1 dimension by exhaustive enumeration over F_q.

    Enumerates every arrow-tuple, keeps the ones annihilating the
    relations, enumerates every coboundary, and counts orbits.  Returns
    log_q of the orbit count; every intermediate count is verified to
    be the expected power of q.
    """
    p, q = _common(m, n)
    layout, width = _arrow_layout(m, n)
    gsizes = [n.dims[v] * m.dims[v] for v in p.quiver.vertices]
    gwidth = sum(gsizes)
    if q ** width > budget:
        raise BudgetExceededError(
            f"{q}^{width} cocycle candidates exceed budget {budget}")
    if q ** gwidth > budget:
        raise BudgetExceededError(
            f"{q}^{gwidth} coboundary sources exceed budget {budget}")

    slots = {a: (off, shape) for a, off, shape in layout}
    index = np.arange(q ** width, dtype=np.int64)
    mask = np.ones(index.size, dtype=bool)
    for beta, alpha in p.relations:
        if n.dims[p.target(beta)] * m.dims[p.source(alpha)] == 0:
            continue
        code, f_a = _block_codes(index, *slots[alpha], q)
        values = n.action[beta] @ f_a
        if beta == alpha:
            values = values + f_a @ m.action[alpha]
        else:
            code_b, f_b = _block_codes(index, *slots[beta], q)
            values = values[None] + (f_b @ m.action[alpha])[:, None]
            code = code + f_a.shape[0] * code_b
        mask &= ~(values % q).any(axis=(-2, -1)).ravel()[code]
    weights = q ** np.arange(width, dtype=np.int64)
    valid = (np.flatnonzero(mask)[:, None] // weights) % q

    gcount = q ** gwidth
    gcand = _mixed_radix(gcount, gwidth, q)
    deltas = np.zeros((gcount, width), dtype=np.int64)
    goff = 0
    gslices = {}
    for v, size in zip(p.quiver.vertices, gsizes):
        gslices[v] = (goff, (n.dims[v], m.dims[v]))
        goff += size
    for a, off, shape in layout:
        if shape[0] * shape[1] == 0:
            continue
        s, t = p.source(a), p.target(a)
        part = np.zeros((gcount, *shape), dtype=np.int64)
        soff, sshape = gslices[s]
        if sshape[0] * sshape[1]:
            g_s = gcand[:, soff:soff + sshape[0] * sshape[1]]
            part += n.action[a] @ g_s.reshape(gcount, *sshape)
        toff, tshape = gslices[t]
        if tshape[0] * tshape[1]:
            g_t = gcand[:, toff:toff + tshape[0] * tshape[1]]
            part -= g_t.reshape(gcount, *tshape) @ m.action[a]
        deltas[:, off:off + shape[0] * shape[1]] = (
            part % q).reshape(gcount, -1)
    bset = np.unique(deltas, axis=0)

    if valid.shape[0] * bset.shape[0] > 8 * budget:
        raise BudgetExceededError("orbit pass exceeds budget")
    if width and int(q) ** width >= 2 ** 62:
        raise BudgetExceededError("cocycle packing would overflow int64")
    shifted = (valid[:, None, :] + bset[None, :, :]) % q
    keys = (shifted * weights).sum(axis=2) if width else np.zeros(
        (valid.shape[0], bset.shape[0]), dtype=np.int64)
    canon = keys.min(axis=1)
    classes = np.unique(canon).size

    if classes * bset.shape[0] != valid.shape[0]:
        raise AssertionError("orbit counting is inconsistent")
    out = _exact_log(classes, q)
    if out is None or _exact_log(valid.shape[0], q) is None \
            or _exact_log(bset.shape[0], q) is None:
        raise AssertionError("enumeration counts are not powers of q")
    return out


def _exact_log(count: int, q: int):
    k = 0
    c = int(count)
    while c > 1 and c % q == 0:
        c //= q
        k += 1
    return k if c == 1 else None


def classify_trivial_end(p: Presentation, max_len: int,
                         q: int = 2) -> list[StringWord]:
    """Words (one per isomorphism class) whose module has End = k.

    Acceptance criterion C1 checks this list against the published one.
    """
    out = []
    for w in enumerate_strings(p, max_len):
        if end_is_trivial(string_module(p, w, q=q)):
            out.append(w)
    return out
