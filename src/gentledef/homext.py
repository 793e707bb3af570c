"""Homomorphism and extension spaces of finite modules.

Two independent engines compute Ext^1: a linear one (cocycles modulo
coboundaries, with dim B^1 obtained from the hom space by counting) and
an exhaustive one that enumerates every cocycle tuple and every
coboundary over F_q and counts orbits.  The two are kept free of shared
code on purpose so they can check each other.

The linear systems also carry the first-order deformation theory of a
module V that `lifts` builds on: the cocycle equations of ext_system(V, V)
are the equations of each new coefficient level of a lift, and the
columns of hom_system(V, V).matrix() span the coboundaries, the
directions in which conjugation by 1 + t g moves a lift.
"""

from __future__ import annotations

import numpy as np

from .linalg import LinearSystem, as_field, rank
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
        eye_s = np.eye(m.dims[s], dtype=np.int64)
        neg_t = (-np.eye(n.dims[t], dtype=np.int64)) % q
        sys.add_equation([
            (n.action[a], s, eye_s),
            (neg_t, t, m.action[a]),
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
            (n.action[beta], alpha,
             np.eye(m.dims[p.source(alpha)], dtype=np.int64)),
            (np.eye(n.dims[p.target(beta)], dtype=np.int64),
             beta, m.action[alpha]),
        ])
    return sys


def cocycle_dim(m: FinModule, n: FinModule) -> int:
    return ext_system(m, n).nullspace_dim()


def cocycle_basis(m: FinModule, n: FinModule) -> list[dict[str, np.ndarray]]:
    return ext_system(m, n).nullspace_basis()


def coboundary_dim(m: FinModule, n: FinModule) -> int:
    p, _ = _common(m, n)
    total = sum(n.dims[v] * m.dims[v] for v in p.quiver.vertices)
    return total - hom_dim(m, n)


def coboundary(m: FinModule, n: FinModule,
               g: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The cocycle delta(g): a -> n.action[a] g_source - g_target m.action[a]."""
    p, q = _common(m, n)
    out = {}
    for a in p.quiver.arrow_names:
        s, t = p.source(a), p.target(a)
        out[a] = (n.action[a] @ g[s] - g[t] @ m.action[a]) % q
    return out


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


def middle_term(m: FinModule, n: FinModule,
                f: dict[str, np.ndarray]) -> FinModule:
    """The extension of m by n glued along a cocycle f (n sits on top)."""
    p, q = _common(m, n)
    dims = {v: n.dims[v] + m.dims[v] for v in p.quiver.vertices}
    action = {}
    for a in p.quiver.arrow_names:
        s, t = p.source(a), p.target(a)
        block = np.zeros((dims[t], dims[s]), dtype=np.int64)
        block[:n.dims[t], :n.dims[s]] = n.action[a]
        block[:n.dims[t], n.dims[s]:] = as_field(f[a], q)
        block[n.dims[t]:, n.dims[s]:] = m.action[a]
        action[a] = block
    return FinModule(presentation=p, q=q, dims=dims, action=action,
                     provenance=f"extension of {m.provenance} by {n.provenance}")


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

    cand = _mixed_radix(q ** width, width, q)
    slots = {a: (off, shape) for a, off, shape in layout}
    mask = np.ones(cand.shape[0], dtype=bool)
    for beta, alpha in p.relations:
        rows = n.dims[p.target(beta)]
        cols = m.dims[p.source(alpha)]
        if rows * cols == 0:
            continue
        total = np.zeros((cand.shape[0], rows, cols), dtype=np.int64)
        off_a, shape_a = slots[alpha]
        if shape_a[0] * shape_a[1]:
            f_alpha = cand[:, off_a:off_a + shape_a[0] * shape_a[1]]
            f_alpha = f_alpha.reshape(-1, *shape_a)
            total += np.einsum("ij,kjl->kil", n.action[beta], f_alpha)
        off_b, shape_b = slots[beta]
        if shape_b[0] * shape_b[1]:
            f_beta = cand[:, off_b:off_b + shape_b[0] * shape_b[1]]
            f_beta = f_beta.reshape(-1, *shape_b)
            total += np.einsum("kij,jl->kil", f_beta, m.action[alpha])
        if total.size:
            mask &= ~(total % q).any(axis=(1, 2))
    valid = cand[mask]

    gcand = _mixed_radix(q ** gwidth, gwidth, q)
    deltas = np.zeros((gcand.shape[0], width), dtype=np.int64)
    goff = 0
    gslices = {}
    for v, size in zip(p.quiver.vertices, gsizes):
        gslices[v] = (goff, (n.dims[v], m.dims[v]))
        goff += size
    for a, off, shape in layout:
        if shape[0] * shape[1] == 0:
            continue
        s, t = p.source(a), p.target(a)
        part = np.zeros((gcand.shape[0], *shape), dtype=np.int64)
        soff, sshape = gslices[s]
        if sshape[0] * sshape[1]:
            g_s = gcand[:, soff:soff + sshape[0] * sshape[1]]
            part += np.einsum("ij,kjl->kil", n.action[a],
                              g_s.reshape(-1, *sshape))
        toff, tshape = gslices[t]
        if tshape[0] * tshape[1]:
            g_t = gcand[:, toff:toff + tshape[0] * tshape[1]]
            part -= np.einsum("kij,jl->kil", g_t.reshape(-1, *tshape),
                              m.action[a])
        deltas[:, off:off + shape[0] * shape[1]] = (
            part % q).reshape(gcand.shape[0], -1)
    bset = np.unique(deltas, axis=0)

    if valid.shape[0] * bset.shape[0] > 8 * budget:
        raise BudgetExceededError("orbit pass exceeds budget")
    weights = q ** np.arange(width, dtype=np.int64)
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
    """Words (one per isomorphism class) whose module has End = k."""
    out = []
    for w in enumerate_strings(p, max_len):
        if end_is_trivial(string_module(p, w, q=q)):
            out.append(w)
    return out
