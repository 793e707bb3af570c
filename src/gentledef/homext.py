"""Homomorphism and extension spaces of finite modules.

Two independent engines compute Ext^1: a linear one (cocycles modulo
coboundaries, with dim B^1 obtained from the hom space by counting) and
an exhaustive one that enumerates every cocycle tuple and every
coboundary over F_q and counts classes.  The two are kept free of
shared code on purpose so they can check each other.

The exhaustive engine tests every tuple in F_q^width against every
relation without building the tuples: a tuple is an index whose base-q
digits, least first, are its entries, and the candidates are one
boolean grid with an axis per arrow block, of length q^(block size),
last arrow first, so that the grid's flat C-order position is the
index.  Each relation b*a is evaluated once, by direct matrix
products, on every pair of blocks of b and a (every block, for a loop
relation a*a), and its table of zero tests is ANDed into the grid along
those two axes (that one axis).  The cocycles Z are the grid's true
positions, kept as indices only.  The coboundaries B form the group
generated by the coboundaries of the unit vertex maps, so if 0 is in Z
and Z + d lies in Z for each such generator d, then Z is a union of
cosets of B and the classes number |Z| / |B|.  Adding d changes an
index only in the digits where d is nonzero, so each generator costs a
few integer operations per cocycle and a lookup in the grid.  |B| is
the number of distinct coboundary indices, counted by a sort and a
comparison of neighbours.  The q-ary digit tables behind the block
tables and the coboundary sources depend only on a shape and q, so
each is built once per process and kept read-only in a module dict,
but only up to `_TABLE_ROWS` rows; `lifts` also reads them for its
fans.

The linear engine solves one cochain complex on Bardzell's paths
(`Presentation.bardzell_paths`): vertices, arrows, relations b*a and
overlaps g*b*a, of degrees 0 to 3.  A k-cochain h gives each degree-k
path p_k...p_1 from s to t a block h_p: m_s -> n_t, and d^k,
`cochain_system(m, n, k)`, has one equation A·X + Y·B = 0 per
degree-(k+1) path:

    n_(p_(k+1)) h_(p_k...p_1) + (-1)^(k+1) h_(p_(k+1)...p_2) m_(p_1) = 0.

Hom is the kernel of d^0 (`hom_system`), the Ext^1 cocycles that of d^1
(`ext_system`).  d^k's rows are laid out as d^(k+1)'s unknowns, so the
columns of hom_system(m, n).matrix() are the unit coboundaries.  Rows
hold only nonzeros of the actions, read once per module as
`FinModule.sparse_action` and, negated, `FinModule.negated_action`;
`hom_dim` and `ext1_dim` count their ranks by forward elimination alone.
Only `hom_basis`, which reads the nullspace of a `linalg.Presolved`, and
`modules_isomorphic` back-substitute: the latter searches combinations
of `hom_basis` maps and counts the pivots of `rref` on each vertex block
to test it for invertibility.
Callers ask for Hom and then Ext^1 of one pair (End = k comes before
the tangent space), and dim B^1 is the total vertex-map dimension less
dim Hom, so the pair shares one Hom reduction: `hom_dim` keeps its last
answer on the source module, in the one-entry memo `FinModule._hom`,
and `coboundary_dim` (so `ext1_dim`) and `end_is_trivial` read it
through `hom_dim`.  Modules are immutable, so a hit needs only the same
partner object, held weakly; nothing is kept across pairs.
The same complex carries the first-order deformation theory of a
module V in `lifts`: ext_system(V, V) gives the equations of each new
coefficient level of a lift, reduced once as a `linalg.Presolved`, and
lays out a lift's levels; the columns of hom_system(V, V).matrix() are
the directions in which conjugation by 1 + t g moves a lift.
"""

from __future__ import annotations

import weakref

import numpy as np

from .linalg import LinearSystem, Presolved, rref
from .presentation import Presentation
from .strings import FinModule, StringWord, enumerate_strings, string_module

DEFAULT_BUDGET = 2 ** 20


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


def _common(m: FinModule, n: FinModule) -> tuple[Presentation, int]:
    p = m.presentation
    if p is not n.presentation and p != n.presentation:
        raise ValueError("modules live over different presentations")
    if m.q != n.q:
        raise ValueError("modules live over different fields")
    return p, m.q


def cochain_system(m: FinModule, n: FinModule, k: int) -> LinearSystem:
    """d^k, for k = 0, 1, 2: one unknown per degree-k path, one equation
    per degree-(k+1) path (see the module docstring)."""
    p, q = _common(m, n)
    right = m.sparse_action if k % 2 else m.negated_action
    sys = LinearSystem(q)
    for name, s, t in p.bardzell_paths[k][0]:
        sys.add_unknown(name, (n.dims[t], m.dims[s]))
    for last, x, y, first in p.bardzell_paths[k + 1][1]:
        sys.add_equation(n.sparse_action[last], x, y, right[first])
    return sys


def hom_system(m: FinModule, n: FinModule) -> LinearSystem:
    """Intertwiner equations for maps m -> n, one unknown per vertex."""
    return cochain_system(m, n, 0)


def hom_dim(m: FinModule, n: FinModule) -> int:
    """dim Hom(m, n), kept in m's one-entry memo `FinModule._hom`.

    Modules are immutable, so the memo is a weak reference to n and the
    answer; it hits only on that same object, which `_common` accepted on
    the miss that stored it, and keeps no partner alive.
    """
    seen = m._hom
    if seen is None or seen[0]() is not n:
        seen = (weakref.ref(n), hom_system(m, n).nullspace_dim())
        object.__setattr__(m, "_hom", seen)
    return seen[1]


def hom_basis(m: FinModule, n: FinModule) -> list[dict[str, np.ndarray]]:
    system = hom_system(m, n)
    return [system.unpack(v) for v in Presolved(system).nullspace]


def end_is_trivial(m: FinModule) -> bool:
    return hom_dim(m, m) == 1


def ext_system(m: FinModule, n: FinModule) -> LinearSystem:
    """Cocycle equations: one unknown per arrow, one equation per relation."""
    return cochain_system(m, n, 1)


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
    """True iff some F_q-linear combination of hom basis maps is invertible.

    Modules whose action matrices agree entrywise mod q are isomorphic by
    the identity, and are answered without the basis search.
    """
    p, q = _common(m, n)
    if m.dims != n.dims:
        return False
    if m.total_dim == 0 or not any(
            ((m.action[a] - n.action[a]) % q).any()
            for a in p.quiver.arrow_names):
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
            if len(rref(g, q)[1]) != m.dims[v]:
                good = False
                break
        if good:
            return True
    return False


# Digit tables of at most this many rows are kept in _TABLES, by
# (count, width, q), once built; larger ones are built on every call.
_TABLE_ROWS = 4096
_TABLES: dict[tuple[int, int, int], np.ndarray] = {}


def _mixed_radix(count: int, width: int, q: int) -> np.ndarray:
    """The first `count` q-ary tuples of the given width, one per row,
    least digit first, as a read-only table.

    A table of at most `_TABLE_ROWS` rows is built once per process and
    shared by every caller.
    """
    key = (count, width, q)
    table = _TABLES.get(key)
    if table is None:
        idx = np.arange(count, dtype=np.int64)[:, None]
        table = (idx // q ** np.arange(width, dtype=np.int64)) % q
        table.flags.writeable = False
        if count <= _TABLE_ROWS:
            _TABLES[key] = table
    return table


def _block_table(shape: tuple[int, int], q: int) -> np.ndarray:
    """Every block of the given shape, indexed by its code: code c is
    the block whose row-major entries are the q-ary digits of c."""
    size = shape[0] * shape[1]
    return _mixed_radix(q ** size, size, q).reshape(q ** size, *shape)


def brute_force_ext(m: FinModule, n: FinModule,
                    budget: int = DEFAULT_BUDGET) -> int:
    """Ext^1 dimension by exhaustive enumeration over F_q.

    Enumerates every arrow-tuple, keeps the set Z of those annihilating
    the relations, and enumerates every coboundary, the set B.  B is
    the group generated by the coboundaries of the unit vertex maps, so
    once 0 is in Z and Z is closed under adding each of them, Z is a
    union of cosets of B and the classes number |Z| / |B|.  Returns
    log_q |Z| - log_q |B|, each count checked to be a power of q.
    """
    p, q = _common(m, n)
    # (arrow, offset, shape) of each cocycle block: the oracle keeps its
    # own layout, so that it reads nothing of ext_system.
    layout, width = [], 0
    for a, s, t in p.quiver.arrows:
        layout.append((a, width, (n.dims[t], m.dims[s])))
        width += n.dims[t] * m.dims[s]
    gwidth = sum(n.dims[v] * m.dims[v] for v in p.quiver.vertices)
    if q ** width > budget:
        raise BudgetExceededError(
            f"{q}^{width} cocycle candidates exceed budget {budget}")
    if q ** gwidth > budget:
        raise BudgetExceededError(
            f"{q}^{gwidth} coboundary sources exceed budget {budget}")
    if width and int(q) ** width >= 2 ** 62:
        raise BudgetExceededError("cocycle indices would overflow int64")

    # Arrow i of k is grid axis k - 1 - i, so a flat C-order position in
    # the grid is the candidate index, whose digits run least first.
    axis = {a: len(layout) - 1 - i for i, (a, _, _) in enumerate(layout)}
    shapes = {a: shape for a, _, shape in layout}
    grid = np.ones([q ** (r * c) for _, _, (r, c) in reversed(layout)],
                   dtype=bool)
    for beta, alpha in p.relations:
        if n.dims[p.target(beta)] * m.dims[p.source(alpha)] == 0:
            continue
        f_a = _block_table(shapes[alpha], q)
        values = n.action[beta] @ f_a
        if beta == alpha:
            values = values + f_a @ m.action[alpha]
            axes = [axis[alpha]]
        else:
            f_b = _block_table(shapes[beta], q)
            values = values[None] + (f_b @ m.action[alpha])[:, None]
            axes = [axis[beta], axis[alpha]]
        table = ~(values % q).any(axis=(-2, -1))
        if len(axes) == 2 and axes[0] > axes[1]:
            table, axes = table.T, axes[::-1]
        grid &= np.expand_dims(
            table, [ax for ax in range(grid.ndim) if ax not in axes])

    gcount = q ** gwidth
    gcand = _mixed_radix(gcount, gwidth, q)
    g, goff = {}, 0
    for v in p.quiver.vertices:
        r, c = n.dims[v], m.dims[v]
        g[v] = gcand[:, goff:goff + r * c].reshape(gcount, r, c)
        goff += r * c
    deltas = np.zeros((gcount, width), dtype=np.int64)
    for a, off, (r, c) in layout:
        part = n.action[a] @ g[p.source(a)] - g[p.target(a)] @ m.action[a]
        deltas[:, off:off + r * c] = (part % q).reshape(gcount, r * c)

    # Row q^j of deltas is the coboundary of the j-th unit vertex map;
    # adding it changes a cocycle's index only in its nonzero digits.
    weights = q ** np.arange(width, dtype=np.int64)
    flat = grid.ravel()
    cocycles = np.flatnonzero(flat)
    if not flat[0]:
        raise AssertionError("the zero tuple is not a cocycle")
    for d in deltas[q ** np.arange(gwidth, dtype=np.int64)]:
        moved = cocycles.copy()
        for i in np.flatnonzero(d):
            digit = cocycles // weights[i] % q
            moved += ((digit + d[i]) % q - digit) * weights[i]
        if not flat[moved].all():
            raise AssertionError("a coboundary moves a cocycle off the grid")
    bounds = deltas @ weights
    bounds.sort()
    distinct = 1 + np.count_nonzero(bounds[1:] != bounds[:-1])
    zlog, blog = _exact_log(cocycles.size, q), _exact_log(distinct, q)
    if zlog is None or blog is None:
        raise AssertionError("enumeration counts are not powers of q")
    return zlog - blog


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
