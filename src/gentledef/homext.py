"""Homomorphism and extension spaces of finite modules.

Two independent engines compute Ext^1: a linear one (cocycles modulo
coboundaries, with dim B^1 obtained from the hom space by counting) and
an exhaustive one that enumerates every cocycle tuple and every
coboundary over F_q and counts orbits.  The two are kept free of shared
code on purpose so they can check each other.

The exhaustive engine tests every tuple in F_q^width against every
relation without building the tuples: a tuple is an index whose base-q
digits, least first, are its entries, and the candidates are one
boolean grid with an axis per arrow block, of length q^(block size),
last arrow first, so that the grid's flat C-order position is the
index.  Each relation b*a is evaluated once, by direct matrix
products, on every pair of blocks of b and a (every block, for a loop
relation a*a), and its table of zero tests is ANDed into the grid along
those two axes (that one axis).  Only the surviving positions are
decoded into cocycle rows.  Orbits are counted on packed int64 keys,
one per cocycle and one per coboundary: each entry has a bit field with
room for the sum of two residues, so a cocycle plus a coboundary is one
integer add that never carries between fields, and a top-bit test
reduces each field mod q.  The sums are formed a block of cocycles at
a time, at most `_ORBIT_CELLS` of them, each block writing its rows of
the minima, so the pass holds a few small tables rather than one of
|Z|·|B| sums.  Widths beyond one
63-bit word use several words, compared lexicographically; distinct
keys are found by a lexicographic sort and a comparison of neighbours.
The q-ary digit tables behind the block tables and the coboundary
sources, the key weights and the orbit pass's field constants depend
only on a shape and q, so each is built once per process and kept
read-only in a module dict: digit tables only up to `_TABLE_ROWS`
rows, which `lifts` also reads for its fans.

The linear engine's equations all have the form A·X + Y·B = 0 in
unknown matrices X, Y: the intertwiners n_a·X_s - X_t·m_a = 0 for Hom,
one per arrow a: s -> t, and the cocycles n_b·F_a + F_b·m_a = 0 for
Ext^1, one per relation b*a.  The systems are sparse: each equation row
holds only nonzeros of the action matrices, and `hom_dim` and
`ext1_dim` count ranks on those sparse rows by forward elimination,
with no back-substitution and no dense matrix.  The nonzeros come from
each module's `FinModule.sparse_action`, which reads an action matrix
once for every system the module enters; `hom_system` negates the
entries of m's action rather than the matrix.  Only `hom_basis` (and so
`modules_isomorphic`) back-substitutes.
Callers ask for Hom and then Ext^1 of one pair (End = k comes before
the tangent space), and dim B^1 is the total vertex-map dimension less
dim Hom, so the pair shares one Hom reduction: `hom_dim` keeps its last
answer on the source module, in the one-entry memo `FinModule._hom`,
and `coboundary_dim` (so `ext1_dim`) and `end_is_trivial` read it
through `hom_dim`.  Modules are immutable, so a hit needs only the same
partner object, held weakly; nothing is kept across pairs.
The same systems carry the first-order deformation theory of a module V
that `lifts` builds on: the cocycle equations of ext_system(V, V) are
the equations of each new coefficient level of a lift, and `lifts`
reduces them once, sparse, as a `linalg.Presolved` that solves every
level and gives the cocycle basis; it also lays out a lift's levels,
read through its `unpack` and recorded equations.  hom_system(V, V) has
one equation per arrow, in arrow order and the arrow's shape, so the
columns of hom_system(V, V).matrix() are the coboundaries in that
layout, the directions in which conjugation by 1 + t g moves a lift.
"""

from __future__ import annotations

import weakref

import numpy as np

from .linalg import LinearSystem, rank
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


def hom_system(m: FinModule, n: FinModule) -> LinearSystem:
    """Intertwiner equations for maps m -> n, one unknown per vertex."""
    p, q = _common(m, n)
    sys = LinearSystem(q)
    for v in p.quiver.vertices:
        sys.add_unknown(v, (n.dims[v], m.dims[v]))
    for a, s, t in p.quiver.arrows:
        shape, entries = m.sparse_action[a]
        sys.add_equation(n.sparse_action[a], s, t,
                         (shape, [(i, j, -v) for i, j, v in entries]))
    return sys


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
    for a, s, t in p.quiver.arrows:
        sys.add_unknown(a, (n.dims[t], m.dims[s]))
    for beta, alpha in p.relations:
        sys.add_equation(n.sparse_action[beta], alpha, beta,
                         m.sparse_action[alpha])
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
            if rank(g, q) != m.dims[v]:
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


def _distinct_rows(keys: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D int64 array, in lexicographic order.

    np.unique(keys, axis=0) by a lexsort over the columns, first column
    most significant, and a comparison of neighbours.
    """
    ordered = keys[np.lexsort(keys.T[::-1])]
    first = np.ones(ordered.shape[0], dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[first]


def _field_bits(q: int) -> int:
    """Bits per packed entry: room for the sum 2q - 2 of two residues,
    plus the top bit that flags a sum of q or more once biased."""
    return (2 * q - 2).bit_length() + 1


# _pack_keys' weight matrices by (width, q), and _orbit_minima's
# (bits, top, bias) by q, each built once per process.
_KEY_WEIGHTS: dict[tuple[int, int], np.ndarray] = {}
_ORBIT_FIELDS: dict[int, tuple[int, int, int]] = {}

# _orbit_minima adds at most this many cocycle-coboundary key pairs at
# once (at least one cocycle's row of them): 32 KB per int64 word.
_ORBIT_CELLS = 2 ** 12


def _pack_keys(rows: np.ndarray, q: int) -> np.ndarray:
    """Rows of residues mod q as packed int64 keys, one row of words each.

    Entry j is the field at bit bits * (j % per_word) of word
    j // per_word, where per_word = 63 // bits, so every word is
    nonnegative; a row of width 0 is one zero word.  The keys are one
    integer product of the rows with the matrix of field weights, which
    holds 2^(bits * (j % per_word)) at (j, j // per_word).
    """
    width = rows.shape[1]
    weights = _KEY_WEIGHTS.get((width, q))
    if weights is None:
        bits = _field_bits(q)
        per_word = 63 // bits
        j = np.arange(width)
        weights = np.zeros((width, max(1, -(-width // per_word))),
                           dtype=np.int64)
        weights[j, j // per_word] = 1 << (bits * (j % per_word))
        weights.flags.writeable = False
        _KEY_WEIGHTS[width, q] = weights
    return rows @ weights


def _orbit_minima(zkeys: np.ndarray, bkeys: np.ndarray, q: int) -> np.ndarray:
    """Each cocycle's least key over its coset z + B, words compared
    lexicographically.

    Two packed keys add field by field with one integer add, since a
    field has room for 2q - 2 and so never carries into the next.  A
    field sum s >= q is then brought back below q by subtracting q where
    s + 2**(bits - 1) - q has its top bit set.  Word w is minimised only
    over the coboundaries that tie on every earlier word.  The cocycles
    are taken in blocks of rows with at most `_ORBIT_CELLS` sums each,
    and each block writes its rows of the result.
    """
    if q not in _ORBIT_FIELDS:
        bits = _field_bits(q)
        fields = range(0, 63 // bits * bits, bits)
        _ORBIT_FIELDS[q] = (bits, sum(1 << (f + bits - 1) for f in fields),
                            sum(((1 << (bits - 1)) - q) << f for f in fields))
    bits, top, bias = _ORBIT_FIELDS[q]
    canon = np.empty_like(zkeys)
    words = zkeys.shape[1]
    step = max(1, _ORBIT_CELLS // bkeys.shape[0])
    for start in range(0, zkeys.shape[0], step):
        block, out = zkeys[start:start + step], canon[start:start + step]
        tied = None
        for w in range(words):
            s = np.add.outer(block[:, w], bkeys[:, w])
            over = s + bias
            over &= top
            over >>= bits - 1
            over *= q
            s -= over
            if tied is not None:
                s[~tied] = np.iinfo(np.int64).max
            out[:, w] = s.min(axis=1)
            if w + 1 < words:
                tied = s == out[:, w, None]
    return canon


def brute_force_ext(m: FinModule, n: FinModule,
                    budget: int = DEFAULT_BUDGET) -> int:
    """Ext^1 dimension by exhaustive enumeration over F_q.

    Enumerates every arrow-tuple, keeps the ones annihilating the
    relations, enumerates every coboundary, and counts orbits.  Returns
    log_q of the orbit count; every intermediate count is verified to
    be the expected power of q.
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
    weights = q ** np.arange(width, dtype=np.int64)
    valid = (np.flatnonzero(grid)[:, None] // weights) % q

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

    zkeys = _pack_keys(valid, q)
    bkeys = _distinct_rows(_pack_keys(deltas, q))
    if zkeys.shape[0] * bkeys.shape[0] > 8 * budget:
        raise BudgetExceededError("orbit pass exceeds budget")
    canon = _orbit_minima(zkeys, bkeys, q)
    classes = _distinct_rows(canon).shape[0]

    if classes * bkeys.shape[0] != zkeys.shape[0]:
        raise AssertionError("orbit counting is inconsistent")
    out = _exact_log(classes, q)
    if out is None or _exact_log(zkeys.shape[0], q) is None \
            or _exact_log(bkeys.shape[0], q) is None:
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
