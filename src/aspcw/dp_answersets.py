"""Answer-set existence by dynamic programming over a k-expression.

Each subexpression gets a set of pairs (Q, Gamma): Q is a triple for a
candidate interpretation I, and every member of Gamma is a triple for a
proper subset J of I evaluated against the reduct w.r.t. I.  An answer set
exists iff some root pair has Q_U empty while every member of Gamma keeps a
nonempty U component (no proper subset survives as a model of the reduct).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ._packed import OnNode, TableOps, fold_tables, unpack
from .expression import Expr
from .tables import KPair, KTriple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

PackedPair = tuple[int, frozenset[int]]


@dataclass(frozen=True, order=True)
class TracePair:
    q: KTriple
    gamma: tuple[KTriple, ...]


@dataclass(frozen=True)
class TraceNode:
    index: int
    op: str
    pairs: tuple[TracePair, ...]


def _apply_edges_bulk(table: set[PackedPair], ops: list[tuple[str, int, int]],
                      w: int) -> set[PackedPair]:
    """Applies a chain of edge insertions to every pair at once.

    Edge insertion acts independently on each pair and only ever clears U
    bits, so a run of consecutive insertions can be applied elementwise to
    flat arrays and the tables deduplicated once at the end; the result is
    the same set a node-by-node fold would produce.
    """
    pairs = list(table)
    mask = (1 << w) - 1
    counts = [len(g) for _, g in pairs]
    flat = [s for _, g in pairs for s in g]
    qt = _np.fromiter(((q & mask) for q, _ in pairs), _np.int64, len(pairs))
    qf = _np.fromiter((((q >> w) & mask) for q, _ in pairs),
                      _np.int64, len(pairs))
    qu = _np.fromiter(((q >> 2 * w) for q, _ in pairs), _np.int64, len(pairs))
    gt = _np.fromiter(((s & mask) for s in flat), _np.int64, len(flat))
    gf = _np.fromiter((((s >> w) & mask) for s in flat), _np.int64, len(flat))
    gu = _np.fromiter(((s >> 2 * w) for s in flat), _np.int64, len(flat))
    counts_arr = _np.asarray(counts, dtype=_np.int64)
    for sign, i, j in ops:
        ibit = _np.int64(1 << (i - 1))
        keep = _np.int64(~(1 << (j - 1)))
        if sign == "h":
            q_hit = (qt & ibit) != 0
            g_hit = (gt & ibit) != 0
        elif sign == "p":
            q_hit = (qf & ibit) != 0
            g_hit = (gf & ibit) != 0
        else:
            q_hit = (qt & ibit) != 0
            g_hit = _np.repeat(q_hit, counts_arr)
        qu = _np.where(q_hit, qu & keep, qu)
        gu = _np.where(g_hit, gu & keep, gu)
    qul = qu.tolist()
    gul = gu.tolist()
    out: set[PackedPair] = set()
    pos = 0
    shift = 2 * w
    for idx, (q, _) in enumerate(pairs):
        c = counts[idx]
        gamma = frozenset(
            (flat[p] & ~(mask << shift)) | (gul[p] << shift)
            for p in range(pos, pos + c))
        out.add(((q & ~(mask << shift)) | (qul[idx] << shift), gamma))
        pos += c
    return out


def _union(left: set[PackedPair], right: set[PackedPair]) -> set[PackedPair]:
    table = set()
    for q1, g1 in left:
        for q2, g2 in right:
            gamma = {s1 | s2 for s1 in g1 for s2 in g2}
            gamma.update(q1 | s for s in g2)
            gamma.update(s | q2 for s in g1)
            table.add((q1 | q2, frozenset(gamma)))
    return table


def _edge(table: set[PackedPair], sign: str, gate: int,
          clear: int) -> set[PackedPair]:
    if sign == "n":
        # The outer Q's T component gates every member of Gamma: once I hits
        # the negative body, the rule vanishes from the reduct for all
        # subsets J, whether or not J itself touches label i.
        return {(q & clear, frozenset(s & clear for s in g)) if q & gate
                else (q, g) for q, g in table}
    return {(q & clear if q & gate else q,
             frozenset(s & clear if s & gate else s for s in g))
            for q, g in table}


def _snapshot(index: int, op: str, table: set[PackedPair], w: int) -> TraceNode:
    return TraceNode(index, op, tuple(sorted(
        TracePair(unpack(q, w), tuple(sorted(unpack(s, w) for s in g)))
        for q, g in table)))


_TABLES = TableOps(
    introduce=lambda bit, kind, w:
        {(bit, frozenset({bit << w})), (bit << w, frozenset())}
        if kind == "atom" else {(bit << 2 * w, frozenset())},
    union=_union,
    relabel=lambda table, move:
        {(move(q), frozenset(move(s) for s in g)) for q, g in table},
    edge=_edge,
    candidates=lambda table: {q for q, _ in table},
    snapshot=_snapshot,
    edge_chain=_apply_edges_bulk if _np is not None else None)


def accepts(table: Iterable, u_of: Callable) -> bool:
    """The root check: some pair has Q_U empty and no Gamma member with an
    empty U.  `u_of` reads an entry's U component, so one check serves packed
    and KPair tables."""
    return any(not u_of(q) and all(u_of(s) for s in g) for q, g in table)


def dp_asp(expr: Expr, trace: list[TraceNode] | None = None) -> set[KPair]:
    table, w = fold_tables(expr, _TABLES, trace=trace)
    return {KPair(unpack(q, w), frozenset(unpack(s, w) for s in g))
            for q, g in table}


def has_answer_set_dp(expr: Expr, on_node: OnNode | None = None) -> bool:
    """True iff some root pair has Q_U empty and no Gamma member with empty U."""
    table, w = fold_tables(expr, _TABLES, on_node=on_node)
    return accepts(table, lambda key: key >> 2 * w)
