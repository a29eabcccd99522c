"""Answer-set existence by dynamic programming over a k-expression.

Each subexpression gets a set of pairs (Q, Gamma): Q is a triple for a
candidate interpretation I, and every member of Gamma is a triple for a
proper subset J of I evaluated against the reduct w.r.t. I.  An answer set
exists iff some root pair has Q_U empty while every member of Gamma keeps a
nonempty U component (no proper subset survives as a model of the reduct).

The decision refutes candidates early: once a subtree holds every rule
introduce no U bit comes back, so a Gamma member with an empty U keeps it,
and `_forget` drops its pair there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expression import Expr
from .tables import (KPair, OnNode, TableOps, decide, fold_tables, run_clear,
                     unpack)

PackedPair = tuple[int, frozenset[int]]


@dataclass(frozen=True)
class TraceNode:
    index: int
    op: str
    pairs: frozenset[KPair]


def _union(left: set[PackedPair], right: set[PackedPair]) -> set[PackedPair]:
    table = set()
    for q1, g1 in left:
        for q2, g2 in right:
            gamma = {s1 | s2 for s1 in g1 for s2 in g2}
            gamma.update(q1 | s for s in g2)
            gamma.update(s | q2 for s in g1)
            table.add((q1 | q2, frozenset(gamma)))
    return table


def _edge(table: set[PackedPair], run: list, w: int) -> set[PackedPair]:
    # Q is gated by its own T and F bits.  A member of Gamma is gated by its
    # own bits for h and p edges, but by the outer Q's T bits for n edges:
    # once I hits the negative body, the rule vanishes from the reduct for
    # all subsets J, whether or not J itself touches label i.  Without h or
    # p edges, a pair whose Q opens no n gate keeps its Gamma.
    (own_gates, own), (gates, member), (n_gates, outer) = (
        run_clear(run, w, signs) for signs in ("hpn", "hp", "n"))
    return {(q & ~own[q & own_gates],
             frozenset([s & ~(member[s & gates] | n) for s in g])
             if (n := outer[q & n_gates]) or gates else g)
            for q, g in table}


def _forget(table: set[PackedPair], tf: int, u: int,
            floor: int) -> set[PackedPair]:
    # Drop pairs whose Q has a dead U bit, and Gamma members with one; clear
    # the dead T and F bits.  Under a closed subtree (floor > 0) a Gamma
    # member below the floor has an empty U for good, so its pair is
    # refuted: drop it too.
    return {(q & ~tf, frozenset([s & ~tf for s in g if not s & u]))
            for q, g in table if not q & u and not (g and min(g) < floor)}


def _public(table: set[PackedPair], w: int) -> frozenset[KPair]:
    return frozenset(KPair(unpack(q, w), frozenset([unpack(s, w) for s in g]))
                     for q, g in table)


_TABLES = TableOps(
    introduce=lambda kind, t, f, u:
        {(t, frozenset({f})), (f, frozenset())}
        if kind == "atom" else {(u, frozenset())},
    union=_union,
    relabel=lambda table, move:
        {(move(q), frozenset(move(s) for s in g)) for q, g in table},
    edge=_edge,
    forget=_forget,
    # At the root every field is cleared: Q is empty, and so is each Gamma
    # member, which then has an empty U.
    accepted=(0, frozenset()),
    snapshot=lambda index, op, table, w:
        TraceNode(index, op, _public(table, w)))


def dp_asp(expr: Expr, trace: list[TraceNode] | None = None) -> frozenset[KPair]:
    """The full root table: every label is kept."""
    return _public(*fold_tables(expr, _TABLES, trace=trace))


def has_answer_set_dp(expr: Expr, on_node: OnNode | None = None,
                      trace: list[TraceNode] | None = None) -> bool:
    """True iff some root pair has Q_U empty and no Gamma member with empty
    U.  The fold forgets dead labels and drops refuted pairs, so `on_node`
    and `trace` see the smaller tables it builds."""
    return decide(expr, _TABLES, on_node, trace)
