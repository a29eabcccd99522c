"""Classical-model existence by dynamic programming over a k-expression.

Each subexpression gets a set of triples (T, F, U): for some interpretation
of the atoms introduced so far, T and F hold the labels of true and false
atoms and U the labels of rules not yet satisfied.  A model exists iff some
root triple has an empty U component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expression import Expr
from .tables import (KTriple, OnNode, TableOps, decide, fold_tables,
                     run_clear, unpack)


@dataclass(frozen=True)
class TraceNode:
    index: int
    op: str
    triples: frozenset[KTriple]


def _public(table: set[int], w: int) -> frozenset[KTriple]:
    return frozenset([unpack(key, w) for key in table])


def _edge(table: set[int], run: list, w: int) -> set[int]:
    gates, clear = run_clear(run, w)
    return {key & ~clear[key & gates] for key in table}


def _forget(table: set[int], tf: int, u: int, floor: int) -> set[int]:
    # Under a closed subtree (floor > 0) a triple below the floor has an
    # empty U for good and is accepted: keep it alone.  Otherwise drop
    # triples with a dead U bit.  Clear the dead T and F bits.
    low = min(table, default=floor)
    if low < floor:
        return {low & ~tf}
    return {key & ~tf for key in table if not key & u}


_TABLES = TableOps(
    introduce=lambda kind, t, f, u: {t, f} if kind == "atom" else {u},
    union=lambda left, right: {a | b for a in left for b in right},
    relabel=lambda table, move: {move(key) for key in table},
    edge=_edge,
    forget=_forget,
    # At the root every field is cleared.
    accepted=0,
    snapshot=lambda index, op, table, w:
        TraceNode(index, op, _public(table, w)))


def dp_classical(expr: Expr,
                 trace: list[TraceNode] | None = None) -> frozenset[KTriple]:
    """The full root table: every label is kept."""
    return _public(*fold_tables(expr, _TABLES, trace=trace))


def has_model_dp(expr: Expr, on_node: OnNode | None = None,
                 trace: list[TraceNode] | None = None) -> bool:
    """True iff some root triple has U = empty.  The fold forgets dead
    labels and keeps one accepted triple once it has one, so `on_node` and
    `trace` see the smaller tables it builds."""
    return decide(expr, _TABLES, on_node, trace)
