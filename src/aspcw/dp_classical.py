"""Classical-model existence by dynamic programming over a k-expression.

Each subexpression gets a set of triples (T, F, U): for some interpretation
of the atoms introduced so far, T and F hold the labels of true and false
atoms and U the labels of rules not yet satisfied.  A model exists iff some
root triple has an empty U component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ._packed import OnNode, TableOps, fold_tables, run_clear, unpack
from .expression import Expr
from .tables import KTriple


@dataclass(frozen=True)
class TraceNode:
    index: int
    op: str
    triples: tuple[KTriple, ...]


def _edge(table: set[int], run: list, w: int) -> set[int]:
    gates, clear = run_clear(run, w)
    return {key & ~clear[key & gates] for key in table}


_TABLES = TableOps(
    introduce=lambda bit, kind, w:
        {bit, bit << w} if kind == "atom" else {bit << 2 * w},
    union=lambda left, right: {a | b for a in left for b in right},
    relabel=lambda table, move: {move(key) for key in table},
    edge=_edge,
    candidates=lambda table: table,
    snapshot=lambda index, op, table, w: TraceNode(
        index, op, tuple(sorted(unpack(key, w) for key in table))))


def accepts(table: Iterable, u_of: Callable) -> bool:
    """The root check: some triple has U = empty.  `u_of` reads an entry's U
    component, so one check serves packed and KTriple tables."""
    return any(not u_of(t) for t in table)


def dp_classical(expr: Expr, trace: list[TraceNode] | None = None) -> set[KTriple]:
    table, w = fold_tables(expr, _TABLES, trace=trace)
    return {unpack(key, w) for key in table}


def has_model_dp(expr: Expr, on_node: OnNode | None = None) -> bool:
    """True iff some root triple has U = empty."""
    table, w = fold_tables(expr, _TABLES, on_node=on_node)
    return accepts(table, lambda key: key >> 2 * w)
