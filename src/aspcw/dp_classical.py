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
    """One table the fold built: its post-order index and op, and the
    table itself, packed with field width w and, for sparse labels, the
    label of each bit (see `tables.fold_tables`).  The fold never changes a
    table after its event, so the node keeps it as it is; `triples` unpacks
    it on each access."""
    index: int
    op: str
    table: set[int]
    w: int
    names: tuple[int, ...] | None = None

    @property
    def triples(self) -> frozenset[KTriple]:
        return _public(self.table, self.w, self.names)


def _public(table: set[int], w: int,
            names: tuple[int, ...] | None = None) -> frozenset[KTriple]:
    return frozenset([unpack(key, w, names) for key in table])


def _join(left: set[int], right: set[int], run: list, w: int, tf: int,
          u: int, floor: int) -> set[int]:
    # A triple has no Gamma to build after its Q, so each step is one pass,
    # run only when it has work: OR each operand pair, apply the run's
    # clears, then drop triples with a dead U bit and clear the dead T and
    # F bits.  Under a closed subtree (floor > 0) a triple below the floor
    # has an empty U for good and is accepted: keep it alone.
    table = {a | b for a in left for b in right}
    if run:
        gates, clear = run_clear(run, w)
        table = {key & ~clear[key & gates] for key in table}
    if u:
        low = min(table, default=floor)
        if low < floor:
            return {low & ~tf}
        table = {key & ~tf for key in table if not key & u}
    return table


_TABLES = TableOps(
    introduce=lambda kind, t, f, u: {t, f} if kind == "atom" else {u},
    join=_join,
    unit={0},
    relabel=lambda table, move: {move(key) for key in table},
    snapshot=TraceNode)


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
