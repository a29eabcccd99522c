"""Classical-model existence by dynamic programming over a k-expression.

Each subexpression gets a set of triples (T, F, U): for some interpretation
of the atoms introduced so far, T and F hold the labels of true and false
atoms and U the labels of rules not yet satisfied.  A model exists iff some
root triple has an empty U component.

The table is the answer-set table with no Gamma: an atom introduces its
true and its false triple, each paired with an empty Gamma, so every pair
the shared `tables._join` builds has an empty Gamma, and the fold is the
answer-set fold.  Under a closed subtree a triple with an empty U is
accepted for good, and the join keeps it alone.
"""

from __future__ import annotations

from .expression import Expr
from .tables import NO_GAMMA, KTriple, TableOps, decide, fold_tables

_TABLES = TableOps(
    introduce=lambda kind, t, f, u:
        {(t, NO_GAMMA), (f, NO_GAMMA)} if kind == "atom" else {(u, NO_GAMMA)})


def dp_classical(expr: Expr, trace=None) -> frozenset[KTriple]:
    """The full root table: every label is kept.  `trace`, a list or any
    object with `append`, gets a `TraceNode` for each table built."""
    return fold_tables(expr, _TABLES, trace).triples


def has_model_dp(expr: Expr, trace=None) -> bool:
    """True iff some root triple has U = empty.  The fold forgets dead
    labels and keeps one accepted triple once it has one, so `trace` sees
    the smaller tables it builds."""
    return decide(expr, _TABLES, trace)
