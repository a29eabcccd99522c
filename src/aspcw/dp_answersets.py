"""Answer-set existence by dynamic programming over a k-expression.

Each subexpression gets a set of pairs (Q, Gamma): Q is a triple for a
candidate interpretation I, and every member of Gamma is a triple for a
proper subset J of I evaluated against the reduct w.r.t. I.  An answer set
exists iff some root pair has Q_U empty while every member of Gamma keeps a
nonempty U component (no proper subset survives as a model of the reduct).
An atom's true pair has its false triple in Gamma; the classical solver is
the same fold without it.

The decision refutes candidates early: once a subtree holds every rule
introduce no U bit comes back, so a Gamma member with an empty U keeps it,
and the shared `tables._join` drops its pair there.  A pair there with an
empty U and no Gamma is accepted for good, and the join keeps it alone.

It also drops dominated pairs: (Q, G2) is dominated by (Q, G1) when G1 is
a subset of G2.  Every operator maps the members of Gamma through a map
that depends only on the member and on Q: a union ORs the same partner pair
into both Gammas, an edge run gates by the member and by Q's T bits, and
relabel and forget act per member.  So the inclusion holds up to the root,
any member that refutes G1 (an empty U, or one below the floor) is in G2
too, and (Q, G2) is accepted only if (Q, G1) is.  A join that forgets
keeps, for each Q, only the minimal Gammas.

Every union, edge run and forget is one join, Q first: a pair whose Q the
run and the forget drop never gets its Gamma built.
"""

from __future__ import annotations

from .expression import Expr
from .tables import NO_GAMMA, KPair, TableOps, decide, fold_tables

_TABLES = TableOps(
    introduce=lambda kind, t, f, u:
        {(t, frozenset({f})), (f, NO_GAMMA)}
        if kind == "atom" else {(u, NO_GAMMA)})


def dp_asp(expr: Expr, trace=None) -> frozenset[KPair]:
    """The full root table: every label is kept.  `trace`, a list or any
    object with `append`, gets a `TraceNode` for each table built."""
    return fold_tables(expr, _TABLES, trace).pairs


def has_answer_set_dp(expr: Expr, trace=None) -> bool:
    """True iff some root pair has Q_U empty and no Gamma member with empty
    U.  The fold forgets dead labels and drops refuted and dominated pairs,
    so `trace` sees the smaller tables it builds."""
    return decide(expr, _TABLES, trace)
