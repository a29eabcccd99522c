"""Answer-set existence by dynamic programming over a k-expression.

Each subexpression gets a set of pairs (Q, Gamma): Q is a triple for a
candidate interpretation I, and every member of Gamma is a triple for a
proper subset J of I evaluated against the reduct w.r.t. I.  An answer set
exists iff some root pair has Q_U empty while every member of Gamma keeps a
nonempty U component (no proper subset survives as a model of the reduct).

The decision refutes candidates early: once a subtree holds every rule
introduce no U bit comes back, so a Gamma member with an empty U keeps it,
and `_join` drops its pair there.

It also drops dominated pairs: (Q, G2) is dominated by (Q, G1) when G1 is
a subset of G2.  Every operator maps the members of Gamma through a map
that depends only on the member and on Q: a union ORs the same partner pair
into both Gammas, an edge run gates by the member and by Q's T bits, and
relabel and forget act per member.  So the inclusion holds up to the root,
any member that refutes G1 (an empty U, or one below the floor) is in G2
too, and (Q, G2) is accepted only if (Q, G1) is.  A join that forgets
keeps, for each Q, only the minimal Gammas.

Every union, edge run and forget is one `_join`, Q first: a pair whose Q
the run and the forget drop never gets its Gamma built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expression import Expr
from .tables import (KPair, OnNode, TableOps, decide, fold_tables, run_clear,
                     unpack)

PackedPair = tuple[int, frozenset[int]]


@dataclass(frozen=True)
class TraceNode:
    """One table the fold built: its post-order index and op, and the
    table itself, packed with field width w and, for sparse labels, the
    label of each bit (see `tables.fold_tables`).  The fold never changes a
    table after its event, so the node keeps it as it is; `pairs` unpacks
    it on each access."""
    index: int
    op: str
    table: set[PackedPair]
    w: int
    names: tuple[int, ...] | None = None

    @property
    def pairs(self) -> frozenset[KPair]:
        return _public(self.table, self.w, self.names)


def _join(left: set[PackedPair], right: set[PackedPair], run: list, w: int,
          tf: int, u: int, floor: int) -> set[PackedPair]:
    # Q first: OR the operands' Qs, apply the run's clears and drop a pair
    # with a dead U bit before building its Gamma.  Gamma gets each proper
    # subset of the union: on each side a member of its Gamma or its whole
    # Q, but not both whole Qs, which come last.
    #
    # Q is gated by its own T and F bits.  A member of Gamma is gated by its
    # own bits for h and p edges, but by the outer Q's T bits for n edges:
    # once I hits the negative body, the rule vanishes from the reduct for
    # all subsets J, whether or not J itself touches label i.  So Q loses
    # what its bits clear through h and p edges, and n: what its T bits
    # clear through n edges.
    #
    # Under a closed subtree (floor > 0) a Gamma member below the floor has
    # an empty U for good, so its pair is refuted: drop it.  Drop Gamma
    # members with a dead U bit, clear the dead T and F bits, and if any
    # label is dead, drop the dominated pairs.
    gates = n_gates = 0
    if run:
        gates, member = run_clear(run, w, "hp")
        n_gates, outer = run_clear(run, w, "n")
    keep = ~tf
    table = set()
    right = [(q2, (*g2, q2)) for q2, g2 in right]
    for q1, g1 in left:
        subsets1 = (*g1, q1)
        for q2, subsets2 in right:
            q = q1 | q2
            if (n := n_gates and outer[q & n_gates]) or gates:
                q &= ~(member[q & gates] | n)
            if q & u:
                continue
            gamma = [s1 | s2 for s1 in subsets1 for s2 in subsets2]
            gamma.pop()
            if n or gates:
                gamma = [c & keep for s in gamma
                         if not (c := s & ~(member[s & gates] | n)) & u]
            elif u:
                gamma = [s & keep for s in gamma if not s & u]
            if floor and gamma and min(gamma) < floor:
                continue
            table.add((q & keep, frozenset(gamma)))
    return _undominated(table) if u else table


def _undominated(table: set[PackedPair]) -> set[PackedPair]:
    # Keep, for each Q, only the minimal Gammas: a smaller Gamma is never a
    # superset, so taking them by size compares each with the kept ones only.
    groups: dict[int, list[frozenset[int]]] = {}
    for q, g in table:
        groups.setdefault(q, []).append(g)
    if len(groups) == len(table):
        return table
    kept = set()
    for q, gammas in groups.items():
        minimal: list[frozenset[int]] = []
        for g in sorted(gammas, key=len):
            if not any(m <= g for m in minimal):
                minimal.append(g)
                kept.add((q, g))
    return kept


def _public(table: set[PackedPair], w: int,
            names: tuple[int, ...] | None = None) -> frozenset[KPair]:
    return frozenset(KPair(unpack(q, w, names),
                           frozenset([unpack(s, w, names) for s in g]))
                     for q, g in table)


_TABLES = TableOps(
    introduce=lambda kind, t, f, u:
        {(t, frozenset({f})), (f, frozenset())}
        if kind == "atom" else {(u, frozenset())},
    join=_join,
    unit={(0, frozenset())},
    relabel=lambda table, move:
        {(move(q), frozenset(move(s) for s in g)) for q, g in table},
    snapshot=TraceNode)


def dp_asp(expr: Expr, trace: list[TraceNode] | None = None) -> frozenset[KPair]:
    """The full root table: every label is kept."""
    return _public(*fold_tables(expr, _TABLES, trace=trace))


def has_answer_set_dp(expr: Expr, on_node: OnNode | None = None,
                      trace: list[TraceNode] | None = None) -> bool:
    """True iff some root pair has Q_U empty and no Gamma member with empty
    U.  The fold forgets dead labels and drops refuted and dominated pairs,
    so `on_node` and `trace` see the smaller tables it builds."""
    return decide(expr, _TABLES, on_node, trace)
