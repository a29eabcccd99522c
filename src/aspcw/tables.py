"""Table entries, the one table engine and the one trace node of the two
solvers.

A KTriple (T, F, U) holds three label sets as bitmasks (label l -> bit l-1):
labels of true atoms, false atoms, and not-yet-satisfied rules.  A KPair
(Q, Gamma) extends a candidate triple Q with Gamma, the triples of the
candidate's proper subsets evaluated against the reduct.

Every table is a set of packed pairs (Q, Gamma).  Inside the fold a triple
over labels 1..w is one integer with three w-bit fields, T | F << w | U << 2w:
unions become bitwise or, and relabels and edge runs become shifted mask
operations; a Gamma is a frozenset of such integers.  The classical
solver's atoms bring no Gamma, so each of its pairs has an empty one and
the same fold decides whether a model exists.  Sparse labels are numbered
1..w first, so w is the label count, and the trace keeps their names.  Only
this module reads those fields.
A solver gives its introduce as a TableOps; `fold_tables` hands it
ready-made bits, and runs the one `_join` for unions, edge runs and
forgets.  Each table the fold builds, the root included, is reported as
one `TraceNode`, which keeps it packed: `trace` gets one per table, the
fold returns the root's, and `pairs` and `triples` read a node's table
back as KPairs, or as the KTriples of their Qs.  `trace_json` writes the
trace file straight from the packed entries.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from .errors import ExpressionError
from .expression import (DisjointUnion, EdgeInsert, Expr, Introduce, Relabel,
                         op_label, postorder)
from .graphs import SIGNS, bits


PackedPair = tuple[int, frozenset[int]]

NO_GAMMA: frozenset[int] = frozenset()
# The table that joins as the identity: one pair with every field cleared.
UNIT: frozenset[PackedPair] = frozenset({(0, NO_GAMMA)})


def mask_labels(mask: int) -> frozenset[int]:
    return frozenset(b + 1 for b in bits(mask))


class KTriple(NamedTuple):
    t: int
    f: int
    u: int

    def __repr__(self) -> str:
        def fmt(mask):
            return "{" + ",".join(map(str, sorted(mask_labels(mask)))) + "}"
        return f"({fmt(self.t)},{fmt(self.f)},{fmt(self.u)})"


class KPair(NamedTuple):
    q: KTriple
    gamma: frozenset[KTriple]


def unpack(key: int, w: int, names: tuple[int, ...] | None = None) -> KTriple:
    """The packed triple `key` as a KTriple.  With `names`, bit b of a field
    stands for label names[b], not b + 1 (see `fold_tables`)."""
    mask = (1 << w) - 1
    if names is None:
        return KTriple(key & mask, key >> w & mask, key >> 2 * w & mask)
    return KTriple(*[sum([1 << (names[b] - 1) for b in bits(m)])
                     for m in (key & mask, key >> w & mask, key >> 2 * w)])


class TraceNode(NamedTuple):
    """One table the fold built: its post-order index and expression node,
    and the table itself, packed with field width w and, for sparse labels,
    the label of each bit (see `fold_tables`).  The fold never changes a
    table after its event, so the node keeps it as it is; `op`, `pairs`
    and `triples` are computed on each access."""
    index: int
    node: Expr
    table: set[PackedPair]
    w: int
    names: tuple[int, ...] | None = None

    @property
    def op(self) -> str:
        return op_label(self.node)

    @property
    def pairs(self) -> frozenset[KPair]:
        w, names = self.w, self.names
        return frozenset([KPair(unpack(q, w, names),
                                frozenset([unpack(s, w, names) for s in g]))
                          for q, g in self.table])

    @property
    def triples(self) -> frozenset[KTriple]:
        return frozenset([unpack(q, self.w, self.names)
                          for q, _ in self.table])


def relabel_fn(old: int, new: int, w: int):
    bit = 1 << (old - 1)
    mask3 = bit | bit << w | bit << 2 * w
    keep = ~mask3
    return lambda key: key & keep | (key & mask3) >> (old - 1) << (new - 1)


def _relabel(table: set[PackedPair],
             move: Callable[[int], int]) -> set[PackedPair]:
    return {(move(q), frozenset(map(move, g))) for q, g in table}


class _RunClear(dict):
    """Gate projection -> the U bits the edges clear there, filled in on
    first use; `gates` holds every edge's gate bit."""

    def __init__(self, edges: list[tuple[int, int]]):
        self.edges = edges
        self.gates = 0
        for gate, _ in edges:
            self.gates |= gate

    def __missing__(self, hit: int) -> int:
        bits = 0
        for gate, bit in self.edges:
            if hit & gate:
                bits |= bit
        self[hit] = bits
        return bits


def run_clear(run: list[tuple[str, int, int]], w: int
              ) -> tuple[int, _RunClear, int, _RunClear]:
    """The edges of a run of edge inserts [(sign, i, j), ...] as (gates,
    own, n_gates, outer), in one pass over the run: a triple `key` loses
    the U bits `own[key & gates]` through the h and p edges, and a Gamma
    member of the candidate Q loses `outer[Q & n_gates]` through the n
    edges.  Q itself loses both.

    An edge insert is undirected, so each edge i x j is read both ways
    round: label i's T bit (h, n) or F bit (p) clears label j's U bit, and
    label j's bit clears label i's.  In the signed incidence graph every
    edge joins an atom and a rule, so where an edge insert adds edges one
    label holds only atoms (T and F bits) and the other only rules (U
    bits), and one of the two readings clears nothing; a label that holds
    both meets only empty labels, which have no bits.  No edge insert
    changes a T or F bit, so a run commutes and what it clears in an entry
    depends only on the entry's gate bits.
    """
    own: list[tuple[int, int]] = []
    outer: list[tuple[int, int]] = []
    for sign, i, j in run:
        edges = outer if sign == "n" else own
        shift = w if sign == "p" else 0
        edges.append((1 << (i - 1) << shift, 1 << (j - 1 + 2 * w)))
        edges.append((1 << (j - 1) << shift, 1 << (i - 1 + 2 * w)))
    own_clear, outer_clear = _RunClear(own), _RunClear(outer)
    return own_clear.gates, own_clear, outer_clear.gates, outer_clear


def _join(left: set[PackedPair], right: set[PackedPair], run: list, w: int,
          tf: int, u: int, floor: int) -> set[PackedPair]:
    # Q first: OR the operands' Qs, apply the run's clears and drop a pair
    # with a dead U bit before building its Gamma.  Gamma gets each proper
    # subset of the union: on each side a member of its Gamma or its whole
    # Q, but not both whole Qs, which come last.  Two pairs with no Gamma
    # (every classical pair) give a pair with no Gamma and build no subsets.
    #
    # Q is gated by its own T and F bits.  A member of Gamma is gated by its
    # own bits for h and p edges, but by the outer Q's T bits for n edges:
    # once I hits the negative body, the rule vanishes from the reduct for
    # all subsets J, whether or not J itself touches label i.  So Q loses
    # what its bits clear through h and p edges, and n: what its T bits
    # clear through n edges.
    #
    # Drop Gamma members with a dead U bit, clear the dead T and F bits, and
    # if any label is dead, drop the dominated pairs.
    #
    # Under a closed subtree (floor > 0) an empty U stays empty up to the
    # root, and "U empty" is `key < floor`.  A Gamma member below the floor
    # refutes its pair: drop it.  A pair below the floor with no Gamma is
    # accepted for good: keep the lowest such Q (before the dead T and F
    # bits are cleared) alone.  That keeps the decision, for it reaches the
    # root as (0, no Gamma): the closed subtree's siblings hold only atoms
    # and always keep a pair with no Gamma (each atom's false pair), a
    # union of two pairs with no Gamma has none, edge runs only clear U
    # bits, and neither forgetting nor domination drops a pair with no
    # Gamma.
    gates = n_gates = 0
    if run:
        gates, own, n_gates, outer = run_clear(run, w)
    keep, none = ~tf, NO_GAMMA
    accepted = floor  # the lowest accepted Q, once there is one
    table = set()
    right = [(q2, g2, (*g2, q2)) for q2, g2 in right]
    for q1, g1 in left:
        subsets1 = (*g1, q1) if g1 else (q1,)
        for q2, g2, subsets2 in right:
            q = q1 | q2
            if (n := n_gates and outer[q & n_gates]) or gates:
                q &= ~(own[q & gates] | n)
            if q & u:
                continue
            if g1 or g2:
                gamma = [s1 | s2 for s1 in subsets1 for s2 in subsets2]
                gamma.pop()
                if n or gates:
                    gamma = [c & keep for s in gamma
                             if not (c := s & ~(own[s & gates] | n)) & u]
                elif u:
                    gamma = [s & keep for s in gamma if not s & u]
                if gamma:
                    if not (floor and min(gamma) < floor):
                        table.add((q & keep, frozenset(gamma)))
                    continue
            if q < accepted:
                accepted = q
            table.add((q & keep, none))
    if accepted < floor:
        return {(accepted & keep, none)}
    return _undominated(table) if u else table


def _undominated(table: set[PackedPair]) -> set[PackedPair]:
    # Keep, for each Q, only the minimal Gammas: a smaller Gamma is never a
    # superset, so taking them by size compares each with the kept ones only.
    if len({q for q, _ in table}) == len(table):
        return table
    groups: dict[int, list[frozenset[int]]] = {}
    for q, g in table:
        groups.setdefault(q, []).append(g)
    kept = set()
    for q, gammas in groups.items():
        minimal: list[frozenset[int]] = []
        for g in sorted(gammas, key=len):
            if not any(m <= g for m in minimal):
                minimal.append(g)
                kept.add((q, g))
    return kept


class TableOps(NamedTuple):
    """One solver's operators on tables of packed pairs (field width w).
    A solver gives only `introduce`; `join` is the one operator for a
    union, an edge run and a forget (see `_join`)."""
    introduce: Callable[[str, int, int, int], set]  # (kind, T, F, U bit)
    # (left, right, run, w, dead T|F, dead U, floor)
    join: Callable[[set, set, list, int, int, int, int], set] = _join


def fold_tables(expr: Expr, ops: TableOps, trace=None,
                forget: bool = False) -> TraceNode:
    """Runs a solver bottom-up over `expr`; returns the root's `TraceNode`,
    whose index is the node count.

    `ops` gives the solver's `introduce` and `join` (see TableOps).  A
    union is `ops.join` of its operands with an empty run.  A run of
    consecutive edge inserts is one `ops.join` against `UNIT` at its top
    edge insert; the fold hands each edge over as the expression names it,
    and `run_clear` reads it both ways round.

    `trace`, a list or any object with `append`, is the fold's one
    observer: it gets one `TraceNode` for each table the solver builds, in
    post-order, so its last node equals the one the fold returns.  A run's
    table carries the index and node of its top edge insert.  The fold
    reads nothing back from `trace`, so it takes the same path with and
    without one.

    With `forget`, each table drops its dead labels: the join that builds
    it gets their masks, a relabel table that has dead labels is joined
    against `UNIT` with them, and so is an introduce table whose own
    label is dead (it has no other label's bits).  A label is dead after
    the last edge insert or relabel that names it (in post-order, so every
    operator above the table comes later), and dead from the start if none
    names it.  No later operator reads a dead label's T or F bit or clears
    its U bit, so a dead U bit keeps an entry from ever passing the root
    check.  Also with `forget`, a union whose next node in post-order is an
    edge insert (its parent) builds no table: its operands go to the run's
    join, which builds only the entries that survive the run and the
    forget.  Such a union sends no trace node.

    A subtree that holds every rule introduce is closed: its siblings carry
    no U bits, edge inserts only clear U bits and relabels only move them,
    so an entry with an empty U keeps it up to the root.  There the fold
    passes `ops.join` the floor 1 << 2w, the lowest U bit (elsewhere 0),
    and "U empty" is `entry < floor`.

    A join with an empty operand, or an empty table to forget in, builds
    an empty table without calling `ops.join`: no entry pairs with an
    empty operand.  Every operator keeps a table empty, so once a table is
    empty so is each table above it, up to the root; the fold still walks
    the rest of the expression and sends every trace node.

    One pre-pass over the `postorder` list finds the labels, where each
    dies and the rule count; the fold then reads the same list, dispatching
    on each node's type.  If the largest label exceeds the label count k,
    the fold numbers the labels 1..k in increasing order, so w is k, and
    `names` lists the expression's label at each bit (else it is None and
    bit b is label b + 1).  Each trace node gets `names`, so traces
    report the expression's labels.
    """
    nodes = postorder(expr)
    labels: set[int] = set()  # those of introduces, then all
    last: dict[int, int] = {}  # label -> its last edge insert or relabel
    rules = 0
    for index, node in enumerate(nodes, 1):
        kind = type(node)
        if kind is EdgeInsert:
            last[node.i] = last[node.j] = index
        elif kind is Introduce:
            labels.add(node.label)
            rules += node.kind == "rule"
        elif kind is Relabel:
            last[node.old] = last[node.new] = index
    labels.update(last)
    w = max(labels)
    # Sparse labels are numbered 1..k in order: `rank` maps each label to
    # its number (dense labels to themselves) and `names` lists the labels
    # by bit, for the trace.
    rank, names = range(w + 1), None
    if w > len(labels):
        names = tuple(sorted(labels))
        rank = {label: k for k, label in enumerate(names, 1)}
        w = len(names)
    floor = 1 << 2 * w

    dies: dict[int, int] = {}  # index -> the labels dead from there on
    if forget:
        for label in labels:
            index = last.get(label, 0)
            dies[index] = dies.get(index, 0) | 1 << (rank[label] - 1)
    dead = dies.get(0, 0)

    # The operands' tables, each with the dead labels forgotten in it, its
    # forgotten labels and the count of rule introduces under it.
    stack: list[tuple[set, int, int]] = []
    run: list[tuple[str, int, int]] = []
    deferred = None  # a union's operands, for the run above
    # In post-order an edge insert or a union is followed by its parent, or
    # by an introduce if it is a left operand: so a run goes on above while
    # the next node is an edge insert, and a union is an edge insert's
    # operand if the next node is one.  Labels die only at edge inserts and
    # relabels.
    count = len(nodes)
    for index, node in enumerate(nodes, 1):
        kind = type(node)
        right = None  # the second operand of a join, if the node is one
        if kind is EdgeInsert:
            if node.sign not in SIGNS:
                raise ExpressionError(
                    f"solver requires signed edges, got {node.sign!r}")
            dead |= dies.get(index, 0)
            run.append((node.sign, rank[node.i], rank[node.j]))
            if index < count and type(nodes[index]) is EdgeInsert:
                continue
            if deferred is not None:
                (left, right, gone, held), deferred = deferred, None
            else:
                (left, gone, held), right = stack.pop(), UNIT
        elif kind is Introduce:
            bit = 1 << (rank[node.label] - 1)
            left = ops.introduce(node.kind, bit, bit << w, bit << 2 * w)
            gone, held = dead & ~bit, node.kind == "rule"
        elif kind is DisjointUnion:
            (right, right_gone, right_held), (left, left_gone, left_held) = \
                stack.pop(), stack.pop()
            gone, held = left_gone & right_gone, left_held + right_held
            if (forget and index < count
                    and type(nodes[index]) is EdgeInsert):
                deferred = left, right, gone, held
                continue
        else:
            dead |= dies.get(index, 0)
            left, gone, held = stack.pop()
            left = _relabel(left,
                            relabel_fn(rank[node.old], rank[node.new], w))
        if not left or right is not None and not right:
            # No entry pairs with an empty operand.
            table = set()
        elif dead & ~gone:
            table = ops.join(left, UNIT if right is None else right, run,
                             w, dead | dead << w, dead << 2 * w,
                             floor if held == rules else 0)
            gone = dead
        elif right is not None:
            table = ops.join(left, right, run, w, 0, 0, 0)
        else:
            table = left
        if run:
            run = []
        if trace is not None:
            trace.append(TraceNode(index, node, table, w, names))
        stack.append((table, gone, held))
    return TraceNode(count, expr, stack[0][0], w, names)


def decide(expr: Expr, ops: TableOps, trace=None) -> bool:
    """The decision: the fold forgets dead labels, so `trace` sees the
    smaller tables it builds.  Every label is dead at the root, so the root
    table holds only pairs with every field cleared: an empty Q and an
    empty Gamma (a Gamma member would have an empty U and refute its pair).
    That pair is the one member of `UNIT`, so the decision is whether the
    root table includes it."""
    return UNIT <= fold_tables(expr, ops, trace, forget=True).table


def trace_json(trace: list, field: str) -> str:
    """The text of a trace file: {"nodes": [...]} with each node's index, op
    and table under `field` ("triples" or "pairs"), as `json.dumps` with
    sorted keys writes it.  A table lists its entries sorted: the Qs'
    distinct triples in KTriple order, pairs by Q and then by their sorted Gamma, each Gamma in
    KTriple order; a triple is its three label lists, a pair {"gamma",
    "q"}, in the expression's labels.  Every node of a trace has the same
    field width and label names, so each distinct mask's label list and
    each distinct packed triple is rendered once per trace."""
    w, names = trace[0].w, trace[0].names
    if names is None:
        names = range(1, w + 1)
    mask = (1 << w) - 1
    labels: dict[int, str] = {}  # mask -> its label list, lowest first
    # packed triple -> (the KTriple's fields, to sort by; its text)
    triples: dict[int, tuple[tuple[int, int, int], str]] = {}

    def render(key: int) -> tuple[tuple[int, int, int], str]:
        if key not in triples:
            fields = key & mask, key >> w & mask, key >> 2 * w
            for m in fields:
                if m not in labels:
                    labels[m] = \
                        "[" + ", ".join([str(names[b]) for b in bits(m)]) + "]"
            triples[key] = \
                fields, "[" + ", ".join([labels[m] for m in fields]) + "]"
        return triples[key]

    nodes = []
    for node in trace:
        if field == "pairs":
            # A rendered triple sorts by its fields, which fix its text.
            rows = sorted((render(q), sorted(map(render, g)))
                          for q, g in node.table)
            entries = ['{"gamma": [' + ", ".join([s for _, s in gamma])
                       + '], "q": ' + q + "}" for (_, q), gamma in rows]
        else:
            entries = [text for _, text in
                       sorted(map(render, {q for q, _ in node.table}))]
        nodes.append(f'{{"index": {node.index}, "op": {json.dumps(node.op)}, '
                     f'"{field}": [{", ".join(entries)}]}}')
    return '{"nodes": [' + ", ".join(nodes) + "]}"
