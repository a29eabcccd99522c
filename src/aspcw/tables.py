"""Table entries and the one table fold shared by the two solvers.

A KTriple (T, F, U) holds three label sets as bitmasks (label l -> bit l-1):
labels of true atoms, false atoms, and not-yet-satisfied rules.  A KPair
extends a triple with the table of its candidate's proper subsets evaluated
against the reduct.

Inside the fold a triple over labels 1..w is one integer with three w-bit
fields, T | F << w | U << 2w: unions become bitwise or, and relabels and edge
runs become shifted mask operations.  Sparse labels are numbered 1..w first,
so w is the label count, and the trace keeps their names.  Only this module
reads those fields.
A solver gives its operators as a TableOps, with one `join` for unions, edge
runs and forgets; `fold_tables` hands them ready-made bits and masks, and
`unpack` reads an entry back as a KTriple.  A trace keeps each table packed,
and `trace_json` writes the trace file straight from the packed entries.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from .errors import ExpressionError
from .expression import (DisjointUnion, EdgeInsert, Expr, Introduce, Relabel,
                         op_label, postorder)
from .graphs import SIGNS, bits


OnNode = Callable[[int, str, int], None]


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


def relabel_fn(old: int, new: int, w: int):
    bit = 1 << (old - 1)
    mask3 = bit | bit << w | bit << 2 * w
    keep = ~mask3
    return lambda key: key & keep | (key & mask3) >> (old - 1) << (new - 1)


class _RunClear(dict):
    """Gate projection -> the U bits the run's edges clear there, filled in
    on first use."""

    def __init__(self, edges: list[tuple[int, int]]):
        self.edges = edges

    def __missing__(self, hit: int) -> int:
        bits = 0
        for gate, bit in self.edges:
            if hit & gate:
                bits |= bit
        self[hit] = bits
        return bits


def run_clear(run: list[tuple[str, int, int]], w: int,
              signs: str = "hpn") -> tuple[int, dict[int, int]]:
    """The edges of a run of edge inserts [(sign, i, j), ...] whose sign is
    in `signs`, as (gates, clear): entry `key` loses the U bits
    `clear[key & gates]`.

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
    edges = [(1 << (a - 1) << (w if sign == "p" else 0), 1 << (b - 1 + 2 * w))
             for sign, i, j in run if sign in signs
             for a, b in ((i, j), (j, i))]
    gates = 0
    for gate, _ in edges:
        gates |= gate
    return gates, _RunClear(edges)


class TableOps(NamedTuple):
    """One solver's operators on tables of packed entries (field width w)
    and its unit table.  `join` ORs each pair of operand entries, applies
    the run's clears (from `run_clear`, each edge read both ways round),
    drops an entry with a dead U bit and clears the dead T and F bits: it
    is the one operator for a union, an edge run and a forget."""
    introduce: Callable[[str, int, int, int], set]  # (kind, T, F, U bit)
    # (left, right, run, w, dead T|F, dead U, floor)
    join: Callable[[set, set, list, int, int, int, int], set]
    unit: set                                   # joins as the identity
    relabel: Callable[[set, Callable[[int], int]], set]  # (table, relabel_fn)
    # (index, op, table, w, names): the trace node, which keeps the table
    # packed
    snapshot: Callable[[int, str, set, int, tuple | None], object]


def fold_tables(expr: Expr, ops: TableOps, trace: list | None = None,
                on_node: OnNode | None = None,
                forget: bool = False
                ) -> tuple[set, int, tuple[int, ...] | None]:
    """Runs a solver bottom-up over `expr`; returns (packed root table, w,
    names).

    `ops` gives the solver's `introduce`, `join`, `unit`, `relabel` and
    `snapshot` (see TableOps).  A union is `ops.join` of its operands with
    an empty run.  A run of consecutive edge inserts is one `ops.join`
    against `ops.unit` at its top edge insert; the fold hands each edge
    over as the expression names it, and `run_clear` reads it both ways
    round.

    `on_node(index, op, size)` and `trace` see the same events: each table
    the solver builds, in post-order.  A run's table carries the index and
    op of its top edge insert, and the root's index is the node count.

    With `forget`, each table drops its dead labels: the join that builds
    it gets their masks, a relabel table that has dead labels is joined
    against `ops.unit` with them, and so is an introduce table whose own
    label is dead (it has no other label's bits).  A label is dead after
    the last edge insert or relabel that names it (in post-order, so every
    operator above the table comes later), and dead from the start if none
    names it.  No later operator reads a dead label's T or F bit or clears
    its U bit, so a dead U bit keeps an entry from ever passing the root
    check.  Also with `forget`, a union whose next node in post-order is an
    edge insert (its parent) builds no table: its operands go to the run's
    join, which builds only the entries that survive the run and the
    forget.  Such a union sends no `on_node` or trace event.

    A subtree that holds every rule introduce is closed: its siblings carry
    no U bits, edge inserts only clear U bits and relabels only move them,
    so an entry with an empty U keeps it up to the root.  There the fold
    passes `ops.join` the floor 1 << 2w, the lowest U bit (elsewhere 0),
    and "U empty" is `entry < floor`.

    A join with an empty operand, or an empty table to forget in, builds
    an empty table without calling `ops.join`: no entry pairs with an
    empty operand.  Every operator keeps a table empty, so once a table is
    empty so is each table above it, up to the root; the fold still walks
    the rest of the expression and sends every event.

    One pre-pass over the `postorder` list finds the labels, where each
    dies and the rule count; the fold then reads the same list, dispatching
    on each node's type.  If the largest label exceeds the label count k,
    the fold numbers the labels 1..k in increasing order, so w is k, and
    `names` lists the expression's label at each bit (else it is None and
    bit b is label b + 1).  Each trace node gets `names`, so traces, like
    `on_node`, report the expression's labels.
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
                (left, gone, held), right = stack.pop(), ops.unit
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
            left = ops.relabel(left,
                               relabel_fn(rank[node.old], rank[node.new], w))
        if not left or right is not None and not right:
            # No entry pairs with an empty operand.
            table = set()
        elif dead & ~gone:
            table = ops.join(left, ops.unit if right is None else right, run,
                             w, dead | dead << w, dead << 2 * w,
                             floor if held == rules else 0)
            gone = dead
        elif right is not None:
            table = ops.join(left, right, run, w, 0, 0, 0)
        else:
            table = left
        if run:
            run = []
        if on_node is not None or trace is not None:
            op = op_label(node)
            if on_node is not None:
                on_node(index, op, len(table))
            if trace is not None:
                trace.append(ops.snapshot(index, op, table, w, names))
        stack.append((table, gone, held))
    return stack[0][0], w, names


def decide(expr: Expr, ops: TableOps, on_node: OnNode | None = None,
           trace: list | None = None) -> bool:
    """The decision: the fold forgets dead labels, so `on_node` and `trace`
    see the smaller tables it builds.  Every label is dead at the root, so
    the root table holds only entries with every field cleared: the triple
    0, or the pair with an empty Q and an empty Gamma (a Gamma member would
    have an empty U and refute its pair).  That entry is the one member of
    `ops.unit`, so the decision is whether the root table includes it."""
    table = fold_tables(expr, ops, trace=trace, on_node=on_node,
                        forget=True)[0]
    return ops.unit <= table


def trace_json(trace: list, field: str) -> str:
    """The text of a trace file: {"nodes": [...]} with each node's index, op
    and table under `field` ("triples" or "pairs"), as `json.dumps` with
    sorted keys writes it.  A table lists its entries sorted: triples in
    KTriple order, pairs by Q and then by their sorted Gamma, each Gamma in
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
            entries = [text for _, text in sorted(map(render, node.table))]
        nodes.append(f'{{"index": {node.index}, "op": {json.dumps(node.op)}, '
                     f'"{field}": [{", ".join(entries)}]}}')
    return '{"nodes": [' + ", ".join(nodes) + "]}"
