"""Table entries and the one table fold shared by the two solvers.

A KTriple (T, F, U) holds three label sets as bitmasks (label l -> bit l-1):
labels of true atoms, false atoms, and not-yet-satisfied rules.  A KPair
extends a triple with the table of its candidate's proper subsets evaluated
against the reduct.

Inside the fold a triple over labels 1..w is one integer with three w-bit
fields, T | F << w | U << 2w: unions become bitwise or, and relabels and edge
runs become shifted mask operations.  Only this module reads those fields.
A solver gives its operators as a TableOps; `fold_tables` hands them
ready-made bits and masks, and `unpack` reads an entry back as a KTriple.
"""

from __future__ import annotations

from typing import Callable, Hashable, NamedTuple

from .errors import ExpressionError
from .expression import (DisjointUnion, EdgeInsert, Expr, Introduce, Relabel,
                         fold, op_label)
from .graphs import SIGNS, bits


OnNode = Callable[[int, str, int], None]


def mask_labels(mask: int) -> frozenset[int]:
    return frozenset(b + 1 for b in bits(mask))


class KTriple(NamedTuple):
    t: int
    f: int
    u: int

    def to_sets(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return mask_labels(self.t), mask_labels(self.f), mask_labels(self.u)

    def __repr__(self) -> str:
        def fmt(mask):
            return "{" + ",".join(map(str, sorted(mask_labels(mask)))) + "}"
        return f"({fmt(self.t)},{fmt(self.f)},{fmt(self.u)})"


class KPair(NamedTuple):
    q: KTriple
    gamma: frozenset[KTriple]


def unpack(key: int, w: int) -> KTriple:
    mask = (1 << w) - 1
    return KTriple(key & mask, key >> w & mask, key >> 2 * w & mask)


def relabel_fn(old: int, new: int, w: int):
    bit = 1 << (old - 1)
    mask3 = bit | bit << w | bit << 2 * w
    keep = ~mask3
    shift = new - old

    if shift > 0:
        def move(key: int) -> int:
            hit = key & mask3
            return (key & keep) | hit << shift if hit else key
    else:
        def move(key: int) -> int:
            hit = key & mask3
            return (key & keep) | hit >> -shift if hit else key
    return move


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

    Edges i x j clear rule label j where the entry has label i true (h, n)
    or false (p).  No edge insert changes a T or F bit, so a run commutes
    and what it clears in an entry depends only on the entry's gate bits.
    """
    edges = [(1 << (i - 1) << (w if sign == "p" else 0), 1 << (j - 1 + 2 * w))
             for sign, i, j in run if sign in signs]
    gates = 0
    for gate, _ in edges:
        gates |= gate
    return gates, _RunClear(edges)


class TableOps(NamedTuple):
    """One solver's operators on tables of packed entries (field width w),
    and the one root entry its decision accepts."""
    introduce: Callable[[str, int, int, int], set]  # (kind, T, F, U bit)
    union: Callable[[set, set], set]
    relabel: Callable[[set, Callable[[int], int]], set]  # (table, relabel_fn)
    edge: Callable[[set, list, int], set]       # (table, run, w)
    forget: Callable[[set, int, int, int], set]  # (table, dead T|F, U, floor)
    accepted: Hashable                          # the decision's root entry
    snapshot: Callable[[int, str, set, int], object]  # (index, op, table, w)


def fold_tables(expr: Expr, ops: TableOps, trace: list | None = None,
                on_node: OnNode | None = None,
                forget: bool = False) -> tuple[set, int]:
    """Runs a solver bottom-up over `expr`; returns (packed root table, w).

    A run of consecutive edge inserts is applied at once by `ops.edge`, at
    its top edge insert.  `on_node(index, op, size)` and `trace` see the
    same events: each table the solver builds, in post-order.  A run's
    table carries the index and op of its top edge insert, and the root's
    index is the node count.

    With `forget`, each table drops its dead labels through `ops.forget`: a
    label is dead after the last edge insert or relabel that names it (in
    post-order, so every operator above the table comes later), and dead
    from the start if none names it.  No later operator reads a dead
    label's T or F bit or clears its U bit, so a dead U bit keeps an entry
    from ever passing the root check.

    A subtree that holds every rule introduce is closed: its siblings carry
    no U bits, edge inserts only clear U bits and relabels only move them,
    so an entry with an empty U keeps it up to the root.  There the fold
    passes `ops.forget` the floor 1 << 2w, the lowest U bit (elsewhere 0),
    and "U empty" is `entry < floor`.  One pre-pass lists the nodes in
    post-order and finds the labels, where each dies and the rule count.
    """
    nodes: list[Expr] = []
    labels: set[int] = set()  # those of introduces, then all
    last: dict[int, int] = {}  # label -> its last edge insert or relabel
    rules = 0

    def visit(node: Expr, *_) -> None:
        nonlocal rules
        nodes.append(node)
        if isinstance(node, Introduce):
            labels.add(node.label)
            rules += node.kind == "rule"
        elif isinstance(node, EdgeInsert):
            last[node.i] = last[node.j] = len(nodes)
        elif isinstance(node, Relabel):
            last[node.old] = last[node.new] = len(nodes)

    fold(expr, visit)
    labels.update(last)
    w = max(labels)
    floor = 1 << 2 * w

    dies: dict[int, int] = {}  # index -> the labels dead from there on
    if forget:
        for label in labels:
            index = last.get(label, 0)
            dies[index] = dies.get(index, 0) | 1 << (label - 1)
    dead = dies.get(0, 0)

    # The operands' tables, each with the dead labels forgotten in it, its
    # forgotten labels and the count of rule introduces under it.
    stack: list[tuple[set, int, int]] = []
    run: list[tuple[str, int, int]] = []
    for index, node in enumerate(nodes, 1):
        dead |= dies.get(index, 0)
        if isinstance(node, EdgeInsert):
            if node.sign not in SIGNS:
                raise ExpressionError(
                    f"solver requires signed edges, got {node.sign!r}")
            run.append((node.sign, node.i, node.j))
            # In post-order an edge insert is followed by its parent, or by
            # an introduce if it is a left operand: so the run goes on
            # above while the next node is an edge insert.
            if index < len(nodes) and isinstance(nodes[index], EdgeInsert):
                continue
            table, gone, held = stack.pop()
            table = ops.edge(table, run, w)
            run = []
        elif isinstance(node, Introduce):
            bit = 1 << (node.label - 1)
            table = ops.introduce(node.kind, bit, bit << w, bit << 2 * w)
            gone, held = 0, node.kind == "rule"
        elif isinstance(node, DisjointUnion):
            (right, right_gone, right_held), (left, left_gone, left_held) = \
                stack.pop(), stack.pop()
            table = ops.union(left, right)
            gone, held = left_gone & right_gone, left_held + right_held
        else:
            table, gone, held = stack.pop()
            table = ops.relabel(table, relabel_fn(node.old, node.new, w))
        if dead & ~gone:
            table = ops.forget(table, dead | dead << w, dead << 2 * w,
                               floor if held == rules else 0)
            gone = dead
        if on_node is not None:
            on_node(index, op_label(node), len(table))
        if trace is not None:
            trace.append(ops.snapshot(index, op_label(node), table, w))
        stack.append((table, gone, held))
    return stack[0][0], w


def decide(expr: Expr, ops: TableOps, on_node: OnNode | None = None,
           trace: list | None = None) -> bool:
    """The decision: the fold forgets dead labels, so `on_node` and `trace`
    see the smaller tables it builds.  Every label is dead at the root, so
    the root table holds only entries with every field cleared, and the
    decision is whether `ops.accepted` is among them."""
    table, _ = fold_tables(expr, ops, trace=trace, on_node=on_node,
                           forget=True)
    return ops.accepted in table
