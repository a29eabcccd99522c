"""Packed table entries and the one fold shared by the two solvers.

A triple (T, F, U) over labels 1..W is stored as a single integer with three
W-bit fields: T | F << W | U << 2W.  Unions become bitwise or; relabeling and
edge updates become shifted mask operations.  Only the solver internals use
this form; the public API exposes KTriple / KPair.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import ExpressionError
from .expression import (DisjointUnion, EdgeInsert, Expr, Introduce, Relabel,
                         fold, labels_used, op_label)
from .graphs import SIGNS
from .tables import KTriple


OnNode = Callable[[int, str, int], None]


def pack(triple: KTriple, w: int) -> int:
    return triple.t | triple.f << w | triple.u << 2 * w

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
    """One solver's operators on tables of packed entries (field width w)."""
    introduce: Callable[[int, str, int], set]   # (label bit, kind, w)
    union: Callable[[set, set], set]
    relabel: Callable[[set, Callable[[int], int]], set]  # (table, relabel_fn)
    edge: Callable[[set, list, int], set]       # (table, run, w)
    forget: Callable[[set, int, int], set]      # (table, dead label mask, w)
    candidates: Callable[[set], set]            # the Q triples of a table
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
    """
    nodes: list[Expr] = []
    fold(expr, lambda node, *_: nodes.append(node))
    labels = labels_used(expr)
    k, w = len(labels), max(labels)
    q_limit = 1 << (3 * k)

    dies: dict[int, int] = {}  # index -> the labels dead from there on
    if forget:
        last = {label: 0 for label in labels}
        for index, node in enumerate(nodes, 1):
            if isinstance(node, EdgeInsert):
                last[node.i] = last[node.j] = index
            elif isinstance(node, Relabel):
                last[node.old] = last[node.new] = index
        for label, index in last.items():
            dies[index] = dies.get(index, 0) | 1 << (label - 1)
    dead = dies.get(0, 0)

    # The operands' tables, each with the dead labels forgotten in it.
    stack: list[tuple[set, int]] = []
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
            table, gone = stack.pop()
            table = ops.edge(table, run, w)
            run = []
        elif isinstance(node, Introduce):
            table, gone = ops.introduce(1 << (node.label - 1), node.kind, w), 0
        elif isinstance(node, DisjointUnion):
            (right, right_gone), (left, left_gone) = stack.pop(), stack.pop()
            table, gone = ops.union(left, right), left_gone & right_gone
        else:
            table, gone = stack.pop()
            table = ops.relabel(table, relabel_fn(node.old, node.new, w))
        if dead & ~gone:
            table, gone = ops.forget(table, dead, w), dead
        if len(table) > q_limit:
            assert len(ops.candidates(table)) <= q_limit, \
                "candidate triples exceed 2^(3k) bound"
        if on_node is not None:
            on_node(index, op_label(node), len(table))
        if trace is not None:
            trace.append(ops.snapshot(index, op_label(node), table, w))
        stack.append((table, gone))
    return stack[0][0], w
