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
    candidates: Callable[[set], set]            # the Q triples of a table
    snapshot: Callable[[int, str, set, int], object]  # (index, op, table, w)


def fold_tables(expr: Expr, ops: TableOps, trace: list | None = None,
                on_node: OnNode | None = None) -> tuple[set, int]:
    """Runs a solver bottom-up over `expr`; returns (packed root table, w).

    A run of consecutive edge inserts is applied at once by `ops.edge`,
    when the next operator or the root needs its table; with a trace, each
    edge insert is its own run, so the trace holds every node's table.
    `on_node(index, op, size)` and `trace` see each table the solver
    builds, in the order it builds them; a run's table carries the index
    and op of its last edge insert, and the root's index is the node count.
    """
    labels = labels_used(expr)
    k, w = len(labels), max(labels)
    q_limit = 1 << (3 * k)
    count = 0

    def built(index: int, node: Expr, table: set) -> set:
        assert len(ops.candidates(table)) <= q_limit, \
            "candidate triples exceed 2^(3k) bound"
        if on_node is not None:
            on_node(index, op_label(node), len(table))
        if trace is not None:
            trace.append(ops.snapshot(index, op_label(node), table, w))
        return table

    # A node's result is (table, edge inserts deferred onto it, (index,
    # node) of the last of them).
    def settle(result: tuple[set, list, tuple | None]) -> set:
        table, run, last = result
        return built(*last, ops.edge(table, run, w)) if run else table

    def visit(node: Expr, *kids: tuple) -> tuple[set, list, tuple | None]:
        nonlocal count
        count += 1
        if isinstance(node, EdgeInsert):
            if node.sign not in SIGNS:
                raise ExpressionError(
                    f"solver requires signed edges, got {node.sign!r}")
            table, run, _ = kids[0]
            run.append((node.sign, node.i, node.j))
            result = table, run, (count, node)
            return result if trace is None else (settle(result), [], None)
        tables = [settle(kid) for kid in kids]
        if isinstance(node, Introduce):
            table = ops.introduce(1 << (node.label - 1), node.kind, w)
        elif isinstance(node, DisjointUnion):
            table = ops.union(*tables)
        else:
            table = ops.relabel(tables[0], relabel_fn(node.old, node.new, w))
        return built(count, node, table), [], None

    return settle(fold(expr, visit)), w
