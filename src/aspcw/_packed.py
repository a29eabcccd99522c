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


def edge_masks(sign: str, i: int, j: int, w: int) -> tuple[int, int]:
    """(gate, clear) for edges i x j: where the gate bit (label i true for h
    and n, false for p) is set, `key & clear` drops rule label j from U."""
    gate = 1 << (i - 1)
    if sign == "p":
        gate <<= w
    return gate, ~(1 << (j - 1 + 2 * w))


class TableOps(NamedTuple):
    """One solver's operators on tables of packed entries (field width w)."""
    introduce: Callable[[int, str, int], set]   # (label bit, kind, w)
    union: Callable[[set, set], set]
    relabel: Callable[[set, Callable[[int], int]], set]  # (table, relabel_fn)
    edge: Callable[[set, str, int, int], set]   # (table, sign, gate, clear)
    candidates: Callable[[set], set]            # the Q triples of a table
    snapshot: Callable[[int, str, set, int], object]  # (index, op, table, w)
    # Applies a run of edge inserts [(sign, i, j), ...] at once, with the
    # node-by-node result; None where the solver has no such operator.
    edge_chain: Callable[[set, list, int], set] | None = None


def fold_tables(expr: Expr, ops: TableOps, trace: list | None = None,
                on_node: OnNode | None = None) -> tuple[set, int]:
    """Runs a solver bottom-up over `expr`; returns (packed root table, w).

    Every node is counted, and `on_node(index, op, size)` and `trace` see
    each node's table.  Without either, runs of consecutive edge inserts go
    to `ops.edge_chain` when the solver has one and each packed field fits
    a machine word (w <= 62).
    """
    labels = labels_used(expr)
    k, w = len(labels), max(labels)
    q_limit = 1 << (3 * k)
    chain_op = ops.edge_chain \
        if trace is None and on_node is None and w <= 62 else None
    count = 0

    # A node's result is (table, edge inserts deferred onto it).  Only the
    # batched path defers; the next operator or the root applies the run.
    def settle(result: tuple[set, list]) -> set:
        table, chain = result
        if chain:
            table = chain_op(table, chain, w)
        assert len(ops.candidates(table)) <= q_limit, \
            "candidate triples exceed 2^(3k) bound"
        return table

    def visit(node: Expr, *kids: tuple[set, list]) -> tuple[set, list]:
        nonlocal count
        count += 1
        if isinstance(node, EdgeInsert):
            if node.sign not in SIGNS:
                raise ExpressionError(
                    f"solver requires signed edges, got {node.sign!r}")
            if chain_op is not None:
                table, chain = kids[0]
                chain.append((node.sign, node.i, node.j))
                return table, chain
        tables = [settle(kid) for kid in kids]
        if isinstance(node, Introduce):
            table = ops.introduce(1 << (node.label - 1), node.kind, w)
        elif isinstance(node, DisjointUnion):
            table = ops.union(*tables)
        elif isinstance(node, Relabel):
            table = ops.relabel(tables[0], relabel_fn(node.old, node.new, w))
        else:
            gate, clear = edge_masks(node.sign, node.i, node.j, w)
            table = ops.edge(tables[0], node.sign, gate, clear)
        if on_node is not None:
            on_node(count, op_label(node), len(table))
        if trace is not None:
            trace.append(ops.snapshot(count, op_label(node), table, w))
        return table, []

    return settle(fold(expr, visit)), w
