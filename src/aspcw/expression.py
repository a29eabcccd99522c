"""The k-expression algebra over signed graphs.

Expressions are trees of introduce / disjoint-union / relabel / edge-insert
nodes.  Evaluating one bottom-up yields a vertex-labeled signed graph; the
width of an expression is the number of distinct labels it uses.

Text grammar (whitespace-insensitive):

    expr := "a(" int "," id ")"            introduce an atom vertex
          | "r(" int "," id ")"            introduce a rule vertex
          | "oplus(" expr "," expr ")"     disjoint union
          | "rho(" int "," int "," expr ")"       relabel i -> j
          | "eta(" sign "," int "," int "," expr ")"  insert sign edges i x j

with sign in {h, p, n, alpha}.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, TypeVar, Union

from .errors import ExpressionError, ParseError, SignConflictError
from .graphs import (ALPHA, SIGNS, LabeledSignedGraph, edge_key,
                     build_signed_incidence_graph, join_graph_signs)
from .program import Program

EDGE_SIGNS = SIGNS + (ALPHA,)


@dataclass(frozen=True)
class Introduce:
    label: int
    vertex: str
    kind: str  # 'atom' or 'rule'

    def __post_init__(self):
        if self.label < 1:
            raise ExpressionError(f"labels are positive integers, got {self.label}")
        if self.kind not in ("atom", "rule"):
            raise ExpressionError(f"bad vertex kind {self.kind!r}")


class _Compound:
    """Equality, hashing and repr for the nodes with operands.  The ones a
    dataclass generates recurse, which fails on deep expressions; these run
    on `fold`.  The post-order sequence of operators fixes the tree."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Introduce, _Compound)):
            return NotImplemented
        return _postorder(self) == _postorder(other)

    def __hash__(self) -> int:
        return hash(tuple(_postorder(self)))

    def __repr__(self) -> str:
        return f"parse_expression({serialize_expression(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class DisjointUnion(_Compound):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Relabel(_Compound):
    old: int
    new: int
    child: "Expr"

    def __post_init__(self):
        if self.old < 1 or self.new < 1:
            raise ExpressionError("labels are positive integers")


@dataclass(frozen=True, eq=False, repr=False)
class EdgeInsert(_Compound):
    sign: str
    i: int
    j: int
    child: "Expr"

    def __post_init__(self):
        if self.sign not in EDGE_SIGNS:
            raise ExpressionError(f"bad edge sign {self.sign!r}")
        if self.i == self.j:
            raise ExpressionError("edge insertion needs two distinct labels")
        if self.i < 1 or self.j < 1:
            raise ExpressionError("labels are positive integers")


Expr = Union[Introduce, DisjointUnion, Relabel, EdgeInsert]


T = TypeVar("T")


def fold(expr: Expr, visit: Callable[..., T]) -> T:
    """The one tree traversal: a post-order fold with an explicit stack, so
    any depth that fits in memory works.  `visit(node, *results)` gets the
    results of node's children, left before right, and returns node's."""
    results: list = []
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node,): its operands are folded
            node = node[0]
            if isinstance(node, DisjointUnion):
                right = results.pop()
                results[-1] = visit(node, results[-1], right)
            else:
                results[-1] = visit(node, results[-1])
        elif isinstance(node, Introduce):
            results.append(visit(node))
        elif isinstance(node, DisjointUnion):
            stack += ((node,), node.right, node.left)
        else:
            stack += ((node,), node.child)
    return results[0]


def _postorder(expr: Expr) -> list[str]:
    out: list[str] = []
    fold(expr, lambda node, *_: out.append(op_label(node)))
    return out


def labels_used(expr: Expr) -> frozenset[int]:
    out: set[int] = set()

    def visit(node: Expr, *_) -> None:
        if isinstance(node, Introduce):
            out.add(node.label)
        elif isinstance(node, Relabel):
            out.update((node.old, node.new))
        elif isinstance(node, EdgeInsert):
            out.update((node.i, node.j))

    fold(expr, visit)
    return frozenset(out)


def width(expr: Expr) -> int:
    return len(labels_used(expr))


def node_count(expr: Expr) -> int:
    return fold(expr, lambda node, *counts: 1 + sum(counts))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(expr: Expr) -> LabeledSignedGraph:
    """Bottom-up semantics.  A relabel or edge insert acts on the vertices of
    its own subexpression.  Repeated identical edge inserts are idempotent;
    an insert that would re-sign an existing pair raises SignConflictError."""
    kinds: dict[str, str] = {}
    position: dict[str, int] = {}
    edges: dict[tuple[str, str], str] = {}

    # Each node's result maps a label to the vertices of its subexpression
    # that carry it, first introduced first; edge inserts walk these lists,
    # so SignConflictError names the same pair on every run.
    def visit(node: Expr, *parts: dict[int, list[str]]) -> dict[int, list[str]]:
        if isinstance(node, Introduce):
            if node.vertex in kinds:
                raise ExpressionError(
                    f"vertex {node.vertex!r} introduced more than once")
            kinds[node.vertex] = node.kind
            position[node.vertex] = len(position)
            return {node.label: [node.vertex]}
        if isinstance(node, DisjointUnion):
            left, right = parts
            small, big = sorted(parts, key=len)
            for label, vs in small.items():
                big[label] = left[label] + right[label] if label in big else vs
            return big
        (members,) = parts
        if isinstance(node, Relabel):
            if node.old != node.new and node.old in members:
                target = members.setdefault(node.new, [])
                target += members.pop(node.old)
                target.sort(key=position.__getitem__)
            return members
        for u in members.get(node.i, ()):
            for v in members.get(node.j, ()):
                key = edge_key(u, v)
                existing = edges.get(key)
                if existing is None:
                    edges[key] = node.sign
                elif existing != node.sign:
                    raise SignConflictError(
                        f"edge {key} already has sign {existing!r}, "
                        f"insert of {node.sign!r} conflicts")
        return members

    root = fold(expr, visit)
    label_of = {v: label for label, vs in root.items() for v in vs}
    labels = {v: label_of[v] for v in position}
    return LabeledSignedGraph(tuple(position), kinds, edges, labels)


def validate_against(expr: Expr, program: Program,
                     joined: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Compare the evaluated graph with the program's signed incidence graph
    (signs in `joined` collapsed to alpha).  Root labels are ignored; returns
    a list of mismatches, empty on success."""
    got = evaluate(expr)
    want = build_signed_incidence_graph(program)
    if joined:
        want = join_graph_signs(want, frozenset(joined))
    problems = []
    got_vs, want_vs = set(got.vertices), set(want.vertices)
    for v in sorted(want_vs - got_vs):
        problems.append(f"missing vertex {v}")
    for v in sorted(got_vs - want_vs):
        problems.append(f"extra vertex {v}")
    for v in sorted(got_vs & want_vs):
        if got.kinds[v] != want.kinds[v]:
            problems.append(
                f"vertex {v}: kind {got.kinds[v]}, expected {want.kinds[v]}")
    for e in sorted(set(want.edges) - set(got.edges)):
        problems.append(f"missing edge {e[0]}--{e[1]} ({want.edges[e]})")
    for e in sorted(set(got.edges) - set(want.edges)):
        problems.append(f"extra edge {e[0]}--{e[1]} ({got.edges[e]})")
    for e in sorted(set(got.edges) & set(want.edges)):
        if got.edges[e] != want.edges[e]:
            problems.append(
                f"edge {e[0]}--{e[1]}: sign {got.edges[e]}, "
                f"expected {want.edges[e]}")
    return problems


def join_labels(expr: Expr, joined: frozenset[str] | set[str]) -> Expr:
    """Rewrite every edge insert whose sign is in `joined` to sign alpha."""
    if not joined:
        raise ValueError("join needs at least one sign")
    bad = set(joined) - set(SIGNS)
    if bad:
        raise ValueError(f"cannot join non-signs {sorted(bad)}")

    def rebuild(node: Expr, *kids: Expr) -> Expr:
        if isinstance(node, Introduce):
            return node
        if isinstance(node, DisjointUnion):
            return DisjointUnion(*kids)
        if isinstance(node, Relabel):
            return Relabel(node.old, node.new, *kids)
        sign = ALPHA if node.sign in joined else node.sign
        return EdgeInsert(sign, node.i, node.j, *kids)

    return fold(expr, rebuild)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _union_all(parts: list[Expr]) -> Expr:
    expr = parts[0]
    for part in parts[1:]:
        expr = DisjointUnion(expr, part)
    return expr


def trivial_expression(program: Program) -> Expr:
    """One distinct label per vertex, then one edge insert per incidence edge.

    Width is |atoms| + |rules|; always validates against the program.
    """
    sinc = build_signed_incidence_graph(program)
    if not sinc.vertices:
        raise ValueError("an empty program has no expression")
    label = {v: i + 1 for i, v in enumerate(sinc.vertices)}
    expr = _union_all([Introduce(label[v], v, sinc.kinds[v]) for v in sinc.vertices])
    for r in program.rules:
        for sign, part in zip(SIGNS, (r.head, r.pos_body, r.neg_body)):
            for a in sorted(part, key=label.__getitem__):
                expr = EdgeInsert(sign, label[a], label[r.id], expr)
    return expr


def heuristic_expression(program: Program) -> Expr:
    """Best-effort low-width expression via twin merging: vertices with
    identical signed neighborhoods share one label.

    Twin classes are pairwise fully adjacent with a single sign or fully
    non-adjacent, so a single edge insert per adjacent class pair rebuilds
    the graph exactly.
    """
    sinc = build_signed_incidence_graph(program)
    if not sinc.vertices:
        raise ValueError("an empty program has no expression")
    neighborhoods: dict[str, frozenset[tuple[str, str]]] = {v: frozenset() for v in sinc.vertices}
    adj: dict[str, dict[str, str]] = {v: {} for v in sinc.vertices}
    for (u, v), s in sinc.edges.items():
        adj[u][v] = s
        adj[v][u] = s
    for v in sinc.vertices:
        neighborhoods[v] = frozenset(adj[v].items())

    classes: dict[frozenset, int] = {}
    label = {}
    for v in sinc.vertices:
        sig = neighborhoods[v]
        if sig not in classes:
            classes[sig] = len(classes) + 1
        label[v] = classes[sig]

    expr = _union_all([Introduce(label[v], v, sinc.kinds[v]) for v in sinc.vertices])
    quotient: dict[tuple[int, int], str] = {}
    for (u, v), s in sinc.edges.items():
        cu, cv = label[u], label[v]
        quotient[(min(cu, cv), max(cu, cv))] = s
    for (cu, cv), s in sorted(quotient.items()):
        expr = EdgeInsert(s, cu, cv, expr)
    return expr


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

_EXPR_TOKEN = re.compile(r"\s*([a-zA-Z_][a-zA-Z0-9_]*|\d+|[(),])")


def parse_expression(text: str) -> Expr:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} "
                                 f"in expression")
            break
        tokens.append(m.group(1))
        pos = m.end()
    it = iter(tokens)

    def take():
        try:
            return next(it)
        except StopIteration:
            raise ParseError("unexpected end of expression") from None

    def expect(want):
        tok = take()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r} in expression")

    def number():
        tok = take()
        if not tok.isdigit() or int(tok) < 1:
            raise ParseError(f"expected positive label, found {tok!r}")
        return int(tok)

    # Operators whose operands are still being read, innermost last:
    # (constructor, number of operands, operands read so far).
    pending: list[tuple[Callable[..., Expr], int, list[Expr]]] = []
    seen: set[str] = set()
    duplicate = None
    try:
        while True:
            head = take()
            expect("(")
            if head in ("a", "r"):
                label = number()
                expect(",")
                vertex = take()
                expect(")")
                node = Introduce(label, vertex, "atom" if head == "a" else "rule")
                if vertex in seen and duplicate is None:
                    duplicate = vertex
                seen.add(vertex)
            elif head == "oplus":
                pending.append((DisjointUnion, 2, []))
                continue
            elif head == "rho":
                old = number()
                expect(",")
                new = number()
                expect(",")
                pending.append((partial(Relabel, old, new), 1, []))
                continue
            elif head == "eta":
                sign = take()
                if sign not in EDGE_SIGNS:
                    raise ParseError(f"bad edge sign {sign!r}")
                expect(",")
                i = number()
                expect(",")
                j = number()
                expect(",")
                pending.append((partial(EdgeInsert, sign, i, j), 1, []))
                continue
            else:
                raise ParseError(f"unknown expression operator {head!r}")
            # A complete subexpression: hand it to the operators waiting.
            while pending:
                make, arity, operands = pending[-1]
                operands.append(node)
                if len(operands) < arity:
                    expect(",")
                    break
                expect(")")
                pending.pop()
                node = make(*operands)
            else:
                break
    except ExpressionError as exc:
        raise ParseError(str(exc)) from exc

    leftover = next(it, None)
    if leftover is not None:
        raise ParseError(f"trailing input {leftover!r} after expression")
    if duplicate is not None:
        raise ParseError(f"vertex {duplicate!r} introduced more than once")
    return node


def op_label(node: Expr) -> str:
    """A node's operator as written in the text form, without its operands:
    a(1,x), oplus, rho(1,2) or eta(h,1,2)."""
    if isinstance(node, Introduce):
        tag = "a" if node.kind == "atom" else "r"
        return f"{tag}({node.label},{node.vertex})"
    if isinstance(node, DisjointUnion):
        return "oplus"
    if isinstance(node, Relabel):
        return f"rho({node.old},{node.new})"
    return f"eta({node.sign},{node.i},{node.j})"


def _text(node: Expr, *kids: str | tuple) -> str | tuple:
    """The node's text as a string or a tuple of parts, joined once at the
    end so a deep expression is not copied once per level."""
    if not kids:
        return op_label(node)
    if isinstance(node, DisjointUnion):
        return ("oplus(", kids[0], ",", kids[1], ")")
    # rho(1,2) and eta(h,1,2) take their operand as a last argument.
    return (op_label(node)[:-1] + ",", kids[0], ")")


def serialize_expression(expr: Expr) -> str:
    out: list[str] = []
    stack = [fold(expr, _text)]
    while stack:
        part = stack.pop()
        if type(part) is str:
            out.append(part)
        else:
            stack += reversed(part)
    return "".join(out)
