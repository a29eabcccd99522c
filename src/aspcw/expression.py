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
from itertools import repeat
from typing import Callable, Iterable, TypeVar, Union

from .errors import ExpressionError, ParseError, SignConflictError
from .graphs import (ALPHA, SIGNS, LabeledSignedGraph, _incidence_vertices,
                     bits, check_joinable, edge_groups, edge_key)
from .program import AtomSet, Program, Record, _line_col

EDGE_SIGNS = SIGNS + (ALPHA,)


class Introduce(Record):
    __slots__ = ("label", "vertex", "kind")  # kind: 'atom' or 'rule'

    def __init__(self, label: int, vertex: str, kind: str):
        if label < 1:
            raise ExpressionError(f"labels are positive integers, got {label}")
        if kind not in ("atom", "rule"):
            raise ExpressionError(f"bad vertex kind {kind!r}")
        _introduce_label(self, label)
        _introduce_vertex(self, vertex)
        _introduce_kind(self, kind)


class _Compound(Record):
    """Equality, hashing, repr and pickling for the nodes with operands.
    Field-wise ones would recurse, which fails on deep expressions; these
    run on `postorder`.  The post-order sequence of operators fixes the
    tree."""

    __slots__ = ()

    def __reduce__(self):
        # Each node's class and its fields but the operands, which come
        # last, in post-order: flat, so pickle and copy do not recurse.
        return _rebuild, (tuple([(type(node), node._fields()[_OWN[type(node)]])
                                 for node in postorder(self)]),)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Introduce, _Compound)):
            return NotImplemented
        return _postorder(self) == _postorder(other)

    def __hash__(self) -> int:
        return hash(tuple(_postorder(self)))

    def __repr__(self) -> str:
        return f"parse_expression({serialize_expression(self)!r})"


class DisjointUnion(_Compound):
    __slots__ = ("left", "right")

    def __init__(self, left: "Expr", right: "Expr"):
        _union_left(self, left)
        _union_right(self, right)


class Relabel(_Compound):
    __slots__ = ("old", "new", "child")

    def __init__(self, old: int, new: int, child: "Expr"):
        if old < 1 or new < 1:
            raise ExpressionError("labels are positive integers")
        _relabel_old(self, old)
        _relabel_new(self, new)
        _relabel_child(self, child)


class EdgeInsert(_Compound):
    __slots__ = ("sign", "i", "j", "child")

    def __init__(self, sign: str, i: int, j: int, child: "Expr"):
        if sign not in EDGE_SIGNS:
            raise ExpressionError(f"bad edge sign {sign!r}")
        if i == j:
            raise ExpressionError("edge insertion needs two distinct labels")
        if i < 1 or j < 1:
            raise ExpressionError("labels are positive integers")
        _edge_sign(self, sign)
        _edge_i(self, i)
        _edge_j(self, j)
        _edge_child(self, child)


_introduce_label, _introduce_vertex, _introduce_kind = Introduce.setters()
_union_left, _union_right = DisjointUnion.setters()
_relabel_old, _relabel_new, _relabel_child = Relabel.setters()
_edge_sign, _edge_i, _edge_j, _edge_child = EdgeInsert.setters()

Expr = Union[Introduce, DisjointUnion, Relabel, EdgeInsert]

# Each node class's own fields, all but the operands its slots end with, as
# a slice of its field tuple.
_OWN = {Introduce: slice(None), DisjointUnion: slice(0), Relabel: slice(-1),
        EdgeInsert: slice(-1)}


def _rebuild(nodes: tuple[tuple[type, tuple], ...]) -> Expr:
    """The expression whose post-order is `nodes`, each node as its class
    and its fields but the operands (see `_Compound.__reduce__`), built on
    a stack of finished operands."""
    stack: list[Expr] = []
    for kind, fields in nodes:
        if kind is Introduce:
            stack.append(Introduce(*fields))
        elif kind is DisjointUnion:
            right = stack.pop()
            stack[-1] = DisjointUnion(stack[-1], right)
        else:
            stack[-1] = kind(*fields, stack[-1])
    return stack[0]


T = TypeVar("T")


def postorder(expr: Expr) -> list[Expr]:
    """The one tree traversal: expr's nodes in post-order, each node's
    operands left before right.  It is the reverse of a pre-order that takes
    the right operand first, built on an explicit stack, so any depth that
    fits in memory works."""
    out: list[Expr] = []
    stack: list[Expr] = [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        kind = type(node)  # the node classes have no subclasses
        if kind is DisjointUnion:
            stack += (node.left, node.right)
        elif kind is not Introduce:
            stack.append(node.child)
    out.reverse()
    return out


def fold(expr: Expr, visit: Callable[..., T]) -> T:
    """A post-order fold over `postorder`: `visit(node, *results)` gets the
    results of node's operands, left before right, and returns node's."""
    results: list = []
    for node in postorder(expr):
        kind = type(node)
        if kind is Introduce:
            results.append(visit(node))
        elif kind is DisjointUnion:
            right = results.pop()
            results[-1] = visit(node, results[-1], right)
        else:
            results[-1] = visit(node, results[-1])
    return results[0]


def _postorder(expr: Expr) -> list[str]:
    return list(map(op_label, postorder(expr)))


def labels_used(expr: Expr) -> frozenset[int]:
    out: set[int] = set()
    for node in postorder(expr):
        kind = type(node)
        if kind is Introduce:
            out.add(node.label)
        elif kind is Relabel:
            out.update((node.old, node.new))
        elif kind is EdgeInsert:
            out.update((node.i, node.j))
    return frozenset(out)


def width(expr: Expr) -> int:
    return len(labels_used(expr))


def node_count(expr: Expr) -> int:
    return len(postorder(expr))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# A vertex set is kept from its lowest vertex, as (low, mask >> low): bit p
# of the mask is the vertex at position low + p in introduce order.  Its int
# is as wide as the set's span, not as its highest position: one vertex is
# one bit wherever it is, and the rows of a cycle written in order span a
# few bits.  A set of vertices introduced far apart is as wide as their
# distance.
Mask = tuple[int, int]


def _union(x: Mask, y: Mask) -> Mask:
    (lx, mx), (ly, my) = x, y
    if lx <= ly:
        return lx, mx | my << (ly - lx)
    return ly, my | mx << (lx - ly)


def _positions(x: Mask) -> Iterable[int]:
    low, mask = x
    # No generator for the common single vertex.
    return (low,) if mask == 1 else map(low.__add__, bits(mask))


# A row is a vertex's neighbours: [base, h, p, n, alpha, any], the masks by
# each sign of EDGE_SIGNS and by any sign, with bit p for the vertex at
# position base + p.  The base is the lowest neighbour's position; a vertex
# without neighbours has no row.

def _sign_at(row: list[int], p: int) -> str | None:
    """The sign of row's edge to the vertex at position p, if it has one."""
    d = p - row[0]
    if d < 0 or not row[5] >> d & 1:
        return None
    return next(s for s, m in zip(EDGE_SIGNS, row[1:]) if m >> d & 1)


def _graph_masks(expr: Expr) -> tuple[dict[str, str], dict[int, Mask],
                                     list[tuple[str, Mask, Mask]],
                                     list[list[int] | None]]:
    """The one post-order loop under `evaluate` and `validate_against`: the
    evaluated graph as vertex sets kept from their lowest vertex (see Mask).

    Returns the kinds (vertex -> 'atom' or 'rule', in introduce order), the
    root's label sets, each edge insert that adds edges as a biclique
    (sign, A, B) in post-order, and by vertex position its row (see
    above) or None.  An insert ORs B into the rows of A's vertices and A
    into those of B's: |A| + |B| ORs, whatever its edge count.  A repeated
    vertex, or a pair given a second sign, raises at its node, so the first
    error in post-order is raised."""
    kinds: dict[str, str] = {}
    rows: list[list[int] | None] = []
    inserts: list[tuple[str, Mask, Mask]] = []

    # The operands' results, innermost last: each maps a label to the set
    # of its subexpression's vertices that carry it.
    stack: list[dict[int, Mask]] = []
    for node in postorder(expr):
        kind = type(node)
        if kind is Introduce:
            if node.vertex in kinds:
                raise ExpressionError(
                    f"vertex {node.vertex!r} introduced more than once")
            rows.append(None)
            kinds[node.vertex] = node.kind
            stack.append({node.label: (len(rows) - 1, 1)})
            continue
        if kind is DisjointUnion:
            # The smaller side merges into the larger, the left into the
            # right on a tie.
            right, left = stack.pop(), stack[-1]
            small, big = ((right, left) if len(left) > len(right)
                          else (left, right))
            for label, x in small.items():
                big[label] = _union(big[label], x) if label in big else x
            stack[-1] = big
            continue
        members = stack[-1]
        if kind is Relabel:
            if node.old != node.new and node.old in members:
                x = members.pop(node.old)
                members[node.new] = (_union(members[node.new], x)
                                     if node.new in members else x)
            continue
        a, b = members.get(node.i), members.get(node.j)
        if a and b:
            k = EDGE_SIGNS.index(node.sign) + 1
            # B into A's rows, then A into B's.  Edges are symmetric, so a
            # clash shows on A's side first.
            for side, (low, mask) in (a, b), (b, a):
                # _positions(side), without the call for a single vertex.
                for u in (side[0],) if side[1] == 1 else _positions(side):
                    row = rows[u]
                    if row is None:
                        rows[u] = row = [low, 0, 0, 0, 0, mask]
                        row[k] = mask
                        continue
                    if low < row[0]:
                        row[1:] = [m << (row[0] - low) for m in row[1:]]
                        row[0] = low
                    m = mask << (low - row[0])
                    if row[5] & m and (clash := (row[5] ^ row[k]) & m):
                        # Name the clash's lowest vertex, as a walk over
                        # the pairs in introduce order would.
                        names = tuple(kinds)
                        v = row[0] + (clash & -clash).bit_length() - 1
                        raise SignConflictError(
                            f"edge {edge_key(names[u], names[v])} already has "
                            f"sign {_sign_at(row, v)!r}, insert of "
                            f"{node.sign!r} conflicts")
                    row[k] |= m
                    row[5] |= m
            inserts.append((node.sign, a, b))
    return kinds, stack[0], inserts, rows


def _edges(names: tuple[str, ...],
           inserts: list[tuple[str, Mask, Mask]]) -> dict[tuple[str, str], str]:
    """The bicliques' edges by sorted vertex pair, in insert order and, in
    each insert, by introduce order of the A and then the B vertex."""
    edges: dict[tuple[str, str], str] = {}
    add = edges.setdefault
    for sign, a, b in inserts:
        targets = [names[v] for v in _positions(b)]
        for u in _positions(a):
            u = names[u]
            for v in targets:
                add((u, v) if u <= v else (v, u), sign)
    return edges


def evaluate(expr: Expr) -> LabeledSignedGraph:
    """Bottom-up semantics.  A relabel or edge insert acts on the vertices of
    its own subexpression.  Repeated identical edge inserts are idempotent;
    an insert that would re-sign an existing pair raises SignConflictError,
    naming the first such pair in introduce order.  The vertices are in
    introduce order, and the edges in the order their inserts add them."""
    kinds, root, inserts, _ = _graph_masks(expr)
    names = tuple(kinds)
    label = [0] * len(names)
    for lab, x in root.items():
        for p in _positions(x):
            label[p] = lab
    return LabeledSignedGraph(names, kinds, _edges(names, inserts),
                              dict(zip(names, label)))


def validate_against(expr: Expr, program: Program,
                     joined: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Compare the evaluated graph with the program's signed incidence graph
    (signs in `joined` collapsed to alpha).  Root labels are ignored; returns
    a list of mismatches, empty on success: missing, extra and wrongly kinded
    vertices, then missing, extra and wrongly signed edges, each sorted.

    Works on `_graph_masks`' neighbour rows and never lists the expression's
    edges on success: each rule part is one test that the rule's row for
    its sign holds the part's atom set, and the edges found are counted
    against the expression's, half the bits of all rows.  Only a part that
    fails is looked at atom by atom, and only a count that falls short
    lists the expression's edges, to name the extra ones."""
    kinds, _, inserts, rows = _graph_masks(expr)
    _, want_vs = _incidence_vertices(program)
    if joined:
        check_joinable(joined)
    problems = []
    if kinds != want_vs:
        problems += [f"missing vertex {v}"
                     for v in sorted(want_vs.keys() - kinds.keys())]
        problems += [f"extra vertex {v}"
                     for v in sorted(kinds.keys() - want_vs.keys())]
        problems += [f"vertex {v}: kind {k}, expected {want_vs[v]}"
                     for v, k in sorted(kinds.items() - want_vs.items())
                     if v in want_vs]
    at = {v: p for p, v in enumerate(kinds)}
    row_of = dict(zip(kinds, rows))
    # Part -> its atoms' set; twin rules of a parsed program share their
    # parts, so a repeated part is found by identity.  An atom the
    # expression lacks is at -1, below every row's base, so a part that
    # holds one fails its test.
    sets: dict[AtomSet, Mask] = {}
    absent = repeat(-1)
    missing: list[tuple[tuple[str, str], str]] = []
    wrong: list[tuple[tuple[str, str], str, str]] = []
    found = 0  # program edges the expression has, whatever their sign
    # Each sign's slot in a row: alpha's for a joined sign.
    slots = [EDGE_SIGNS.index(ALPHA if s in joined else s) + 1 for s in SIGNS]
    for r in program.rules:
        rule, row = r.id, row_of.get(r.id)
        for slot, part in zip(slots, (r.head, r.pos_body, r.neg_body)):
            if not part:
                continue
            want = sets.get(part)
            if want is None:
                ps = list(map(at.get, part, absent))
                low, mask = min(ps), 0
                for p in ps if low >= 0 else ():
                    mask |= 1 << (p - low)
                want = sets[part] = low, mask
            if row is not None:
                low, mask = want
                d = low - row[0]
                if d >= 0 and (row[slot] >> d) & mask == mask:
                    found += len(part)
                    continue
            sign = EDGE_SIGNS[slot - 1]
            for a in part:
                key = (a, rule) if a <= rule else (rule, a)
                s = None if row is None or a not in at else _sign_at(row, at[a])
                if s is None:
                    missing.append((key, sign))
                else:
                    found += 1
                    if s != sign:
                        wrong.append((key, s, sign))
    problems += [f"missing edge {u}--{v} ({s})" for (u, v), s in sorted(missing)]
    if found < sum(row[5].bit_count() for row in rows if row) // 2:
        es = _edges(tuple(kinds), inserts)
        want_es = {(a, rule) if a <= rule else (rule, a)
                   for rule, _, part in edge_groups(program) for a in part}
        problems += [f"extra edge {u}--{v} ({es[u, v]})"
                     for u, v in sorted(es.keys() - want_es)]
    problems += [f"edge {u}--{v}: sign {s}, expected {want}"
                 for (u, v), s, want in sorted(wrong)]
    return problems


def join_labels(expr: Expr, joined: frozenset[str] | set[str]) -> Expr:
    """Rewrite every edge insert whose sign is in `joined` to sign alpha."""
    if not joined:
        raise ValueError("join needs at least one sign")
    check_joinable(joined)

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

def labeled_expression(program: Program, label: dict[str, int],
                       joined: frozenset[str] | set[str] = frozenset()) -> Expr:
    """Introduce every vertex of the program's signed incidence graph under
    its label and union them; insert one edge per pair of adjacent labels,
    with that pair's sign (alpha for a sign in `joined`), directly above
    the union that brings in the last vertex of the later of its two
    labels.  Each such run of edge inserts goes in (min, max) label order.

    Precondition: every two labels are joined by all of their vertex pairs
    or by none, always with one sign.  So a pair's sign is read off one
    rule per distinct label and parts: twin rules under one label cost one
    read.  The introduces are unioned left-deep, every rule before every
    atom, each group in program order: a union costs the product of its
    operands' tables, and a subexpression of rules without edges has one
    table entry, so rules unioned after the atoms would each copy the
    atoms' whole table to set one U bit.  Edges go in as early as both
    labels are complete, so a decision can forget a label once its last
    edge is in (see `tables.fold_tables`).
    """
    vertices, kinds = _incidence_vertices(program)
    if not vertices:
        raise ValueError("an empty graph has no expression")
    check_joinable(joined)
    signs = [ALPHA if s in joined else s for s in SIGNS]
    quotient: dict[tuple[int, int], str] = {}
    for j, *parts in dict.fromkeys((label[r.id], r.head, r.pos_body,
                                    r.neg_body) for r in program.rules):
        for sign, part in zip(signs, parts):
            for a in part:
                i = label[a]
                quotient[(i, j) if i < j else (j, i)] = sign
    order = sorted(vertices, key=lambda v: kinds[v] != "rule")
    # The position in `order` of each label's last vertex.
    complete = {label[v]: p for p, v in enumerate(order)}
    runs: dict[int, list[tuple[str, int, int]]] = {}
    for (i, j), sign in sorted(quotient.items()):
        runs.setdefault(max(complete[i], complete[j]), []).append((sign, i, j))
    first, *rest = order
    expr: Expr = Introduce(label[first], first, kinds[first])
    for p, v in enumerate(rest, 1):
        expr = DisjointUnion(expr, Introduce(label[v], v, kinds[v]))
        for sign, i, j in runs.get(p, ()):
            expr = EdgeInsert(sign, i, j, expr)
    return expr


def _vertex_ids(program: Program) -> tuple[str, ...]:
    return (*program.atoms, *(r.id for r in program.rules))


def trivial_expression(program: Program) -> Expr:
    """One distinct label per vertex: its position in the signed incidence
    graph's vertex order, plus one.  Width is |atoms| + |rules|; always
    validates against the program.
    """
    return labeled_expression(
        program, {v: i for i, v in enumerate(_vertex_ids(program), 1)})


def heuristic_expression(program: Program) -> Expr:
    """Best-effort low-width expression via twin merging: vertices with
    identical signed neighborhoods share one label, and classes are numbered
    in order of first appearance among the vertices.  Twin classes are
    pairwise fully adjacent with a single sign or fully non-adjacent, as
    `labeled_expression` needs.

    A rule's neighborhood is its three parts.  An atom in a part of one
    rule of a class is in that part of every rule of the class, so an
    atom's neighborhood is which parts of which rule classes hold it.  An
    atom and a rule with no neighbors share a class.
    """
    key: dict[str, tuple] = {}  # vertex -> its neighborhood, () if none
    for r in program.rules:
        parts = h, p, n = r.head, r.pos_body, r.neg_body
        key[r.id] = parts if h or p or n else ()
    # Atom -> 3 * (its rule class's position among the distinct rule
    # neighborhoods) + part, ascending.
    held: dict[str, list[int]] = {}
    for t, parts in enumerate(dict.fromkeys(key.values())):
        for k, part in enumerate(parts, 3 * t):
            for a in part:
                held.setdefault(a, []).append(k)
    for a, codes in held.items():
        key[a] = tuple(codes)
    classes: dict[tuple, int] = {}
    return labeled_expression(program, {
        v: classes.setdefault(key.get(v, ()), len(classes) + 1)
        for v in _vertex_ids(program)})


# ---------------------------------------------------------------------------
# Text form: one pattern reads any operator head of the grammar above and the
# whitespace after it; which head matched shows in the last group it sets.
# An operator with operands is read up to its first operand; the separators
# after each operand are read by _SEPARATOR.
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_LABEL = r"\s*(\d+)\s*"
_HEAD = re.compile(rf"""([ar])\s*\({_LABEL},\s*({_NAME}|\d+)\s*\)\s*  # groups 1-3
    | oplus\s*\(\s*                                         # none
    | rho\s*\({_LABEL},{_LABEL},\s*                          # groups 4-5
    | eta\s*\(\s*({_NAME})\s*,{_LABEL},{_LABEL},\s*         # groups 6-8""",
                   re.VERBOSE)
_SEPARATOR = re.compile(r"([,)])\s*")


def _syntax_error(text: str, pos: int, want: str) -> ParseError:
    found = repr(text[pos:pos + 30]) if pos < len(text) else "end of input"
    return ParseError(f"expected {want}, found {found}", *_line_col(text, pos))


def parse_expression(text: str) -> Expr:
    """Parse the text form.  A syntax error names its line and column; an
    invalid node (a repeated vertex, a bad label or sign) names those of
    its operator."""
    # Operators whose operands are still being read, innermost last, each
    # [constructor, start, operands still to read, arguments so far].
    pending: list[list] = []
    seen: set[str] = set()
    match_head, match_separator = _HEAD.match, _SEPARATOR.match
    pos = re.match(r"\s*", text).end()
    try:
        while True:
            # Where the node being built starts, for the except clause; the
            # loop that finishes an operator sets it to that operator's start.
            at = pos
            m = match_head(text, pos)
            if m is None:
                raise _syntax_error(text, pos, "an expression")
            pos = m.end()
            head = m.lastindex
            if head is None:
                pending.append([DisjointUnion, at, 2])
                continue
            if head == 5:
                pending.append([Relabel, at, 1, int(m[4]), int(m[5])])
                continue
            if head == 8:
                pending.append([EdgeInsert, at, 1, m[6], int(m[7]), int(m[8])])
                continue
            if m[3] in seen:
                raise ExpressionError(
                    f"vertex {m[3]!r} introduced more than once")
            seen.add(m[3])
            node = Introduce(int(m[2]), m[3], "atom" if m[1] == "a" else "rule")
            # A complete subexpression: hand it to the operators waiting.
            while pending:
                operator = pending[-1]
                operator.append(node)
                operator[2] -= 1
                want = "," if operator[2] else ")"
                sep = match_separator(text, pos)
                if sep is None or sep[1] != want:
                    raise _syntax_error(text, pos, repr(want))
                pos = sep.end()
                if operator[2]:
                    break
                pending.pop()
                at = operator[1]
                node = operator[0](*operator[3:])
            else:
                break
    except ExpressionError as exc:
        raise ParseError(str(exc), *_line_col(text, at)) from exc
    if pos < len(text):
        raise _syntax_error(text, pos, "end of expression")
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


def serialize_expression(expr: Expr) -> str:
    """Write the text form in one pre-order pass over a stack of nodes and
    the literal strings that go between their operands."""
    out: list[str] = []
    stack: list = [expr]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif isinstance(item, Introduce):
            out.append(op_label(item))
        elif isinstance(item, DisjointUnion):
            out.append("oplus(")
            stack += (")", item.right, ",", item.left)
        else:
            # rho(1,2) and eta(h,1,2) take their operand as a last argument.
            out.append(op_label(item)[:-1] + ",")
            stack += (")", item.child)
    return "".join(out)
