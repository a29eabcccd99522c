"""Shared fixtures: the two-rule running example, its 3-expression, and the
small exists-forall formula used by the reduction tests; the trace
tests' sweep of programs and the expression `solve` builds for each; the
unsigned incidence graph the graph, generator and acceptance tests
compare against; triples built from label sets, packed entries, the root
check on a full packed root table of either solver and the nodes the
fold reports; traces with each table unpacked at its event, a trace sink
that keeps only each node's size, and the trace file as it was written
from those public entries; the brute-force triples of an interpretation
that the oracle and acceptance tests compare the DP tables against;
whole-graph references for `parse_program` (on a greedy copy of its rule
pattern), `heuristic_expression` and `validate_against`, which read each
program edge once or a few times; the post-order of a fold that pushes
marker tuples on one stack, and an expression parser that tries one
pattern per operator head; the oracle over frozensets, one built per
subset and each rule checked with set algebra; and the brute-force QBF
validity and partitioned-clique checks, over dict assignments and vertex
tuples, that the bitmask deciders in `aspcw.generators` are swept
against."""

import itertools
import json
import re
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Mapping

import pytest

from aspcw.errors import (BoundExceededError, ExpressionError,
                          NormalizationError, ParseError)
from aspcw.expression import (DisjointUnion, EdgeInsert, Introduce, Relabel,
                              evaluate, fold, heuristic_expression,
                              labeled_expression, op_label, parse_expression,
                              serialize_expression, trivial_expression)
from aspcw.generators import (KPartiteGraph, Literal, QbfEA,
                              gen_random_program, gen_random_qbf,
                              reduce_qbf_to_asp)
from aspcw.graphs import ALPHA, bits, build_signed_incidence_graph
from aspcw.oracle import DEFAULT_ENUMERATION_BOUND
from aspcw.program import (_COMMENT, Program, Rule, _line_col, is_model,
                           is_model_of_rule, parse_program, reduct,
                           serialize_program)
from aspcw.tables import KPair, KTriple, TableOps, fold_tables, unpack

EXAMPLE1_TEXT = "x :- not y.\n:- x, not y.\n"

FIG2_TEXT = ("eta(n,3,2, oplus( rho(3,2, eta(p,1,3, oplus( eta(h,1,2, "
             "oplus(a(1,x), r(2,r1)) ), r(3,r2)) )), a(3,y) ))")

# Root labeling of the 3-expression above.
EXAMPLE1_LABELING = {"x": 1, "r1": 2, "r2": 2, "y": 3}

# Programs with expressions that insert their edges rule label first, as
# (program text, expression text).  An edge insert is undirected, so both
# validate; `a` is an answer set of the first and the empty set one of the
# second.
RULE_FIRST = [
    ("a.\n", "eta(h,1,2,oplus(r(1,r1),a(2,a)))"),
    ("a1 :- a0.\na0 :- a1.\n",
     "eta(h,1,3,eta(p,1,4,eta(h,2,4,eta(p,2,3,oplus(oplus(r(1,r1),r(2,r2)),"
     "oplus(a(3,a1),a(4,a0)))))))"),
]

# The tables the classical decision builds on the 3-expression above, as
# (index, op, size) in post-order.  The unions at 3, 6 and 10 lie directly
# under edge inserts, so their joins are the runs' and they build none.
FIG2_MODEL_EVENTS = [
    (1, "a(1,x)", 2), (2, "r(2,r1)", 1), (4, "eta(h,1,2)", 2),
    (5, "r(3,r2)", 1), (7, "eta(p,1,3)", 2), (8, "rho(3,2)", 1),
    (9, "a(3,y)", 2), (11, "eta(n,3,2)", 1)]


# The trace tests' sweep: random programs of 1-10 atoms, QBF(2,2)
# reductions, QBF(1,2) reductions without an answer set and a 4-atom,
# 400-rule program.
TRACE_SWEEP = (
    [serialize_program(gen_random_program(atoms, 1 + (atoms + seed) % 6,
                                          (0.2, 0.2, 0.2), seed))
     for atoms in range(1, 11) for seed in (0, 1)]
    + [serialize_program(reduce_qbf_to_asp(gen_random_qbf(2, 2, terms, seed)))
       for terms in (3, 4, 5) for seed in (1, 2, 3)]
    # Seeds 1 and 3 give invalid formulas: negative decisions.
    + [serialize_program(reduce_qbf_to_asp(gen_random_qbf(1, 2, 2, seed)))
       for seed in (1, 3)]
    + [serialize_program(gen_random_program(4, 400, (0.2, 0.2, 0.2), 0))])


def built(text: str, build: str):
    """The expression `solve` gets with --auto-expr `build`, or, for
    "expr", from a file holding the trivial expression, with that text."""
    program = parse_program(text)
    if build == "heuristic":
        return heuristic_expression(program), None
    expr = trivial_expression(program)
    if build == "trivial":
        return expr, None
    expr_text = serialize_expression(expr) + "\n"
    return parse_expression(expr_text), expr_text


def random_instance(seed: int) -> Program:
    """Program `seed` of the criterion 3-5 sweeps: 1-5 atoms and 1-5
    rules."""
    num_atoms = seed % 5 + 1
    num_rules = (seed * 7 + 3) % 5 + 1
    probs = [(0.2, 0.2, 0.2), (0.3, 0.3, 0.3), (0.15, 0.35, 0.25)][seed % 3]
    return gen_random_program(num_atoms, num_rules, probs, seed)


def label_mask(labels: Iterable[int]) -> int:
    mask = 0
    for l in labels:
        if l < 1:
            raise ValueError(f"labels are positive integers, got {l}")
        mask |= 1 << (l - 1)
    return mask


def triple(ts: Iterable[int], fs: Iterable[int], us: Iterable[int]) -> KTriple:
    return KTriple(label_mask(ts), label_mask(fs), label_mask(us))


def pack(q: KTriple, w: int) -> int:
    return q.t | q.f << w | q.u << 2 * w


def accepts(table: set, u: int) -> bool:
    """The root check on a packed pair table whose U bits are `u`: some
    pair (Q, Gamma) has an empty U, and no member of Gamma has one."""
    return any(not q & u and all(s & u for s in g) for q, g in table)


def full_root_accepts(expr, ops: TableOps) -> bool:
    """The root check on the root table of the fold that keeps every
    label."""
    root = fold_tables(expr, ops)
    return accepts(root.table, ((1 << root.w) - 1) << 2 * root.w)


def table_nodes(expr, fused: bool) -> list[tuple[int, str]]:
    """The (index, op) of each table the fold builds: every node in
    post-order but an edge insert below the top of its run, and with
    `fused` (the decision's fold) but a union directly under an edge insert
    too."""
    nodes = []
    fold(expr, lambda node, *_: nodes.append(node))
    skipped = (EdgeInsert, DisjointUnion) if fused else EdgeInsert
    return [(index, op_label(node)) for index, node in enumerate(nodes, 1)
            if not (isinstance(node, skipped) and index < len(nodes)
                    and isinstance(nodes[index], EdgeInsert))]


def eager_trace(expr, ops: TableOps, forget: bool,
                field: str) -> list[tuple]:
    """The fold's trace as (index, op, table), each table unpacked at its
    event into the public entries `field` names: KPairs for "pairs", the
    KTriples of the pairs' Qs for "triples"."""
    def public(entry, w, names):
        q, g = entry
        if field == "triples":
            return unpack(q, w, names)
        return KPair(unpack(q, w, names),
                     frozenset(unpack(s, w, names) for s in g))

    trace = []

    class Unpacking:
        def append(self, node):
            trace.append((node.index, node.op, frozenset(
                public(e, node.w, node.names) for e in node.table)))

    fold_tables(expr, ops, Unpacking(), forget)
    return trace


class NodeEvents(list):
    """A trace sink that keeps each node's (index, op, table size) and
    lets its table go."""

    def append(self, node):
        super().append((node.index, node.op, len(node.table)))


def _triple_json(t):
    # `bits` yields the lowest bit first, so each label list comes out sorted.
    return [[b + 1 for b in bits(mask)] for mask in t]


def _pair_json(p):
    return {"q": _triple_json(p.q),
            "gamma": [_triple_json(s) for s in sorted(p.gamma)]}


def reference_trace_json(trace: list[tuple], field: str) -> str:
    """The trace file written from public entries, (index, op, table) per
    node: each table's entries sorted (pairs by Q, then by their sorted
    Gamma) as nested lists, and `json.dumps` with sorted keys."""
    if field == "triples":
        entry_json, order = _triple_json, None
    else:
        entry_json, order = _pair_json, lambda p: (p.q, sorted(p.gamma))
    nodes = [{"index": index, "op": op,
              field: [entry_json(e) for e in sorted(table, key=order)]}
             for index, op, table in trace]
    return json.dumps({"nodes": nodes}, sort_keys=True)


@dataclass(frozen=True)
class UGraph:
    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self):
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {set(e)} is not a two-element set")
            if not e <= known:
                raise ValueError(f"edge {set(e)} references unknown vertex")


def build_incidence_graph(program: Program) -> UGraph:
    sinc = build_signed_incidence_graph(program)
    return UGraph(sinc.vertices, frozenset(frozenset(e) for e in sinc.edges))


def interpretation_triple(program: Program, labeling: Mapping[str, int],
                          interp: frozenset[str] | set[str]) -> KTriple:
    """The unique triple whose components are the labels of true atoms,
    false atoms, and rules not satisfied by the interpretation."""
    try:
        return triple(
            (labeling[a] for a in interp),
            (labeling[a] for a in program.atoms if a not in interp),
            (labeling[r.id] for r in program.rules
             if not is_model_of_rule(r, frozenset(interp))),
        )
    except KeyError as exc:
        raise KeyError(f"unlabeled vertex {exc.args[0]!r}") from None


def reduct_interpretation_triple(program: Program, labeling: Mapping[str, int],
                                 interp: frozenset[str] | set[str],
                                 sub: frozenset[str] | set[str]) -> KTriple:
    """Triple of `sub` evaluated against the reduct w.r.t. `interp`: the U
    component collects rules that survive the reduct and are unsatisfied by
    `sub`."""
    interp = frozenset(interp)
    sub = frozenset(sub)

    def survives_unsatisfied(r: Rule) -> bool:
        if r.neg_body & interp:
            return False
        stripped = Rule(r.id, r.head, r.pos_body, frozenset())
        return not is_model_of_rule(stripped, sub)

    try:
        return triple(
            (labeling[a] for a in sub),
            (labeling[a] for a in program.atoms if a not in sub),
            (labeling[r.id] for r in program.rules if survives_unsatisfied(r)),
        )
    except KeyError as exc:
        raise KeyError(f"unlabeled vertex {exc.args[0]!r}") from None


# The rule grammar with greedy quantifiers only, written out here rather
# than imported, so that the parser's pattern is checked against it and not
# against itself.
_REF_ID = r"[a-z][A-Za-z0-9_]*"
_REF_ATOM = rf"(?!not\b){_REF_ID}"
_REF_LITERAL = rf"(?:not\s+)?{_REF_ATOM}"
_REF_RULE = re.compile(rf"""(?:@\s*(?P<id>{_REF_ID})\s*:(?!-)\s*)?
    (?P<head>{_REF_ATOM}\s*(?:\|\s*{_REF_ATOM}\s*)*)?
    (?::-\s*(?P<body>{_REF_LITERAL}\s*(?:,\s*{_REF_LITERAL}\s*)*))?\.\s*""",
                       re.VERBOSE)


def reference_parse(text: str) -> Program:
    """`parse_program` with the greedy rule pattern above, splitting each
    body literal into its words, and naming the unnamed rules in a second
    pass over the rules read."""
    text = _COMMENT.sub("", text)
    atoms: dict[str, None] = {}
    rules: list[tuple] = []
    pos = re.match(r"\s*", text).end()
    while pos < len(text):
        m = _REF_RULE.match(text, pos)
        if m is None:
            end = text.find(".", pos)
            rule = text[pos:] if end < 0 else text[pos:end + 1]
            raise ParseError(f"malformed rule {rule[:60]!r}", *_line_col(text, pos))
        rule_id = m["id"]
        if rule_id is not None and any(rule_id == r[0] for r in rules):
            raise ParseError(f"duplicate rule id {rule_id!r}", *_line_col(text, pos))
        head = m["head"].replace("|", " ").split() if m["head"] else []
        body = [lit.split() for lit in m["body"].split(",")] if m["body"] else []
        atoms.update(dict.fromkeys(head))
        atoms.update(dict.fromkeys(lit[-1] for lit in body))
        hs = frozenset(head)
        ps = frozenset(lit[0] for lit in body if len(lit) == 1)
        ns = frozenset(lit[1] for lit in body if len(lit) == 2)
        overlap = (hs & ps) | (hs & ns) | (ps & ns)
        if overlap:
            raise NormalizationError(
                f"rule {rule_id or f'r{len(rules) + 1}'} (line "
                f"{_line_col(text, pos)[0]}): atoms {sorted(overlap)} occur "
                f"in more than one part")
        rules.append((rule_id, pos, hs, ps, ns))
        pos = m.end()
    for rule_id, start, *_ in rules:
        if rule_id in atoms:
            raise ParseError(f"rule id {rule_id!r} is also an atom name",
                             *_line_col(text, start))
    taken = set(atoms) | {r[0] for r in rules}
    last = len(rules)
    named = []
    for k, (rule_id, _, hs, ps, ns) in enumerate(rules, 1):
        if rule_id is None:
            rule_id = f"r{k}"
            while rule_id in taken:
                last += 1
                rule_id = f"r{last}"
        named.append(Rule(rule_id, hs, ps, ns))
    return Program(tuple(atoms), tuple(named))


def reference_heuristic(program: Program):
    """`heuristic_expression` with twin classes keyed by each vertex's
    signed neighborhood in the incidence graph."""
    sinc = build_signed_incidence_graph(program)
    adj: dict[str, dict[str, str]] = {v: {} for v in sinc.vertices}
    for (u, v), s in sinc.edges.items():
        adj[u][v] = s
        adj[v][u] = s
    classes: dict[frozenset, int] = {}
    label = {v: classes.setdefault(frozenset(adj[v].items()), len(classes) + 1)
             for v in sinc.vertices}
    return labeled_expression(program, label)


def reference_validate(expr, program: Program,
                       joined: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """`validate_against` by set differences between the evaluated graph
    and the program's whole incidence graph."""
    got = evaluate(expr)
    want = build_signed_incidence_graph(program)
    vs, want_vs = got.kinds, want.kinds
    es = got.edges
    want_es = {e: ALPHA if s in joined else s for e, s in want.edges.items()}
    problems = [f"missing vertex {v}" for v in sorted(want_vs.keys() - vs.keys())]
    problems += [f"extra vertex {v}" for v in sorted(vs.keys() - want_vs.keys())]
    problems += [f"vertex {v}: kind {k}, expected {want_vs[v]}"
                 for v, k in sorted(vs.items() - want_vs.items()) if v in want_vs]
    problems += [f"missing edge {u}--{v} ({want_es[u, v]})"
                 for u, v in sorted(want_es.keys() - es.keys())]
    changed = sorted(es.items() - want_es.items())
    problems += [f"extra edge {u}--{v} ({s})"
                 for (u, v), s in changed if (u, v) not in want_es]
    problems += [f"edge {u}--{v}: sign {s}, expected {want_es[u, v]}"
                 for (u, v), s in changed if (u, v) in want_es]
    return problems


def reference_postorder(expr) -> list:
    """The nodes in the order a post-order fold visits them: one stack of
    nodes to expand and of (node,) markers for nodes whose operands are
    done."""
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            out.append(node[0])
        elif isinstance(node, Introduce):
            out.append(node)
        elif isinstance(node, DisjointUnion):
            stack += ((node,), node.right, node.left)
        else:
            stack += ((node,), node.child)
    return out


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_LABEL = r"\s*(\d+)\s*"
_INTRODUCE = re.compile(rf"([ar])\s*\({_LABEL},\s*({_NAME}|\d+)\s*\)\s*")
_UNION = re.compile(r"oplus\s*\(\s*")
_RELABEL = re.compile(rf"rho\s*\({_LABEL},{_LABEL},\s*")
_EDGE = re.compile(rf"eta\s*\(\s*({_NAME})\s*,{_LABEL},{_LABEL},\s*")
_SEPARATOR = re.compile(r"([,)])\s*")


def _syntax_error(text: str, pos: int, want: str) -> ParseError:
    found = repr(text[pos:pos + 30]) if pos < len(text) else "end of input"
    return ParseError(f"expected {want}, found {found}", *_line_col(text, pos))


def reference_parse_expression(text: str):
    """`parse_expression` trying one pattern per operator head in turn, and
    keeping each open operator as a constructor with its arguments bound."""
    pending = []  # (constructor, operand count, operands read, start)
    seen: set[str] = set()
    pos = re.match(r"\s*", text).end()
    try:
        while True:
            at = pos
            if m := _INTRODUCE.match(text, pos):
                if m[3] in seen:
                    raise ExpressionError(
                        f"vertex {m[3]!r} introduced more than once")
                seen.add(m[3])
                node = Introduce(int(m[2]), m[3], "atom" if m[1] == "a" else "rule")
            elif m := _UNION.match(text, pos):
                pending.append((DisjointUnion, 2, [], at))
            elif m := _RELABEL.match(text, pos):
                pending.append((partial(Relabel, int(m[1]), int(m[2])), 1, [], at))
            elif m := _EDGE.match(text, pos):
                pending.append((partial(EdgeInsert, m[1], int(m[2]), int(m[3])),
                                1, [], at))
            else:
                raise _syntax_error(text, pos, "an expression")
            pos = m.end()
            if m.re is not _INTRODUCE:
                continue
            while pending:
                make, arity, operands, at = pending[-1]
                operands.append(node)
                want = "," if len(operands) < arity else ")"
                sep = _SEPARATOR.match(text, pos)
                if sep is None or sep[1] != want:
                    raise _syntax_error(text, pos, repr(want))
                pos = sep.end()
                if want == ",":
                    break
                pending.pop()
                node = make(*operands)
            else:
                break
    except ExpressionError as exc:
        raise ParseError(str(exc), *_line_col(text, at)) from exc
    if pos < len(text):
        raise _syntax_error(text, pos, "end of expression")
    return node


def _subsets(atoms: tuple[str, ...]) -> Iterator[frozenset[str]]:
    # Binary counting with the first atom as the least significant bit;
    # fixed so outputs are deterministic and diffable.
    n = len(atoms)
    for m in range(1 << n):
        yield frozenset(atoms[i] for i in range(n) if m >> i & 1)


def _check_bound(program: Program, bound: int) -> None:
    if len(program.atoms) > bound:
        raise BoundExceededError(
            f"{len(program.atoms)} atoms exceeds enumeration bound {bound}")


def reference_enumerate_models(
        program: Program,
        bound: int = DEFAULT_ENUMERATION_BOUND) -> list[frozenset[str]]:
    _check_bound(program, bound)
    return [i for i in _subsets(program.atoms) if is_model(program, i)]


def reference_is_answer_set(program: Program,
                            candidate: frozenset[str] | set[str]) -> bool:
    """Model of the program with no proper subset modeling the reduct.

    The minimality check enumerates proper subsets directly, with no pruning.
    """
    candidate = frozenset(candidate)
    if not is_model(program, candidate):
        return False
    red = reduct(program, candidate)
    ordered = tuple(sorted(candidate))
    for sub in _subsets(ordered):
        if sub != candidate and is_model(red, sub):
            return False
    return True


def reference_enumerate_answer_sets(
        program: Program,
        bound: int = DEFAULT_ENUMERATION_BOUND) -> list[frozenset[str]]:
    _check_bound(program, bound)
    return [m for m in reference_enumerate_models(program, bound)
            if reference_is_answer_set(program, m)]


def reference_qbf_is_valid(phi: QbfEA, bound: int = 20) -> bool:
    """Brute force: some x-assignment makes the disjunction true under all
    y-assignments."""
    n, m = len(phi.existential), len(phi.universal)
    if n + m > bound:
        raise BoundExceededError(
            f"{n + m} variables exceeds enumeration bound {bound}")

    def term_true(term, assignment) -> bool:
        return all(assignment[l.var] != l.negated for l in term)

    for xs in itertools.product((False, True), repeat=n):
        assignment = dict(zip(phi.existential, xs))
        for ys in itertools.product((False, True), repeat=m):
            assignment.update(zip(phi.universal, ys))
            if not any(term_true(t, assignment) for t in phi.terms):
                break
        else:
            return True
    return False


def reference_has_partitioned_clique(g: KPartiteGraph,
                                     bound: int = 10 ** 6) -> bool:
    """Try all one-vertex-per-part selections for pairwise adjacency."""
    if g.parts and len(g.parts[0]) ** len(g.parts) > bound:
        raise BoundExceededError("selection space exceeds brute-force bound")
    for pick in itertools.product(*g.parts):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(pick, 2)):
            return True
    return False


@pytest.fixture
def example1():
    return parse_program(EXAMPLE1_TEXT)


@pytest.fixture
def fig2():
    return parse_expression(FIG2_TEXT)


@pytest.fixture
def ea_formula():
    """exists x1 x2 forall y1 y2 ((x1 and not y2) or (not x2 and y2))."""
    return QbfEA(
        ("x1", "x2"), ("y1", "y2"),
        ((Literal("x1", False), Literal("y2", True)),
         (Literal("x2", True), Literal("y2", False))))
