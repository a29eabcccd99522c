"""Graph representations of programs and cycle-rank based width measures.

Provides the dependency graph, the (signed) incidence graph, exact cycle-rank
and a bounded decision variant, homogeneous orientations of the incidence
graph, and DOT/JSON export.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterator

from .errors import BoundExceededError
from .program import Program

SIGNS = ("h", "p", "n")
ALPHA = "alpha"


@dataclass(frozen=True)
class Digraph:
    vertices: tuple[str, ...]
    arcs: frozenset[tuple[str, str]]

    def __post_init__(self):
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"self-loop on {u!r} rejected")
            if u not in known or v not in known:
                raise ValueError(f"arc ({u!r},{v!r}) references unknown vertex")


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


@dataclass
class SignedGraph:
    """Bipartite atom/rule graph with one sign per edge.

    Edge keys are sorted vertex pairs; kinds maps each vertex to 'atom' or
    'rule'.
    """
    vertices: tuple[str, ...]
    kinds: dict[str, str]
    edges: dict[tuple[str, str], str]

    def ugraph(self) -> UGraph:
        return UGraph(self.vertices, frozenset(frozenset(e) for e in self.edges))


@dataclass
class LabeledSignedGraph(SignedGraph):
    labels: dict[str, int] = field(default_factory=dict)


def edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


# ---------------------------------------------------------------------------
# Graphs of a program
# ---------------------------------------------------------------------------

def build_dependency_graph(program: Program) -> Digraph:
    """Digraph on atoms: head -> body arcs plus arcs between co-head atoms."""
    arcs = set()
    for r in program.rules:
        for x in r.head:
            for y in r.pos_body | r.neg_body:
                arcs.add((x, y))
            for y in r.head:
                if x != y:
                    arcs.add((x, y))
    return Digraph(program.atoms, frozenset(arcs))


def _incidence_vertices(program: Program) -> tuple[tuple[str, ...], dict[str, str]]:
    rule_ids = tuple(r.id for r in program.rules)
    clash = set(program.atoms) & set(rule_ids)
    if clash:
        raise ValueError(
            f"atom names and rule ids must be disjoint for incidence graphs; "
            f"clash on {sorted(clash)}")
    kinds = {a: "atom" for a in program.atoms}
    kinds.update({r: "rule" for r in rule_ids})
    return program.atoms + rule_ids, kinds


def build_signed_incidence_graph(program: Program) -> SignedGraph:
    vertices, kinds = _incidence_vertices(program)
    edges = {}
    for r in program.rules:
        for sign, part in zip(SIGNS, (r.head, r.pos_body, r.neg_body)):
            for a in part:
                edges[edge_key(a, r.id)] = sign
    return SignedGraph(vertices, kinds, edges)


def build_incidence_graph(program: Program) -> UGraph:
    return build_signed_incidence_graph(program).ugraph()


def join_graph_signs(graph: SignedGraph, joined: frozenset[str] | set[str]) -> SignedGraph:
    edges = {e: (ALPHA if s in joined else s) for e, s in graph.edges.items()}
    return SignedGraph(graph.vertices, dict(graph.kinds), edges)


# ---------------------------------------------------------------------------
# Closures and cycle-rank
# ---------------------------------------------------------------------------

def symmetric_closure(d: Digraph) -> Digraph:
    arcs = set(d.arcs)
    arcs.update((v, u) for u, v in d.arcs)
    return Digraph(d.vertices, frozenset(arcs))


def underlying_undirected(d: Digraph) -> UGraph:
    return UGraph(d.vertices, frozenset(frozenset((u, v)) for u, v in d.arcs))


def _adjacency_masks(d: Digraph) -> tuple[list[int], list[int]]:
    """Successor and predecessor bitmasks of each vertex."""
    index = {v: i for i, v in enumerate(d.vertices)}
    succ = [0] * len(d.vertices)
    pred = [0] * len(d.vertices)
    for u, v in d.arcs:
        succ[index[u]] |= 1 << index[v]
        pred[index[v]] |= 1 << index[u]
    return succ, pred


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(adj: list[int], start: int, mask: int) -> int:
    """The vertices of mask reachable from the vertex bitmask start."""
    seen = frontier = start
    while frontier:
        step = 0
        for v in _bits(frontier):
            step |= adj[v]
        frontier = step & mask & ~seen
        seen |= frontier
    return seen


def _scc_masks(adj: tuple[list[int], list[int]], mask: int) -> list[int]:
    """Strongly connected components of the sub-digraph induced by mask,
    as vertex bitmasks, by lowest vertex: the component of a vertex is what
    it reaches that also reaches it."""
    succ, pred = adj
    sccs = []
    while mask:
        low = mask & -mask
        comp = _reach(pred, low, _reach(succ, low, mask))
        sccs.append(comp)
        mask &= ~comp
    return sccs


def cycle_rank(d: Digraph, max_vertices: int = 16) -> int:
    """Exact cycle-rank: 0 on DAGs, 1 + best single-vertex deletion on
    strongly connected digraphs, component maximum otherwise.

    Memoized over vertex bitmasks; deletions are tried in ascending vertex
    order for reproducible traces.
    """
    if len(d.vertices) > max_vertices:
        raise BoundExceededError(
            f"{len(d.vertices)} vertices exceeds exact-search bound {max_vertices}")
    adj = _adjacency_masks(d)
    memo: dict[int, int] = {}

    def rank(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        nontrivial = [s for s in _scc_masks(adj, mask) if s & (s - 1)]
        if not nontrivial:
            result = 0
        elif len(nontrivial) == 1 and nontrivial[0] == mask:
            result = 1 + min(rank(mask & ~(1 << v)) for v in _bits(mask))
        else:
            result = max(rank(s) for s in nontrivial)
        memo[mask] = result
        return result

    return rank((1 << len(d.vertices)) - 1)


def undirected_cycle_rank(d: Digraph, max_vertices: int = 16) -> int:
    return cycle_rank(symmetric_closure(d), max_vertices)


def is_cycle_rank_at_most(d: Digraph, width: int) -> bool:
    """Branch-and-bound variant of cycle_rank with no vertex-count bound."""
    adj = _adjacency_masks(d)
    memo: dict[tuple[int, int], bool] = {}

    def at_most(mask: int, w: int) -> bool:
        key = (mask, w)
        if key in memo:
            return memo[key]
        nontrivial = [s for s in _scc_masks(adj, mask) if s & (s - 1)]
        if not nontrivial:
            result = True
        elif w <= 0:
            result = False
        else:
            result = all(
                any(at_most(s & ~(1 << v), w - 1) for v in _bits(s))
                for s in nontrivial)
        memo[key] = result
        return result

    if width < 0:
        return False
    return at_most((1 << len(d.vertices)) - 1, width)


# ---------------------------------------------------------------------------
# Homogeneous orientations
# ---------------------------------------------------------------------------

def homogeneous_orientations(program: Program,
                             max_groups: int = 14,
                             samples: int = 64,
                             seed: int = 0) -> Iterator[Digraph]:
    """Orientations of the incidence graph where all edges sharing one
    (rule, sign) group point the same way.

    Enumerates all 2^groups assignments when groups <= max_groups, otherwise
    yields seeded random samples.
    """
    sinc = build_signed_incidence_graph(program)
    groups: dict[tuple[str, str], list[str]] = {}
    for r in program.rules:
        for sign, part in zip(SIGNS, (r.head, r.pos_body, r.neg_body)):
            if part:
                groups[(r.id, sign)] = sorted(part)
    ordered = sorted(groups)
    g = len(ordered)

    def orient(assignment: int) -> Digraph:
        arcs = set()
        for bit, key in enumerate(ordered):
            rule_id = key[0]
            for atom in groups[key]:
                if assignment >> bit & 1:
                    arcs.add((rule_id, atom))
                else:
                    arcs.add((atom, rule_id))
        return Digraph(sinc.vertices, frozenset(arcs))

    if g <= max_groups:
        for assignment in range(1 << g):
            yield orient(assignment)
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            yield orient(rng.getrandbits(g))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def to_dot(graph: Digraph | UGraph | SignedGraph) -> str:
    lines = []
    if isinstance(graph, Digraph):
        lines.append("digraph {")
        for v in graph.vertices:
            lines.append(f'  "{v}";')
        for u, v in sorted(graph.arcs):
            lines.append(f'  "{u}" -> "{v}";')
    elif isinstance(graph, SignedGraph):
        lines.append("graph {")
        for v in graph.vertices:
            lines.append(f'  "{v}" [kind={graph.kinds[v]}];')
        for (u, v), s in sorted(graph.edges.items()):
            lines.append(f'  "{u}" -- "{v}" [sign={s}];')
    else:
        lines.append("graph {")
        for v in graph.vertices:
            lines.append(f'  "{v}";')
        for e in sorted(tuple(sorted(e)) for e in graph.edges):
            lines.append(f'  "{e[0]}" -- "{e[1]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_to_json(d: Digraph) -> str:
    return json.dumps({"vertices": list(d.vertices),
                       "arcs": sorted(list(a) for a in d.arcs)}, indent=2)


def digraph_from_json(text: str) -> Digraph:
    data = json.loads(text)
    return Digraph(tuple(data["vertices"]),
                   frozenset((u, v) for u, v in data["arcs"]))


def signed_graph_to_json(g: SignedGraph) -> str:
    return json.dumps({
        "vertices": list(g.vertices),
        "kinds": g.kinds,
        "edges": sorted([u, v, s] for (u, v), s in g.edges.items()),
    }, indent=2)
