"""Graph representations of programs and cycle-rank based width measures.

Provides the dependency graph, the signed incidence graph, exact cycle-rank
and a bounded decision variant, homogeneous orientations of the incidence
graph, and a JSON reader for digraphs. A program has a signed incidence
graph when its vertex ids are distinct, no rule id names an atom, and each
rule's three parts are disjoint and name only listed atoms; every entry
point that reads the graph checks this with `_incidence_vertices`. A
Digraph is its successor and predecessor bitmasks by vertex position;
Digraph.from_arcs builds one from named arcs and checks them, and its arcs
are read back from the masks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from operator import xor
from typing import Iterable, Iterator

from .errors import BoundExceededError
from .program import AtomSet, Program

SIGNS = ("h", "p", "n")
ALPHA = "alpha"


def bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Digraph:
    """Bit j of succ[i] is the arc vertices[i] -> vertices[j]; pred is its
    transpose, so equality and hash leave it out."""
    vertices: tuple[str, ...]
    succ: tuple[int, ...]
    pred: tuple[int, ...] = field(compare=False)

    @classmethod
    def from_arcs(cls, vertices: Iterable[str],
                  arcs: Iterable[tuple[str, str]]) -> Digraph:
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertex ids")
        succ = [0] * len(vertices)
        pred = [0] * len(vertices)
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-loop on {u!r} rejected")
            if u not in index or v not in index:
                raise ValueError(f"arc ({u!r},{v!r}) references unknown vertex")
            i, j = index[u], index[v]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
        return cls(vertices, tuple(succ), tuple(pred))

    @property
    def arcs(self) -> frozenset[tuple[str, str]]:
        vs = self.vertices
        return frozenset((vs[i], vs[j])
                         for i, out in enumerate(self.succ) for j in bits(out))


@dataclass
class SignedGraph:
    """Bipartite atom/rule graph with one sign per edge.

    Edge keys are sorted vertex pairs; kinds maps each vertex to 'atom' or
    'rule'.
    """
    vertices: tuple[str, ...]
    kinds: dict[str, str]
    edges: dict[tuple[str, str], str]


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
    return Digraph.from_arcs(program.atoms, arcs)


def _incidence_vertices(program: Program) -> tuple[tuple[str, ...], dict[str, str]]:
    """The signed incidence graph's vertices and their kinds.  The one check
    that the program has that graph (see above): raises ValueError if not.
    Besides the result it builds a set of the atoms and one of the distinct
    rule part triples, each checked once; the checks are `isdisjoint` and
    `<=`, which allocate nothing.  Twin rules of a parsed program share
    their parts, so they hit the second set by identity."""
    known = frozenset(program.atoms)
    rule_ids = tuple(r.id for r in program.rules)
    if not known.isdisjoint(rule_ids):
        raise ValueError(
            f"atom names and rule ids must be disjoint for incidence graphs; "
            f"clash on {sorted(known.intersection(rule_ids))}")
    kinds = dict.fromkeys(program.atoms, "atom")
    kinds.update(dict.fromkeys(rule_ids, "rule"))
    if len(kinds) != len(program.atoms) + len(rule_ids):
        raise ValueError("duplicate vertex ids")
    checked: set[tuple[AtomSet, AtomSet, AtomSet]] = set()
    for r in program.rules:
        parts = h, p, n = r.head, r.pos_body, r.neg_body
        if parts in checked:
            continue
        checked.add(parts)
        if not (h.isdisjoint(p) and h.isdisjoint(n) and p.isdisjoint(n)):
            raise ValueError(f"rule {r.id!r} names atoms "
                             f"{sorted(h & p | h & n | p & n)} in two parts")
        if not (h <= known and p <= known and n <= known):
            raise ValueError(f"rule {r.id!r} names unknown vertex "
                             f"{min(a for a in h | p | n if a not in known)!r}")
    return program.atoms + rule_ids, kinds


def edge_groups(program: Program) -> Iterator[tuple[str, str, AtomSet]]:
    """The signed incidence graph's edges as (rule id, sign, atoms), one
    group per nonempty rule part, in program order.  On a program that
    `_incidence_vertices` accepts, each edge is in exactly one group."""
    for r in program.rules:
        for sign, part in zip(SIGNS, (r.head, r.pos_body, r.neg_body)):
            if part:
                yield r.id, sign, part


def build_signed_incidence_graph(program: Program) -> SignedGraph:
    vertices, kinds = _incidence_vertices(program)
    edges = {}
    for rule, sign, part in edge_groups(program):
        for a in part:
            edges[(a, rule) if a <= rule else (rule, a)] = sign
    return SignedGraph(vertices, kinds, edges)


def check_joinable(joined: frozenset[str] | set[str]) -> None:
    bad = set(joined) - set(SIGNS)
    if bad:
        raise ValueError(f"cannot join non-signs {sorted(bad)}")


# ---------------------------------------------------------------------------
# Closures and cycle-rank
# ---------------------------------------------------------------------------

def symmetric_closure(d: Digraph) -> Digraph:
    both = tuple(out | into for out, into in zip(d.succ, d.pred))
    return Digraph(d.vertices, both, both)


def _reach(adj: tuple[int, ...], start: int, mask: int) -> int:
    """The vertices of mask reachable from the vertex bitmask start."""
    seen = frontier = start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & mask & ~seen
        seen |= frontier
    return seen


def _trim(d: Digraph, mask: int, queue: int) -> int:
    """What is left of mask once every vertex with no successor or no
    predecessor left is deleted, again until none is: such a vertex lies
    on no cycle. The trim starts from the vertices of queue; a caller may
    pass fewer than mask when every other vertex of mask keeps a successor
    and a predecessor in it."""
    succ, pred = d.succ, d.pred
    while queue:
        low = queue & -queue
        queue ^= low
        v = low.bit_length() - 1
        if mask & low and not (succ[v] & mask and pred[v] & mask):
            mask ^= low
            queue |= (succ[v] | pred[v]) & mask
    return mask


def _cyclic_components(d: Digraph, mask: int,
                       queue: int | None = None) -> list[int]:
    """Strongly connected components of two or more vertices in the
    sub-digraph induced by mask, as vertex bitmasks, by lowest vertex.

    Mask is trimmed first (see `_trim`), from queue, all of mask by
    default. What remains is split by reachability: the component of a
    vertex is what it reaches that also reaches it.
    """
    mask = _trim(d, mask, mask if queue is None else queue)
    succ, pred = d.succ, d.pred
    components = []
    while mask:
        low = mask & -mask
        comp = _reach(pred, low, _reach(succ, low, mask))
        if comp != low:
            components.append(comp)
        mask ^= comp
    return components


def cycle_rank(d: Digraph, max_vertices: int = 16) -> int:
    """Exact cycle-rank: 0 on DAGs, 1 + best single-vertex deletion on
    strongly connected digraphs, component maximum otherwise.

    Memoized over vertex bitmasks. The minimum covers every deletion, so
    their order does not matter.
    """
    if len(d.vertices) > max_vertices:
        raise BoundExceededError(
            f"{len(d.vertices)} vertices exceeds exact-search bound {max_vertices}")
    memo: dict[int, int] = {}

    def rank(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        cyclic = _cyclic_components(d, mask)
        if not cyclic:
            result = 0
        elif len(cyclic) == 1 and cyclic[0] == mask:
            result = 1 + min(rank(mask & ~(1 << v)) for v in bits(mask))
        else:
            result = max(rank(s) for s in cyclic)
        memo[mask] = result
        return result

    return rank((1 << len(d.vertices)) - 1)


def undirected_cycle_rank(d: Digraph, max_vertices: int = 16) -> int:
    return cycle_rank(symmetric_closure(d), max_vertices)


def _one_cut(d: Digraph, s: int) -> bool:
    """Whether deleting one vertex leaves s acyclic, where every vertex of
    s keeps a successor and a predecessor in s (a trimmed core, or one of
    its components).

    Such a vertex lies on every cycle of s, so it lies in every cyclic
    component left after any other deletion: only the intersection of
    those components stays a candidate. After a deletion only the deleted
    vertex's neighbours need the trim's first check."""
    succ, pred = d.succ, d.pred
    candidates = s
    while candidates:
        low = candidates & -candidates
        v = low.bit_length() - 1
        rest = _cyclic_components(d, s ^ low, (succ[v] | pred[v]) & s)
        if not rest:
            return True
        for comp in rest:
            candidates &= comp
    return False


def is_cycle_rank_at_most(d: Digraph, width: int) -> bool:
    """Branch-and-bound variant of cycle_rank with no vertex-count bound.

    The vertices with both a successor and a predecessor are trimmed to
    the core, the part that may lie on a cycle (see `_trim`); an empty
    core has cycle rank 0. At width 1 the whole core is first tried for
    one vertex on all of its cycles (see `_one_cut`), which needs no
    split into components; only if there is none is the core split, and
    each component, if there are two or more, is tried on its own. This
    path keeps no search state.

    From width 2 the search is memoised over (vertex set, width) and runs
    on each component of the core. With two or more deletions left, a
    component tries its vertices by descending (successors in it) x
    (predecessors in it), ties lowest first: a vertex on many cycles is
    likelier to cut them. With one deletion left, a component is tried as
    at width 1."""
    if width < 0:
        return False
    succ, pred = d.succ, d.pred
    live = 0
    for v, out in enumerate(succ):
        if out and pred[v]:
            live |= 1 << v
    core = _trim(d, live, live)
    if not core:
        return True
    if width == 0:
        # Only a Digraph built directly can have a self-loop, which counts
        # as no cycle here, as in cycle_rank: a core of those alone is
        # split to nothing.
        return not _cyclic_components(d, core, 0)
    if width == 1:
        if _one_cut(d, core):
            return True
        # A core of one component has just been tried whole.
        cyclic = _cyclic_components(d, core, 0)
        return cyclic != [core] and all(_one_cut(d, s) for s in cyclic)
    memo: dict[tuple[int, int], bool] = {}

    def by_degree(s: int) -> list[int]:
        return sorted(bits(s), key=lambda v: -(succ[v] & s).bit_count()
                      * (pred[v] & s).bit_count())

    def fits(s: int, w: int) -> bool:
        """Whether the component s has cycle rank at most w >= 2."""
        return any(at_most(s & ~(1 << v), w - 1) for v in by_degree(s))

    def at_most(mask: int, w: int) -> bool:
        key = (mask, w)
        if key not in memo:
            cyclic = _cyclic_components(d, mask)
            memo[key] = (all(_one_cut(d, s) for s in cyclic) if w == 1
                         else all(fits(s, w) for s in cyclic))
        return memo[key]

    return all(fits(s, width) for s in _cyclic_components(d, core, 0))


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
    yields seeded random samples. Bit i of an assignment points group i
    (in sorted (rule, sign) order) from its rule to its atoms. The first
    next() raises ValueError if samples < 1 or max_groups < 0, or if the
    program has no signed incidence graph: it repeats a vertex id, names a
    rule like an atom, names an atom it does not list, or names one atom in
    two parts of a rule.

    The per-group masks are built once, in one pass over the rules sorted
    by id. Each orientation's successor masks are OR-ed from them in one
    pass over the groups, zipped with the assignment's bits read from its
    binary text. Every incidence edge is in one group and points one way,
    so a vertex's predecessors are its neighbours less its successors.
    """
    if samples < 1 or max_groups < 0:
        raise ValueError("samples must be at least 1 and max_groups at least 0")
    vertices, _ = _incidence_vertices(program)
    index = {v: i for i, v in enumerate(vertices)}
    # Per group, in (rule, sign) order: its rule's index and bit, and its
    # atoms' mask and indices; per vertex, its incidence neighbours. Rule
    # ids are distinct, so the rules sorted by id with each rule's parts in
    # h, n, p order are that order.
    per_group = []
    nbr = [0] * len(vertices)
    for r in sorted(program.rules, key=lambda r: r.id):
        rule = index[r.id]
        rule_bit = 1 << rule
        for part in (r.head, r.neg_body, r.pos_body):
            if not part:
                continue
            atoms = [index[atom] for atom in part]
            atom_mask = 0
            for a in atoms:
                atom_mask |= 1 << a
                nbr[a] |= rule_bit
            per_group.append((rule, rule_bit, atom_mask, atoms))
            nbr[rule] |= atom_mask
    g = len(per_group)

    def orient(assignment: int) -> Digraph:
        succ = [0] * len(vertices)
        # The assignment's bits, lowest first, one per group.
        for bit, (rule, rule_bit, atom_mask, atoms) in zip(
                f"{assignment:0{g}b}"[::-1], per_group):
            if bit == "1":
                succ[rule] |= atom_mask
            else:
                for a in atoms:
                    succ[a] |= rule_bit
        return Digraph(vertices, tuple(succ), tuple(map(xor, nbr, succ)))

    if g <= max_groups:
        for assignment in range(1 << g):
            yield orient(assignment)
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            yield orient(rng.getrandbits(g))


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def digraph_from_json(text: str) -> Digraph:
    """Read {"vertices": [id, ...], "arcs": [[u, v], ...]} with string ids."""
    data = json.loads(text)
    fields = data if isinstance(data, dict) else {}
    vertices, arcs = fields.get("vertices"), fields.get("arcs")
    if not _strings(vertices):
        raise ValueError("digraph JSON needs a 'vertices' list of strings")
    if not (isinstance(arcs, list)
            and all(_strings(a) and len(a) == 2 for a in arcs)):
        raise ValueError("digraph JSON needs an 'arcs' list of [u, v] string pairs")
    return Digraph.from_arcs(vertices, arcs)
