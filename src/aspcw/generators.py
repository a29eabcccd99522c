"""Instance generators and hardness-reduction constructions.

Covers: exists-forall QBF formulas with a brute-force validity check and the
reduction to disjunctive programs; partitioned-clique instances with their
ASP reduction and an explicit low-width expression; the grid-program family;
and seeded random programs / formulas for fuzz harnesses.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BoundExceededError, ParseError
from .expression import EdgeInsert, Expr, Introduce, _union_all
from .program import Program, Rule, make_rule


class Literal(NamedTuple):
    var: str
    negated: bool


@dataclass(frozen=True)
class QbfEA:
    """exists x1..xn forall y1..ym (D1 or ... or Dr), each Dj a conjunction
    of at most three literals."""
    existential: tuple[str, ...]
    universal: tuple[str, ...]
    terms: tuple[tuple[Literal, ...], ...]

    def __post_init__(self):
        declared = set(self.existential) | set(self.universal)
        if len(declared) != len(self.existential) + len(self.universal):
            raise ValueError("duplicate variable declaration")
        for term in self.terms:
            if not 1 <= len(term) <= 3:
                raise ValueError(f"term size {len(term)} outside 1..3")
            for lit in term:
                if lit.var not in declared:
                    raise ValueError(f"undeclared variable {lit.var!r}")


@dataclass(frozen=True)
class KPartiteGraph:
    """Equal-size parts, edges crossing parts only."""
    parts: tuple[tuple[str, ...], ...]
    edges: frozenset[tuple[str, str]]  # sorted pairs

    def __post_init__(self):
        sizes = {len(p) for p in self.parts}
        if len(sizes) > 1:
            raise ValueError("parts must have equal size")
        where = {}
        for i, part in enumerate(self.parts):
            for v in part:
                if v in where:
                    raise ValueError(f"vertex {v!r} in two parts")
                where[v] = i
        for u, v in self.edges:
            if u not in where or v not in where:
                raise ValueError(f"edge ({u!r},{v!r}) references unknown vertex")
            if where[u] == where[v]:
                raise ValueError(f"intra-part edge ({u!r},{v!r})")

    def has_edge(self, u: str, v: str) -> bool:
        return ((u, v) if u <= v else (v, u)) in self.edges


# ---------------------------------------------------------------------------
# QBF validity and reduction
# ---------------------------------------------------------------------------

def qbf_is_valid(phi: QbfEA, bound: int = 20) -> bool:
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


def reduce_qbf_to_asp(phi: QbfEA) -> Program:
    """Program with an answer set iff the formula is valid.

    Atoms x_i, v_i for existential variables, y_i, z_i for universal ones,
    plus w.  Saturation rules force y_i, z_i once w is derived; each term
    contributes a rule deriving w; the constraint `:- not w` closes the loop.
    """
    xs = list(phi.existential)
    ys = list(phi.universal)
    dual_x = {x: f"v{i + 1}" for i, x in enumerate(xs)}
    dual_y = {y: f"z{i + 1}" for i, y in enumerate(ys)}
    declared = set(xs) | set(ys)
    clash = declared & (set(dual_x.values()) | set(dual_y.values()) | {"w"})
    if clash:
        raise ValueError(
            f"variable names {sorted(clash)} collide with reduction atoms")
    atoms: list[str] = []
    for x in xs:
        atoms += [x, dual_x[x]]
    for y in ys:
        atoms += [y, dual_y[y]]
    atoms.append("w")

    rules: list[Rule] = []

    def add(rule_id, head=(), pos=(), neg=()):
        rules.append(make_rule(rule_id, head, pos, neg))

    for i, x in enumerate(xs, 1):
        add(f"choice_x{i}", head=[x, dual_x[x]])
    for i, y in enumerate(ys, 1):
        add(f"choice_y{i}", head=[y, dual_y[y]])
        add(f"sat_y{i}", head=[y], pos=["w"])
        add(f"sat_z{i}", head=[dual_y[y]], pos=["w"])
        add(f"both_y{i}", head=["w"], pos=[y, dual_y[y]])

    def image(lit: Literal) -> str:
        if not lit.negated:
            return lit.var
        if lit.var in dual_x:
            return dual_x[lit.var]
        return dual_y[lit.var]

    for j, term in enumerate(phi.terms, 1):
        add(f"term{j}", head=["w"], pos={image(l) for l in term})
    add("goal", neg=["w"])

    return Program(tuple(atoms), tuple(rules))


def parse_qbf(text: str) -> QbfEA:
    """Format: 'exists x1 x2' / 'forall y1 y2' / one 'term' line per term,
    literals negated with a '-' prefix."""
    existential: list[str] = []
    universal: list[str] = []
    terms: list[tuple[Literal, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("%")[0].strip()
        if not line:
            continue
        keyword, *rest = line.split()
        if keyword == "exists":
            existential += rest
        elif keyword == "forall":
            universal += rest
        elif keyword == "term":
            lits = tuple(
                Literal(tok[1:], True) if tok.startswith("-") else Literal(tok, False)
                for tok in rest)
            terms.append(lits)
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, 1)
    try:
        return QbfEA(tuple(existential), tuple(universal), tuple(terms))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_qbf(phi: QbfEA) -> str:
    lines = []
    if phi.existential:
        lines.append("exists " + " ".join(phi.existential))
    if phi.universal:
        lines.append("forall " + " ".join(phi.universal))
    for term in phi.terms:
        lines.append("term " + " ".join(
            ("-" if l.negated else "") + l.var for l in term))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Partitioned clique
# ---------------------------------------------------------------------------

def _vertex_name(i: int, j: int) -> str:
    # i-th vertex of part j, both 1-based
    return f"v{i}_{j}"


def gen_pclique(k: int, part_size: int, edge_density: float,
                seed: int) -> KPartiteGraph:
    rng = random.Random(seed)
    parts = tuple(
        tuple(_vertex_name(i, j) for i in range(1, part_size + 1))
        for j in range(1, k + 1))
    edges = set()
    for j1, j2 in itertools.combinations(range(k), 2):
        for u in parts[j1]:
            for v in parts[j2]:
                if rng.random() < edge_density:
                    edges.add((u, v) if u <= v else (v, u))
    return KPartiteGraph(parts, frozenset(edges))


def has_partitioned_clique(g: KPartiteGraph, bound: int = 10 ** 6) -> bool:
    """Try all one-vertex-per-part selections for pairwise adjacency."""
    if g.parts and len(g.parts[0]) ** len(g.parts) > bound:
        raise BoundExceededError("selection space exceeds brute-force bound")
    for pick in itertools.product(*g.parts):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(pick, 2)):
            return True
    return False


def reduce_pclique_to_asp(g: KPartiteGraph) -> tuple[Program, Expr]:
    """Program with an answer set iff the graph has a one-per-part clique,
    plus an expression for its incidence graph with p/n signs joined.

    Per part j, a disjunctive fact over the part's vertices; per cross-part
    non-edge, a constraint whose positive body picks the two endpoints and
    whose negative body excludes the rest of both parts.  Labels: part atoms
    get label j, part rules k + j, and all non-edge rules between parts i < j
    share label 2k + k(i-1) + j, so the width stays at most 2k + k^2.
    """
    k = len(g.parts)
    atoms = tuple(v for part in g.parts for v in part)
    rules: list[Rule] = []
    for j, part in enumerate(g.parts, 1):
        rules.append(make_rule(f"part{j}", head=part))
    nonedges: list[tuple[int, int, str, str]] = []
    for j1, j2 in itertools.combinations(range(len(g.parts)), 2):
        for u in g.parts[j1]:
            for v in g.parts[j2]:
                if not g.has_edge(u, v):
                    nonedges.append((j1 + 1, j2 + 1, u, v))
    for j1, j2, u, v in nonedges:
        others = ([a for a in g.parts[j1 - 1] if a != u]
                  + [a for a in g.parts[j2 - 1] if a != v])
        rules.append(make_rule(f"ne_{u}_{v}", pos_body=[u, v], neg_body=others))
    program = Program(atoms, tuple(rules))

    intro: list[Expr] = []
    for j, part in enumerate(g.parts, 1):
        intro += [Introduce(j, v, "atom") for v in part]
    for j in range(1, k + 1):
        intro.append(Introduce(k + j, f"part{j}", "rule"))
    for j1, j2, u, v in nonedges:
        intro.append(Introduce(2 * k + k * (j1 - 1) + j2, f"ne_{u}_{v}", "rule"))
    expr = _union_all(intro) if intro else None
    if expr is None:
        raise ValueError("empty graph has no expression")
    for j in range(1, k + 1):
        expr = EdgeInsert("h", j, k + j, expr)
    for j1, j2 in sorted({(j1, j2) for j1, j2, _, _ in nonedges}):
        l = 2 * k + k * (j1 - 1) + j2
        expr = EdgeInsert("alpha", j1, l, expr)
        expr = EdgeInsert("alpha", j2, l, expr)
    return program, expr


def pclique_to_json(g: KPartiteGraph) -> str:
    return json.dumps({"parts": [list(p) for p in g.parts],
                       "edges": sorted(list(e) for e in g.edges)}, indent=2)


def pclique_from_json(text: str) -> KPartiteGraph:
    data = json.loads(text)
    return KPartiteGraph(
        tuple(tuple(p) for p in data["parts"]),
        frozenset(tuple(sorted(e)) for e in data["edges"]))


# ---------------------------------------------------------------------------
# Grid programs
# ---------------------------------------------------------------------------

def gen_grid_program(n: int) -> Program:
    """n^2 atoms, n^2 rules, every atom in every rule; atom t sits in the
    head of rule u exactly when cells t and u are adjacent in the n x n grid
    and t is on the even-parity side of the grid's two-coloring (one head
    edge per grid edge), otherwise in the positive body.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cells = n * n
    atoms = tuple(f"a{t}" for t in range(1, cells + 1))

    def row_col(t: int) -> tuple[int, int]:
        return (t - 1) // n, (t - 1) % n

    def adjacent(t: int, u: int) -> bool:
        (r1, c1), (r2, c2) = row_col(t), row_col(u)
        return abs(r1 - r2) + abs(c1 - c2) == 1

    def even(t: int) -> bool:
        r, c = row_col(t)
        return (r + c) % 2 == 0

    rules = []
    for u in range(1, cells + 1):
        head = {f"a{t}" for t in range(1, cells + 1)
                if adjacent(t, u) and even(t)}
        pos = {f"a{t}" for t in range(1, cells + 1)} - head
        rules.append(make_rule(f"r{u}", head=head, pos_body=pos))
    return Program(atoms, tuple(rules))


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def gen_random_program(num_atoms: int, num_rules: int,
                       part_probabilities: tuple[float, float, float],
                       seed: int) -> Program:
    """Each atom joins each rule's head / positive body / negative body with
    the given probabilities (disjoint by construction)."""
    ph, pp, pn = part_probabilities
    if ph + pp + pn > 1.0 + 1e-9:
        raise ValueError("part probabilities must sum to at most 1")
    rng = random.Random(seed)
    atoms = tuple(f"a{i}" for i in range(1, num_atoms + 1))
    rules = []
    for r in range(1, num_rules + 1):
        head, pos, neg = set(), set(), set()
        for a in atoms:
            roll = rng.random()
            if roll < ph:
                head.add(a)
            elif roll < ph + pp:
                pos.add(a)
            elif roll < ph + pp + pn:
                neg.add(a)
        rules.append(make_rule(f"r{r}", head=head, pos_body=pos, neg_body=neg))
    return Program(atoms, tuple(rules))


def gen_random_qbf(n: int, m: int, num_terms: int, seed: int) -> QbfEA:
    rng = random.Random(seed)
    existential = tuple(f"x{i}" for i in range(1, n + 1))
    universal = tuple(f"y{i}" for i in range(1, m + 1))
    variables = existential + universal
    if not variables:
        raise ValueError("need at least one variable")
    terms = []
    for _ in range(num_terms):
        size = rng.randint(1, min(3, len(variables)))
        chosen = rng.sample(variables, size)
        terms.append(tuple(Literal(v, rng.random() < 0.5) for v in chosen))
    return QbfEA(existential, universal, tuple(terms))
