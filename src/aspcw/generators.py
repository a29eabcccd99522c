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
from .expression import Expr, labeled_expression
from .graphs import edge_key
from .program import ATOM_NAME, Program, Rule, make_rule


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
        declared: set[str] = set()
        _declare(self.existential + self.universal, declared)
        for term in self.terms:
            _check_term(term, declared)


def _declare(names: tuple[str, ...] | list[str], declared: set[str]) -> None:
    for name in names:
        if not ATOM_NAME.fullmatch(name):
            raise ValueError(f"variable name {name!r} is not an atom name")
        if name in declared:
            raise ValueError("duplicate variable declaration")
        declared.add(name)


def _check_term(term: tuple[Literal, ...], declared: set[str]) -> None:
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
        return edge_key(u, v) in self.edges


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
    plus w; a variable named like one of the other atoms or a rule id is
    refused.  Saturation rules force y_i, z_i once w is derived; each term
    contributes a rule deriving w; the constraint `:- not w` closes the loop.
    """
    xs = list(phi.existential)
    ys = list(phi.universal)
    dual_x = {x: f"v{i + 1}" for i, x in enumerate(xs)}
    dual_y = {y: f"z{i + 1}" for i, y in enumerate(ys)}
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

    clash = (set(xs) | set(ys)) & ({*dual_x.values(), *dual_y.values(), "w"}
                                   | {r.id for r in rules})
    if clash:
        raise ValueError(f"variable names {sorted(clash)} collide with "
                         "reduction atoms or rule ids")
    return Program(tuple(atoms), tuple(rules))


def parse_qbf(text: str) -> QbfEA:
    """Format: 'exists x1 x2' / 'forall y1 y2' / one 'term' line per term,
    literals negated with a '-' prefix.  Each error names the line (col 1)
    of the declaration or term at fault."""
    existential: list[str] = []
    universal: list[str] = []
    terms: list[tuple[Literal, ...]] = []
    term_lines: list[int] = []
    declared: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("%")[0].strip()
        if not line:
            continue
        keyword, *rest = line.split()
        if keyword in ("exists", "forall"):
            try:
                _declare(rest, declared)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, 1) from exc
            (existential if keyword == "exists" else universal).extend(rest)
        elif keyword == "term":
            terms.append(tuple(
                Literal(tok[1:], True) if tok.startswith("-") else Literal(tok, False)
                for tok in rest))
            term_lines.append(lineno)
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, 1)
    # A term may come before the declarations it uses.
    for term, lineno in zip(terms, term_lines):
        try:
            _check_term(term, declared)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, 1) from exc
    return QbfEA(tuple(existential), tuple(universal), tuple(terms))


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
    if k < 1 or part_size < 1:
        raise ValueError("k and part_size must be at least 1")
    if not 0 <= edge_density <= 1:
        raise ValueError("edge_density must be between 0 and 1")
    rng = random.Random(seed)
    parts = tuple(
        tuple(_vertex_name(i, j) for i in range(1, part_size + 1))
        for j in range(1, k + 1))
    edges = set()
    for j1, j2 in itertools.combinations(range(k), 2):
        for u in parts[j1]:
            for v in parts[j2]:
                if rng.random() < edge_density:
                    edges.add(edge_key(u, v))
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
    label = {v: j for j, part in enumerate(g.parts, 1) for v in part}
    rules: list[Rule] = []
    for j, part in enumerate(g.parts, 1):
        rules.append(make_rule(f"part{j}", head=part))
        label[f"part{j}"] = k + j
    for j1, j2 in itertools.combinations(range(1, k + 1), 2):
        part1, part2 = g.parts[j1 - 1], g.parts[j2 - 1]
        for u in part1:
            for v in part2:
                if not g.has_edge(u, v):
                    others = ([a for a in part1 if a != u]
                              + [a for a in part2 if a != v])
                    rules.append(make_rule(f"ne_{u}_{v}", pos_body=[u, v],
                                           neg_body=others))
                    label[f"ne_{u}_{v}"] = 2 * k + k * (j1 - 1) + j2
    program = Program(atoms, tuple(rules))
    return program, labeled_expression(program, label, {"p", "n"})


def pclique_to_json(g: KPartiteGraph) -> str:
    return json.dumps({"parts": [list(p) for p in g.parts],
                       "edges": sorted(list(e) for e in g.edges)}, indent=2)


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
    if num_atoms < 1:
        raise ValueError("num_atoms must be at least 1")
    if num_rules < 0:
        raise ValueError("num_rules must be at least 0")
    ph, pp, pn = part_probabilities
    if not all(0 <= p <= 1 for p in part_probabilities):
        raise ValueError("part probabilities must be between 0 and 1")
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
    if num_terms < 0:
        raise ValueError("num_terms must be at least 0")
    terms = []
    for _ in range(num_terms):
        size = rng.randint(1, min(3, len(variables)))
        chosen = rng.sample(variables, size)
        terms.append(tuple(Literal(v, rng.random() < 0.5) for v in chosen))
    return QbfEA(existential, universal, tuple(terms))
