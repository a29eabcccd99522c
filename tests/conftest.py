"""Shared fixtures: the two-rule running example, its 3-expression, and the
small exists-forall formula used by the reduction tests; the unsigned
incidence graph the graph, generator and acceptance tests compare against;
triples built from label sets, packed entries, and the root check on a full
packed root table of either solver; and the brute-force triples of an
interpretation that the oracle and acceptance tests compare the DP tables
against."""

from dataclasses import dataclass
from typing import Iterable, Mapping

import pytest

from aspcw.expression import parse_expression
from aspcw.generators import Literal, QbfEA
from aspcw.graphs import build_signed_incidence_graph
from aspcw.program import Program, Rule, is_model_of_rule, parse_program
from aspcw.tables import KTriple, TableOps, fold_tables

EXAMPLE1_TEXT = "x :- not y.\n:- x, not y.\n"

FIG2_TEXT = ("eta(n,3,2, oplus( rho(3,2, eta(p,1,3, oplus( eta(h,1,2, "
             "oplus(a(1,x), r(2,r1)) ), r(3,r2)) )), a(3,y) ))")

# Root labeling of the 3-expression above.
EXAMPLE1_LABELING = {"x": 1, "r1": 2, "r2": 2, "y": 3}


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
    """The root check on a packed table whose U bits are `u`: some entry has
    an empty U, and for a pair (Q, Gamma) no member of Gamma has one."""
    return any(not q & u and all(s & u for s in g)
               for q, g in (entry if type(entry) is tuple else (entry, ())
                            for entry in table))


def full_root_accepts(expr, ops: TableOps) -> bool:
    """The root check on the root table of the fold that keeps every
    label."""
    table, w = fold_tables(expr, ops)
    return accepts(table, ((1 << w) - 1) << 2 * w)


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
