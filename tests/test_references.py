"""The program-size layers against whole-graph references (see conftest):
`validate_against` gives the reference's mismatch lists, order included,
`heuristic_expression` the reference's expression, and `parse_program` the
reference's program or error, on random, mutated and dense inputs.  The
oracle gives the frozenset oracle's lists, order included, and its answers
on models and non-models, on random programs and the reductions of
criteria 6 and 7."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspcw.errors import AspcwError
from aspcw.expression import (DisjointUnion, EdgeInsert, Introduce, Relabel,
                              fold, heuristic_expression, join_labels,
                              labels_used, serialize_expression,
                              trivial_expression, validate_against)
from aspcw.generators import (KPartiteGraph, gen_pclique, gen_random_program,
                              gen_random_qbf, reduce_pclique_to_asp,
                              reduce_qbf_to_asp)
from aspcw.oracle import enumerate_answer_sets, enumerate_models, is_answer_set
from aspcw.program import Program, make_rule, parse_program
from conftest import (reference_enumerate_answer_sets,
                      reference_enumerate_models, reference_heuristic,
                      reference_is_answer_set, reference_parse,
                      reference_validate)

programs = st.builds(
    gen_random_program,
    num_atoms=st.integers(1, 6),
    num_rules=st.integers(0, 6),
    part_probabilities=st.sampled_from(
        [(0.25, 0.25, 0.25), (0.4, 0.2, 0.2), (0.1, 0.3, 0.5), (0.1, 0.1, 0.1)]),
    seed=st.integers(0, 2 ** 32 - 1))


def dense_program(n: int) -> Program:
    """n rules `h1 | ... | hn :- b1, ..., bn, not c1, ..., not cn`: every
    rule a twin of every other, each atom class fully joined to the rules."""
    def atoms(name):
        return [f"{name}{j}" for j in range(1, n + 1)]
    return Program(tuple(atoms("h") + atoms("b") + atoms("c")),
                   tuple(make_rule(f"q{k}", atoms("h"), atoms("b"), atoms("c"))
                         for k in range(1, n + 1)))


def fixed_width(n: int) -> Program:
    return parse_program(
        (":- " + ", ".join(f"a{j}" for j in range(1, n + 1)) + ".\n") * n)


# The last two have masks that span many machine words.
DENSE = [fixed_width(1), fixed_width(2), fixed_width(30), dense_program(1),
         dense_program(4), dense_program(15), fixed_width(120),
         dense_program(40)]


def outcome(f, *args, **kwargs):
    """The result of the call, or the type and message of what it raised."""
    try:
        return f(*args, **kwargs)
    except (AspcwError, ValueError) as exc:
        return type(exc), str(exc)


def edited(expr, target, edit):
    """`expr` with its node number `target` in post-order (from 1) replaced
    by `edit(node, *operands)`."""
    index = 0

    def rebuild(node, *kids):
        nonlocal index
        index += 1
        if index == target:
            return edit(node, *kids)
        if isinstance(node, Introduce):
            return node
        if isinstance(node, DisjointUnion):
            return DisjointUnion(*kids)
        if isinstance(node, Relabel):
            return Relabel(node.old, node.new, *kids)
        return EdgeInsert(node.sign, node.i, node.j, *kids)

    return fold(expr, rebuild)


def mutants(expr, other, rng):
    """(expression, joined) pairs around a builder expression: as built,
    another program's expression, one edge insert dropped, one re-signed,
    an extra atom, an extra rule with edges, an introduce of the other kind,
    and the signs p and n joined with and without the rewrite."""
    nodes = []
    fold(expr, lambda node, *_: nodes.append(node))
    edges = [k for k, node in enumerate(nodes, 1) if isinstance(node, EdgeInsert)]
    leaves = [k for k, node in enumerate(nodes, 1) if isinstance(node, Introduce)]
    labels = sorted(labels_used(expr))
    out = [(expr, frozenset()), (other, frozenset())]
    if edges:
        out.append((edited(expr, rng.choice(edges), lambda node, child: child),
                    frozenset()))
        out.append((edited(expr, rng.choice(edges), lambda node, child: EdgeInsert(
            rng.choice([s for s in "hpn" if s != node.sign]), node.i, node.j,
            child)), frozenset()))
    kind = {"atom": "rule", "rule": "atom"}
    out.append((edited(expr, rng.choice(leaves), lambda node: Introduce(
        node.label, node.vertex, kind[node.kind])), frozenset()))
    out.append((DisjointUnion(expr, Introduce(rng.choice(labels), "zz", "atom")),
                frozenset()))
    extra = max(labels) + 1
    out.append((EdgeInsert(rng.choice("hpn"), rng.choice(labels), extra,
                           DisjointUnion(expr, Introduce(extra, "rz", "rule"))),
                frozenset()))
    out.append((join_labels(expr, {"p", "n"}), frozenset({"p", "n"})))
    out.append((expr, frozenset({"p", "n"})))
    return out


@settings(derandomize=True, deadline=None, max_examples=150)
@given(programs, programs, st.integers(0, 2 ** 32 - 1))
def test_validate_lists_match_the_reference(program, other, seed):
    rng = random.Random(seed)
    for build in (trivial_expression, heuristic_expression):
        for expr, joined in mutants(build(program), build(other), rng):
            assert outcome(validate_against, expr, program, joined=joined) \
                == outcome(reference_validate, expr, program, joined=joined)


@pytest.mark.parametrize("program", DENSE)
def test_validate_dense_matches_the_reference(program):
    rng = random.Random(len(program.rules))
    other = fixed_width(3)
    for build in (trivial_expression, heuristic_expression):
        expr = build(program)
        assert validate_against(expr, program) == []
        for expr, joined in mutants(expr, build(other), rng):
            assert outcome(validate_against, expr, program, joined=joined) \
                == outcome(reference_validate, expr, program, joined=joined)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(programs)
def test_heuristic_matches_the_reference(program):
    assert serialize_expression(heuristic_expression(program)) \
        == serialize_expression(reference_heuristic(program))


@pytest.mark.parametrize("program", DENSE + [
    # A bare `.` rule has no neighbors, like an atom in no rule: they share
    # a class.
    parse_program("a :- b.\n.\nc :- not a.\n."),
    Program(("a", "b", "x"), (make_rule("r1", ["a"], ["b"]), make_rule("r2"))),
])
def test_heuristic_matches_the_reference_on(program):
    assert serialize_expression(heuristic_expression(program)) \
        == serialize_expression(reference_heuristic(program))


NAMES = ["a", "b", "knot", "nota", "not_a", "notnot", "x1", "nOt", "cannot", "r2"]
SPACE = ["", " ", "  ", "\t", "\n", "\n\t", " % not a, b.\n ", "%not x\n"]


def random_text(rng):
    """A program text, valid or not, with atoms that contain "not", `not`
    literals, an atom named like a rule id, and whitespace and comments
    anywhere between tokens."""
    def space():
        return rng.choice(SPACE)

    def literal():
        atom = rng.choice(NAMES)
        if rng.random() < 0.4:
            return "not" + rng.choice([" ", "\t", "\n", " %c\n "]) + space() + atom
        return atom

    text = space()
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.2:
            text += "@" + space() + rng.choice(["q", "r1", "r2"]) + space() \
                + ":" + space()
        if rng.random() < 0.6:
            text += (space() + "|" + space()).join(
                rng.choice(NAMES) for _ in range(rng.randint(1, 3))) + space()
        if rng.random() < 0.7:
            text += ":-" + space() + (space() + "," + space()).join(
                literal() for _ in range(rng.randint(1, 5))) + space()
        text += "." + space()
    if rng.random() < 0.4:
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + rng.choice([",", "not", ".", "|", "not ,", "%", "A",
                                        ""]) + text[cut + 1:]
    return text


def parsed(parse, text):
    """The program with its atom order, or the error with its position."""
    try:
        return parse(text)
    except AspcwError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), \
            getattr(exc, "col", None)


PARSE_TEXTS = [
    "knot :- nota, not not_a, notnot.\n",
    "a :- not\tknot,\n  not\n\tnota, % not b, c\n not_a.",
    "x :- b, not b.",
    "x :- not a, a.",
    "knot :- not knot.",
    "@s: a | knot :- not\n%c\nnota, b.\nnota.",
]


@pytest.mark.parametrize("text", PARSE_TEXTS)
def test_parse_matches_the_reference_on(text):
    assert parsed(parse_program, text) == parsed(reference_parse, text)


@pytest.mark.parametrize("text", PARSE_TEXTS + [
    "@q_1 :\n x :- y, not z.\n@r2:w.",
    "a1\n | b_2 |\n\tnotc\n  :- not d,\n e.\n",
])
def test_parse_matches_the_reference_on_prefixes_and_deletions(text):
    # Each text cut short or missing one character gives the program, or
    # the error at its line and column, that the greedy pattern gives.
    variants = ([text[:k] for k in range(len(text))]
                + [text[:k] + text[k + 1:] for k in range(len(text))])
    assert [parsed(parse_program, v) for v in variants] == \
        [parsed(reference_parse, v) for v in variants]


def test_parse_matches_the_reference():
    rng = random.Random(0)
    outcomes = set()
    for _ in range(3000):
        text = random_text(rng)
        # Program equality compares the atoms in order.
        result = parsed(parse_program, text)
        assert result == parsed(reference_parse, text)
        outcomes.add("program" if isinstance(result, Program)
                     else result[0].__name__)
    assert outcomes == {"program", "ParseError", "NormalizationError"}


@pytest.mark.parametrize("text", [
    "a :- b, not c.\na :- b, not c.\na:-b,not c.\na :- b,\n  not   c.\n",
    "@s: x | y :- z.\nx | y :- z.\nx|y :- z.\n:- x.\n:- x.\n",
    ":- a1, a2, a3.\n" * 5,
    "a :- a.\na :- a.\n",
    "a.\nb :- not a.\na.\n@a: b :- not a.\n",
])
def test_parse_matches_the_reference_on_repeated_rules(text):
    assert parsed(parse_program, text) == parsed(reference_parse, text)


def test_parse_matches_the_reference_on_random_repeats():
    # Each text again as written and with its whitespace runs redrawn, so
    # that rules recur alike and differing only in whitespace.
    rng = random.Random(1)
    programs = 0
    for _ in range(1000):
        text = random_text(rng)
        respaced = re.sub(r"\s+", lambda m: rng.choice([" ", "\n", "\t "]), text)
        text = "\n".join([text, respaced, text])
        result = parsed(parse_program, text)
        assert result == parsed(reference_parse, text)
        programs += isinstance(result, Program) and len(result.rules) > 1
    assert programs > 30


MIXES = [(0.2, 0.2, 0.2), (0.3, 0.3, 0.3), (0.15, 0.35, 0.25),
         (0.4, 0.1, 0.1), (0.1, 0.4, 0.4), (0.0, 0.5, 0.0)]
SPARSE = (0.1, 0.1, 0.1)


def random_oracle_programs():
    """Seeded random programs with 0-10 atoms and 0-10 rules over the part
    mixes above, and four of 11-14 atoms with twice as many rules, whose
    truth tables span many machine words (all but the 12-atom one have
    sparse parts, so short rules keep the models few).  Every fourth of the
    small ones and the 12-atom one list all atoms but their last, which
    their rules may still name."""
    rng = random.Random(3)
    out = [Program((), ()), Program((), (make_rule("r1"),)),
           Program((), (make_rule("r1", ["z"]),))]
    for k in range(240):
        p = gen_random_program(rng.randint(1, 10), rng.randint(0, 10),
                               MIXES[k % len(MIXES)], rng.randrange(1 << 32))
        out.append(Program(p.atoms[:-1], p.rules) if k % 4 == 3 else p)
    for n, mix in ((11, SPARSE), (12, MIXES[3]), (13, SPARSE), (14, SPARSE)):
        p = gen_random_program(n, 2 * n, mix, rng.randrange(1 << 32))
        out.append(Program(p.atoms[:-1], p.rules) if n == 12 else p)
    return out


def qbf_reductions():
    """Criterion 6's 200 QBF reductions."""
    return [reduce_qbf_to_asp(gen_random_qbf(
        seed % 3 + 1, (seed // 3) % 3 + 1, seed % 4 + 1, seed))
        for seed in range(200)]


def pclique_reductions():
    """Criterion 7's 36 partitioned-clique reductions."""
    parts = (("v1_1", "v2_1"), ("v1_2", "v2_2"))
    crossing = [(u, v) if u <= v else (v, u)
                for u in parts[0] for v in parts[1]]
    graphs = [KPartiteGraph(parts, frozenset(
        e for i, e in enumerate(crossing) if mask >> i & 1))
        for mask in range(16)]
    graphs += [gen_pclique(3, 2, (seed % 5) * 0.2 + 0.1, seed)
               for seed in range(20)]
    return [reduce_pclique_to_asp(g)[0] for g in graphs]


def non_models(program, models, rng):
    """Up to three interpretations that are not models, and a model and a
    non-model each with an atom the program does not list (named by a rule
    when the program has one)."""
    atoms = program.atoms
    known = set(models)
    out = []
    for _ in range(20):
        interp = frozenset(a for a in atoms if rng.random() < 0.5)
        if interp not in known:
            out.append(interp)
        if len(out) == 3:
            break
    named = {a for r in program.rules
             for a in r.head | r.pos_body | r.neg_body} - set(atoms)
    extra = min(named, default="zz")
    if models:
        out.append(rng.choice(models) | {extra})
    return out + [interp | {extra} for interp in out[:1]]


@pytest.mark.parametrize("family", [random_oracle_programs, qbf_reductions,
                                    pclique_reductions])
def test_oracle_matches_the_reference(family):
    rng = random.Random(4)
    answered = 0
    for program in family():
        models = enumerate_models(program)
        assert models == reference_enumerate_models(program)
        answer_sets = enumerate_answer_sets(program)
        assert answer_sets == reference_enumerate_answer_sets(program)
        answered += bool(answer_sets)
        # The reference lists exactly the models its is_answer_set accepts.
        listed = set(answer_sets)
        for m in models:
            assert is_answer_set(program, m) == (m in listed)
        for interp in non_models(program, models, rng):
            assert is_answer_set(program, interp) \
                == reference_is_answer_set(program, interp)
    assert answered
