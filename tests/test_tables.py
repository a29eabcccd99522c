"""The set-bits helper, label masks (built by the test helper
`conftest.label_mask`) read back as label sets, and the fold's joins, which
never get an empty operand."""

import importlib
import random

import pytest

from aspcw.dp_answersets import has_answer_set_dp
from aspcw.dp_classical import has_model_dp
from aspcw.expression import heuristic_expression, trivial_expression
from aspcw.generators import gen_random_program
from aspcw.graphs import bits
from aspcw.oracle import enumerate_answer_sets, enumerate_models
from aspcw.tables import mask_labels
from conftest import NodeEvents, label_mask

PARTS = (0.2, 0.2, 0.2)

# By full name: the package re-exports the function `dp_classical` under
# its module's name.
SOLVERS = [importlib.import_module(f"aspcw.{name}")
           for name in ("dp_answersets", "dp_classical")]


@pytest.mark.parametrize("labels", [
    set(), {1}, {1, 2, 3}, {1, 64}, {1, 65, 130}, {2, 63, 64, 65, 200},
    set(range(1, 100, 7)),
])
def test_mask_round_trip(labels):
    assert mask_labels(label_mask(labels)) == labels


def test_bits_lowest_first():
    assert list(bits(0)) == []
    assert list(bits(0b1011)) == [0, 1, 3]
    assert list(bits(1 << 64 | 1 << 65 | 1)) == [0, 64, 65]


def test_label_mask_rejects_non_positive():
    with pytest.raises(ValueError):
        label_mask([0])


@pytest.fixture
def join_operands(monkeypatch):
    """The operand sizes of each `join` either solver calls, through a
    wrapper around its `_TABLES.join`."""
    sizes = []
    for module in SOLVERS:
        def join(left, right, *rest, join=module._TABLES.join):
            sizes.append((len(left), len(right)))
            return join(left, right, *rest)
        monkeypatch.setattr(module, "_TABLES",
                            module._TABLES._replace(join=join))
    return sizes


def test_no_join_on_an_empty_table_in_refuted_decisions(join_operands):
    # These 4-atom, 400-rule programs have no model: a table goes empty
    # early, and every table above it is empty without a join.
    for seed in (0, 1, 2):
        program = gen_random_program(4, 400, PARTS, seed)
        assert not enumerate_models(program)
        expr = trivial_expression(program)
        for decide in (has_answer_set_dp, has_model_dp):
            events = NodeEvents()
            assert not decide(expr, trace=events)
            sizes = [size for _, _, size in events]
            empty = sizes.index(0)
            assert empty < len(sizes) // 2 and sizes[-1] == 0
    assert join_operands and all(left and right
                                 for left, right in join_operands)


def test_no_join_on_an_empty_table_in_random_decisions(join_operands):
    rng = random.Random(0)
    outcomes = set()
    for _ in range(200):
        program = gen_random_program(rng.randint(1, 6), rng.randint(1, 12),
                                     PARTS, rng.randrange(1 << 32))
        for build in (trivial_expression, heuristic_expression):
            expr = build(program)
            has_model = has_model_dp(expr)
            assert has_model == bool(enumerate_models(program))
            has_answer_set = has_answer_set_dp(expr)
            assert has_answer_set == bool(enumerate_answer_sets(program))
            outcomes.add((has_model, has_answer_set))
    assert outcomes == {(False, False), (True, False), (True, True)}
    assert all(left and right for left, right in join_operands)
