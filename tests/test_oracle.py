import itertools
import tracemalloc

import pytest

from aspcw.errors import BoundExceededError
from aspcw.generators import gen_random_program
from aspcw.oracle import (enumerate_answer_sets, enumerate_models,
                          is_answer_set)
from aspcw.program import Program, make_rule, parse_program, reduct
from conftest import (EXAMPLE1_LABELING, interpretation_triple,
                      reduct_interpretation_triple, triple)


class TestModels:
    def test_running_example_has_full_model(self, example1):
        assert frozenset({"x", "y"}) in enumerate_models(example1)

    def test_no_rules_everything_is_a_model(self):
        p = Program(("a",), ())
        assert enumerate_models(p) == [frozenset(), frozenset({"a"})]

    def test_forced_atom(self):
        p = parse_program(":- not x.")
        assert enumerate_models(p) == [frozenset({"x"})]

    def test_counting_order(self):
        p = Program(("a", "b"), ())
        assert enumerate_models(p) == [
            frozenset(), frozenset({"a"}), frozenset({"b"}),
            frozenset({"a", "b"})]

    def test_bound(self):
        p = Program(tuple(f"a{i}" for i in range(25)), ())
        for enumerate_ in (enumerate_models, enumerate_answer_sets):
            with pytest.raises(BoundExceededError):
                enumerate_(p)
            # The bound is checked before anything else, repeated atoms too.
            with pytest.raises(BoundExceededError):
                enumerate_(Program(("a",) * 25, ()))

    def test_at_the_bound(self):
        # `:- a1.` ... `:- a19.` over a1..a20: the models are the empty set
        # and {a20}, the top interpretation bit, listed in that order.
        atoms = tuple(f"a{i}" for i in range(1, 21))
        p = Program(atoms, tuple(make_rule(f"r{i}", [], [f"a{i}"])
                                 for i in range(1, 20)))
        assert enumerate_models(p) == [frozenset(), frozenset({"a20"})]
        assert enumerate_answer_sets(p) == [frozenset()]

    def test_holds_no_mask_list(self):
        # 32,528 models of 15 atoms: listing them costs little beyond the
        # frozensets returned, so no list of model masks is kept beside them.
        p = gen_random_program(15, 4, (0.2, 0.2, 0.2), 1)
        tracemalloc.start()
        try:
            models = enumerate_models(p)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(models) == 32528
        assert peak <= 1.02 * held, (held, peak)

    @pytest.mark.parametrize("call", [
        enumerate_models, enumerate_answer_sets,
        lambda p: is_answer_set(p, {"a"})],
        ids=["enumerate_models", "enumerate_answer_sets", "is_answer_set"])
    def test_repeated_atom_is_refused(self, call):
        with pytest.raises(ValueError, match="duplicate atom 'a'"):
            call(Program(("a", "a"), ()))
        with pytest.raises(ValueError, match="duplicate atom 'a'"):
            call(Program(("b", "a", "a"), (make_rule("r1", ["a"]),)))

    def test_unlisted_atom_is_false(self):
        # z is named by the rules but not listed: false in every
        # interpretation, so `a :- z.` always holds, `:- not z.` never does
        # and `a :- not z.` forces a.
        assert enumerate_models(Program(("a",), (
            make_rule("r1", ["a"], ["z"]),))) == [frozenset(), frozenset({"a"})]
        assert enumerate_models(Program(("a",), (
            make_rule("r1", [], [], ["z"]),))) == []
        p = Program(("a",), (make_rule("r1", ["a"], [], ["z"]),))
        assert enumerate_models(p) == [frozenset({"a"})]
        assert enumerate_answer_sets(p) == [frozenset({"a"})]

    def test_unlisted_candidate_atom(self):
        # An unlisted atom of the candidate is true: with no rule naming it,
        # dropping it leaves a smaller model of the reduct; the fact `z.`
        # supports it.
        assert is_answer_set(Program(("a",), ()), {"z"}) is False
        assert is_answer_set(Program((), (make_rule("r1", ["z"]),)), {"z"}) \
            is True


class TestAnswerSets:
    def test_unsupported_model_is_no_answer_set(self):
        p = parse_program(":- not x.")
        assert is_answer_set(p, {"x"}) is False
        assert enumerate_answer_sets(p) == []

    def test_fact(self):
        p = parse_program("a.")
        assert is_answer_set(p, {"a"}) is True
        assert enumerate_answer_sets(p) == [frozenset({"a"})]

    def test_running_example_model_not_minimal(self, example1):
        assert is_answer_set(example1, {"x", "y"}) is False

    def test_answer_sets_are_models(self):
        for seed in range(20):
            p = gen_random_program(4, 4, (0.2, 0.2, 0.2), seed)
            models = set(enumerate_models(p))
            for a in enumerate_answer_sets(p):
                assert a in models

    def test_answer_sets_form_antichain(self):
        for seed in range(20):
            p = gen_random_program(4, 4, (0.25, 0.2, 0.2), seed)
            answer_sets = enumerate_answer_sets(p)
            for a, b in itertools.combinations(answer_sets, 2):
                assert not (a < b or b < a)

    def test_negation_free_answer_sets_are_minimal_models(self):
        for seed in range(20):
            p = gen_random_program(4, 4, (0.3, 0.3, 0.0), seed)
            models = enumerate_models(p)
            minimal = [m for m in models
                       if not any(n < m for n in models)]
            assert sorted(enumerate_answer_sets(p), key=sorted) == \
                sorted(minimal, key=sorted)


class TestInterpretationTriples:
    def test_partial_interpretation(self, example1):
        q = interpretation_triple(example1, EXAMPLE1_LABELING, {"x"})
        assert q == triple({1}, {3}, {2})

    def test_full_model(self, example1):
        q = interpretation_triple(example1, EXAMPLE1_LABELING, {"x", "y"})
        assert q == triple({1, 3}, set(), set())

    def test_empty_program(self):
        q = interpretation_triple(Program((), ()), {}, set())
        assert q == triple(set(), set(), set())

    def test_unlabeled_vertex(self, example1):
        with pytest.raises(KeyError):
            interpretation_triple(example1, {"x": 1}, {"x"})

    def test_reduct_triple_rule_dropped(self):
        p = parse_program(":- not x.")
        labeling = {"x": 1, "r1": 2}
        q = reduct_interpretation_triple(p, labeling, {"x"}, set())
        assert q == triple(set(), {1}, set())

    def test_reduct_triple_rule_survives(self):
        p = parse_program(":- not x.")
        labeling = {"x": 1, "r1": 2}
        q = reduct_interpretation_triple(p, labeling, set(), set())
        assert q == triple(set(), {1}, {2})

    def test_empty_interp_matches_plain_triple_of_reduct(self, example1):
        labeling = EXAMPLE1_LABELING
        red = reduct(example1, set())
        for sub in (set(), {"x"}, {"y"}, {"x", "y"}):
            assert reduct_interpretation_triple(
                example1, labeling, set(), sub) == \
                interpretation_triple(red, labeling, sub)
