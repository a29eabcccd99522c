import copy
import pickle

import pytest

from aspcw.errors import NormalizationError, ParseError
from aspcw.program import (Program, Rule, is_model, is_model_of_rule,
                           make_rule, parse_program, reduct,
                           serialize_program, validate_program)


class TestParse:
    def test_running_example(self, example1):
        assert example1.atoms == ("x", "y")
        r1, r2 = example1.rules
        assert r1 == make_rule("r1", head=["x"], neg_body=["y"])
        assert r2 == make_rule("r2", pos_body=["x"], neg_body=["y"])

    def test_empty_input(self):
        p = parse_program("")
        assert p.atoms == () and p.rules == ()

    def test_disjunctive_fact(self):
        p = parse_program("a | b.")
        (r,) = p.rules
        assert r.head == {"a", "b"}
        assert not r.pos_body and not r.neg_body

    def test_constraint_and_fact(self):
        p = parse_program("a.\n:- a.")
        assert p.rules[0].head == {"a"}
        assert p.rules[1].head == frozenset()
        assert p.rules[1].pos_body == {"a"}

    def test_bare_dot_is_empty_rule(self):
        p = parse_program(".")
        (r,) = p.rules
        assert not r.head and not r.pos_body and not r.neg_body

    def test_named_rule(self):
        p = parse_program("@s: :- x, not y.")
        assert p.rules[0].id == "s"

    def test_default_ids_by_position(self):
        p = parse_program("a.\nb.\nc.")
        assert [r.id for r in p.rules] == ["r1", "r2", "r3"]

    def test_duplicate_rule_id_rejected(self):
        with pytest.raises(ParseError):
            parse_program("@s: a.\n@s: b.")

    @pytest.mark.parametrize("text, ids", [
        # r1 is an atom, so the rule takes the first free id past the last rule.
        ("r1.", ["r2"]),
        ("r1.\nr2 :- r3.\n@r4: x.", ["r5", "r6", "r4"]),
        # A `@` id, before or after, makes an unnamed rule skip its name.
        ("@r2: a.\nb.", ["r2", "r3"]),
        ("a.\n@r1: b.", ["r3", "r1"]),
        ("@q: a.\nb.", ["q", "r2"]),
    ])
    def test_default_ids_skip_atoms_and_named_rules(self, text, ids):
        p = parse_program(text)
        assert [r.id for r in p.rules] == ids
        assert validate_program(p) == []
        assert parse_program(serialize_program(p)) == p

    @pytest.mark.parametrize("text, line, col", [
        ("@x: a.\nx.", 1, 1),
        ("a.\n  @a: b.", 2, 3),
    ])
    def test_named_rule_naming_an_atom_rejected(self, text, line, col):
        with pytest.raises(ParseError, match="rule id .* is also an atom name") as err:
            parse_program(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_atom_in_two_parts_rejected(self):
        with pytest.raises(NormalizationError):
            parse_program("a :- a.")
        with pytest.raises(NormalizationError):
            parse_program(":- a, not a.")

    def test_twin_rules_share_parts(self):
        p = parse_program("a | b :- c, not d.\n@s: a | b :- c, not d.\n"
                          "a | b :- c.\na|b :- c, not d.")
        r1, r2, r3, r4 = p.rules
        assert r1.head is r2.head
        assert r1.pos_body is r2.pos_body
        assert r1.neg_body is r2.neg_body
        # Other text gives other objects, whatever the parts are equal.
        assert r3.pos_body == r1.pos_body and r3.pos_body is not r1.pos_body
        assert r4.head == r1.head and r4.head is not r1.head

    def test_parses_share_nothing(self):
        text = ":- a, b.\n:- a, b.\n"
        first, second = parse_program(text), parse_program(text)
        assert first == second
        assert first.rules[0].pos_body is not second.rules[0].pos_body

    def test_repeated_overlapping_rule_rejected_at_its_first_line(self):
        with pytest.raises(NormalizationError, match=r"rule r1 \(line 1\)"):
            parse_program("a :- a.\na :- a.\n")

    def test_comments_ignored(self):
        p = parse_program("% leading comment\na. % trailing\n")
        assert p.atoms == ("a",)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("a.\n$")
        assert err.value.line == 2

    def test_atoms_in_first_occurrence_order(self):
        p = parse_program("b :- a.\nc.")
        assert p.atoms == ("b", "a", "c")


# The grammar, pinned by example: each accepted text with the rules it gives
# as (id, head, pos_body, neg_body).
ACCEPTED = [
    ("nota.", [("r1", {"nota"}, set(), set())]),
    ("not_x.", [("r1", {"not_x"}, set(), set())]),
    ("a :- not\nb.", [("r1", {"a"}, set(), {"b"})]),
    ("@s::- a.", [("s", set(), {"a"}, set())]),
    (".", [("r1", set(), set(), set())]),
    ("a|b.", [("r1", {"a", "b"}, set(), set())]),
    ("a. % b. c, d\nb :- a, not c. % x, y.",
     [("r1", {"a"}, set(), set()), ("r2", {"b"}, {"a"}, {"c"})]),
]

# Each rejected text with the line its error is on.
REJECTED = [
    ("ok.\nnot.", 2),
    ("ok.\na :- not not x.", 2),
    ("ok.\n:- .", 2),
    ("ok.\na b.", 2),
    ("ok.\nA.", 2),
    ("ok.\n1.", 2),
    ("ok.\na :- b,.", 2),
    ("ok.\n@s:-a.", 2),
    ("ok.\na", 2),
    ("a.\n$", 2),
    ("ok.\na :- not a.", 2),
    # Long runs of whitespace around optional parts must fail in linear time.
    ("ok.\n@s" + " " * 50000 + ":" + " " * 50000 + "$", 2),
]


class TestGrammar:
    @pytest.mark.parametrize("text,rules", ACCEPTED)
    def test_accepted(self, text, rules):
        assert parse_program(text).rules == tuple(
            make_rule(*rule) for rule in rules)

    @pytest.mark.parametrize("text,line", REJECTED)
    def test_rejected(self, text, line):
        with pytest.raises((ParseError, NormalizationError)) as err:
            parse_program(text)
        if isinstance(err.value, ParseError):
            assert err.value.line == line
        else:
            assert f"(line {line})" in str(err.value)

    @pytest.mark.parametrize("text", ["@s:", "a. @s:", "@s: %c"])
    def test_named_rule_cut_off_at_end(self, text):
        with pytest.raises(ParseError):
            parse_program(text)

    def test_error_names_start_of_rule(self):
        with pytest.raises(ParseError) as err:
            parse_program("a.\n  b :- c,\n  not 1.")
        assert (err.value.line, err.value.col) == (2, 3)
        assert "'b :- c,\\n  not 1.'" in str(err.value)


class TestSemantics:
    def test_constraint_rule_not_modeled(self):
        r = make_rule("s", pos_body=["x"], neg_body=["y"])
        assert is_model_of_rule(r, frozenset({"x"})) is False

    def test_empty_rule_never_modeled(self):
        r = make_rule("r")
        assert is_model_of_rule(r, frozenset()) is False

    def test_blocked_negative_body(self):
        r = make_rule("r", head=["x"], neg_body=["y"])
        assert is_model_of_rule(r, frozenset({"x", "y"})) is True

    def test_running_example_models(self, example1):
        assert is_model(example1, {"x", "y"}) is True
        assert is_model(example1, {"x"}) is False

    def test_no_rules_everything_models(self):
        p = Program(("a",), ())
        assert is_model(p, set()) and is_model(p, {"a"})


class TestReduct:
    def test_rule_dropped_when_neg_body_hit(self):
        p = parse_program(":- not x.")
        red = reduct(p, {"x"})
        assert red.atoms == ("x",)
        assert red.rules == ()

    def test_neg_bodies_stripped(self, example1):
        red = reduct(example1, set())
        assert [r.id for r in red.rules] == ["r1", "r2"]
        assert all(not r.neg_body for r in red.rules)
        assert red.rules[0].head == {"x"}
        assert red.rules[1].pos_body == {"x"}

    def test_identity_without_negation(self):
        p = parse_program("a :- b.\nb.")
        assert reduct(p, set()) == p

    def test_model_survives_reduct(self, example1):
        interp = frozenset({"x", "y"})
        assert is_model(example1, interp)
        assert is_model(reduct(example1, interp), interp)


class TestValidate:
    def test_running_example_ok(self, example1):
        assert validate_program(example1) == []

    def test_overlapping_parts_flagged(self):
        p = Program(("a",), (Rule("r1", frozenset({"a"}), frozenset({"a"}),
                                  frozenset()),))
        assert any("more than one part" in msg for msg in validate_program(p))

    def test_duplicate_atoms_flagged(self):
        p = Program(("x", "x"), ())
        assert any("duplicate atom" in msg for msg in validate_program(p))

    @pytest.mark.parametrize("name", ["not", "a\n", "A", "1a", ""])
    def test_bad_atom_name_flagged(self, name):
        p = Program((name,), ())
        assert any("bad atom name" in msg for msg in validate_program(p))

    def test_rule_id_naming_an_atom_flagged(self):
        p = Program(("x", "a"), (make_rule("x", head=["a"]),))
        assert validate_program(p) == ["rule id 'x' is also an atom name"]

    def test_unknown_atom_flagged(self):
        p = Program(("a",), (make_rule("r1", head=["b"]),))
        assert any("unknown atoms" in msg for msg in validate_program(p))


class TestRule:
    def test_fields_cannot_change(self):
        r = make_rule("r1", ["a"], ["b"], ["c"])
        for name in ("id", "head", "pos_body", "neg_body"):
            with pytest.raises(AttributeError):
                setattr(r, name, frozenset())
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert not hasattr(r, "__dict__")

    def test_equality_hash_and_repr(self):
        r = make_rule("r1", ["a"], ["b"], ["c"])
        fields = ("r1", frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
        assert r == Rule(*fields) and hash(r) == hash(fields)
        assert r != make_rule("r2", ["a"], ["b"], ["c"])
        assert r != make_rule("r1", ["a"], ["c"], ["b"])
        assert r != fields
        assert repr(r) == ("Rule(id='r1', head=frozenset({'a'}), "
                           "pos_body=frozenset({'b'}), "
                           "neg_body=frozenset({'c'}))")
        assert repr(Rule(id="r2", head=frozenset(), pos_body=frozenset(),
                         neg_body=frozenset())) == \
            ("Rule(id='r2', head=frozenset(), pos_body=frozenset(), "
             "neg_body=frozenset())")

    def test_pickle_and_copy(self, example1):
        for r in example1.rules:
            for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r),
                         copy.deepcopy(r)):
                assert type(twin) is Rule and twin == r and twin is not r
                assert hash(twin) == hash(r) and repr(twin) == repr(r)
        assert pickle.loads(pickle.dumps(example1)) == example1


class TestSerialize:
    def test_round_trip_running_example(self, example1):
        assert parse_program(serialize_program(example1)) == example1

    def test_round_trip_named_and_disjunctive(self):
        text = "@pick: a | b.\n:- a, not b.\n"
        p = parse_program(text)
        assert parse_program(serialize_program(p)) == p

    def test_empty_program(self):
        assert serialize_program(Program((), ())) == ""
