"""Ground disjunctive programs: data model, parser, and basic transforms.

A program is a set of named atoms plus rules of the form

    a1 | ... | al :- b1, ..., bm, not c1, ..., not cn.

Atoms are plain strings.  Rules keep their head, positive body, and negative
body as frozensets of atom names.  In a parsed program, rules whose head
and body are written the same way share their three frozensets, so a dict
keyed on parts finds twin rules by identity.  A program has a signed
incidence graph when its atom names and rule ids are all distinct and each
rule's three parts are pairwise disjoint (an atom in two parts would need
two signs on one edge) and name only listed atoms.  `parse_program` ensures
all of them; for a `Program` built by hand, `graphs._incidence_vertices`
checks them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable

from .errors import NormalizationError, ParseError

AtomSet = frozenset[str]


class Record:
    """An immutable record over `__slots__`.  A subclass's `__init__` sets
    each field once, through the slot's setter from `setters`; after that a
    field can be neither assigned nor deleted.  Equality, hashing and repr
    go by the class and the field values, as a frozen dataclass's do, and a
    record pickles and copies by calling its class on its fields."""

    __slots__ = ()

    @classmethod
    def setters(cls) -> list[Callable[[object, object], None]]:
        """The `__set__` of each slot's descriptor, in slot order."""
        return [cls.__dict__[name].__set__ for name in cls.__slots__]

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"


class Rule(Record):
    __slots__ = ("id", "head", "pos_body", "neg_body")

    def __init__(self, id: str, head: AtomSet, pos_body: AtomSet,
                 neg_body: AtomSet):
        _rule_id(self, id)
        _rule_head(self, head)
        _rule_pos_body(self, pos_body)
        _rule_neg_body(self, neg_body)


_rule_id, _rule_head, _rule_pos_body, _rule_neg_body = Rule.setters()


@dataclass(frozen=True)
class Program:
    atoms: tuple[str, ...]
    rules: tuple[Rule, ...]

    def atom_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.atoms)}


def make_rule(rule_id: str,
              head: Iterable[str] = (),
              pos_body: Iterable[str] = (),
              neg_body: Iterable[str] = ()) -> Rule:
    return Rule(rule_id, frozenset(head), frozenset(pos_body), frozenset(neg_body))


def is_model_of_rule(rule: Rule, interp: AtomSet | set[str]) -> bool:
    """True iff (pos_body ⊆ I and neg_body ∩ I = ∅) implies head ∩ I ≠ ∅."""
    if rule.pos_body <= interp and not (rule.neg_body & interp):
        return bool(rule.head & interp)
    return True


def is_model(program: Program, interp: AtomSet | set[str]) -> bool:
    return all(is_model_of_rule(r, interp) for r in program.rules)


def reduct(program: Program, interp: AtomSet | set[str]) -> Program:
    """Drop rules whose negative body meets I; strip negative bodies from the rest.

    Atoms and the ids of surviving rules are preserved.
    """
    kept = tuple(
        Rule(r.id, r.head, r.pos_body, frozenset())
        for r in program.rules
        if not (r.neg_body & interp)
    )
    return Program(program.atoms, kept)


def validate_program(program: Program) -> list[str]:
    """Return a list of invariant violations; empty means the program is valid."""
    problems = []
    seen_atoms = set()
    for a in program.atoms:
        if not ATOM_NAME.fullmatch(a):
            problems.append(f"bad atom name {a!r}")
        if a in seen_atoms:
            problems.append(f"duplicate atom name {a!r}")
        seen_atoms.add(a)
    known = set(program.atoms)
    seen_ids = set()
    for r in program.rules:
        if r.id in seen_ids:
            problems.append(f"duplicate rule id {r.id!r}")
        if r.id in known:
            problems.append(f"rule id {r.id!r} is also an atom name")
        seen_ids.add(r.id)
        for part_name, part in (("head", r.head), ("pos_body", r.pos_body),
                                ("neg_body", r.neg_body)):
            missing = part - known
            if missing:
                problems.append(
                    f"rule {r.id}: {part_name} references unknown atoms "
                    f"{sorted(missing)}")
        overlap = (r.head & r.pos_body) | (r.head & r.neg_body) | (r.pos_body & r.neg_body)
        if overlap:
            problems.append(
                f"rule {r.id}: atoms {sorted(overlap)} occur in more than one part")
    return problems


# ---------------------------------------------------------------------------
# Parsing and serialization
#
# Grammar (UTF-8, '%' starts a comment that runs to the end of its line,
# whitespace may separate any two tokens, so a rule may span lines):
#   rule    := ["@" id ":"] head? (":-" body)? "."
#   head    := atom ("|" atom)*
#   body    := literal ("," literal)*
#   literal := atom | "not" atom
#   id      := [a-z][A-Za-z0-9_]*
#   atom    := an id other than "not"
# ---------------------------------------------------------------------------

# The identifiers, the whitespace runs and the head and body repetitions
# are possessive (`*+`, `++`): they never give back what they matched, so a
# match keeps no backtracking state for them.  Giving back would never help:
# an identifier is followed by '|', ',', ':-', '.' or whitespace, a
# whitespace run by a non-space, and a repetition by ':-' or '.', none of
# which an earlier token can give back.  So the matches and their ends are
# those of the greedy pattern.  Python 3.10's `re` rejects the marks
# ("multiple repeat"); there `_P` is empty and the pattern is greedy.
try:
    re.compile(r"\s*+")
except re.error:
    _P = ""
else:
    _P = "+"
_ID = rf"[a-z][A-Za-z0-9_]*{_P}"
_ATOM = rf"(?!not\b){_ID}"
_S = rf"\s*{_P}"
_LITERAL = rf"(?:not\s+{_P})?{_ATOM}"
# One rule and the whitespace after it; the head is split on '|' and the
# body on ',' once the rule has matched.  Each run of whitespace is matched
# by the one \s* after the token before it, so a failed match backtracks in
# linear time.
_RULE = re.compile(rf"""(?:@{_S}(?P<id>{_ID}){_S}:(?!-){_S})?
    (?P<head>{_ATOM}{_S}(?:\|{_S}{_ATOM}{_S})*{_P})?
    (?::-{_S}(?P<body>{_LITERAL}{_S}(?:,{_S}{_LITERAL}{_S})*{_P}))?\.{_S}""",
                   re.VERBOSE)
_COMMENT = re.compile(r"%[^\n]*")

ATOM_NAME = re.compile(_ATOM)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def parse_program(text: str) -> Program:
    """Parse program text; atoms are kept in first-occurrence order.

    Once the whole text is read, an unnamed rule gets the id r<k> for its
    position k in the file, or, if an atom or a `@` id has that name, the
    next of r<n+1>, r<n+2>, ... (n rules) that none has.  A syntax error,
    a repeated `@` id and a `@` id that names an atom are ParseErrors that
    name the line and column where the rule starts.
    """
    # A comment runs to the end of its line, so dropping it keeps every
    # other character on its line and column.
    text = _COMMENT.sub("", text)
    atoms: dict[str, None] = {}
    rules: list[tuple[str | None, tuple[AtomSet, AtomSet, AtomSet]]] = []
    named: dict[str, int] = {}  # `@` id -> where its rule starts
    # Head and body text -> the rule's parts.  The same text always gives
    # the same atoms, parts and overlap check, so a rule written like an
    # earlier one reuses that rule's frozensets and skips all three.
    parts: dict[tuple[str | None, str | None], tuple[AtomSet, AtomSet, AtomSet]] = {}
    pos = re.match(r"\s*", text).end()
    while pos < len(text):
        m = _RULE.match(text, pos)
        if m is None:
            end = text.find(".", pos)
            rule = text[pos:] if end < 0 else text[pos:end + 1]
            raise ParseError(f"malformed rule {rule[:60]!r}", *_line_col(text, pos))
        rule_id = m["id"]
        if rule_id in named:
            raise ParseError(f"duplicate rule id {rule_id!r}", *_line_col(text, pos))
        key = m.group("head", "body")
        got = parts.get(key)
        if got is None:
            head = (key[0] or "").replace("|", " ").split()
            # In a body that matched _RULE, the word "not" negates the word
            # after it, and every other word is a positive literal.
            words = (key[1] or "").replace(",", " ").split()
            atoms.update(dict.fromkeys(head))
            atoms.update(dict.fromkeys(words))
            positive, negated = words, []
            if "not" in words:
                del atoms["not"]  # no atom is named "not"
                positive = []
                tokens = iter(words)
                for word in tokens:
                    if word == "not":
                        negated.append(next(tokens))
                    else:
                        positive.append(word)
            hs, ps, ns = frozenset(head), frozenset(positive), frozenset(negated)
            overlap = (hs & ps) | (hs & ns) | (ps & ns)
            if overlap:
                raise NormalizationError(
                    f"rule {rule_id or f'r{len(rules) + 1}'} (line "
                    f"{_line_col(text, pos)[0]}): atoms {sorted(overlap)} occur "
                    f"in more than one part")
            got = parts[key] = hs, ps, ns
        if rule_id:
            named[rule_id] = pos
        rules.append((rule_id, got))
        pos = m.end()
    for rule_id, start in named.items():
        if rule_id in atoms:
            raise ParseError(f"rule id {rule_id!r} is also an atom name",
                             *_line_col(text, start))
    fresh = (f"r{n}" for n in count(len(rules) + 1)
             if f"r{n}" not in atoms and f"r{n}" not in named)
    with_ids = []
    for k, (rule_id, (hs, ps, ns)) in enumerate(rules, 1):
        if rule_id is None:
            rule_id = f"r{k}"
            if rule_id in atoms or rule_id in named:
                rule_id = next(fresh)
        with_ids.append(Rule(rule_id, hs, ps, ns))
    return Program(tuple(atoms), tuple(with_ids))


def serialize_program(program: Program) -> str:
    """Render a program in the file grammar.

    Rule parts are ordered by the program's atom order, so parsing the output
    of a parsed program gives back an identical Program.  Atoms that occur in
    no rule cannot be expressed in the grammar and are dropped.
    """
    order = program.atom_index()
    lines = []
    for index, r in enumerate(program.rules, 1):
        text = ""
        if r.id != f"r{index}":
            text += f"@{r.id}: "
        text += " | ".join(sorted(r.head, key=order.__getitem__))
        body = [a for a in sorted(r.pos_body, key=order.__getitem__)]
        body += [f"not {a}" for a in sorted(r.neg_body, key=order.__getitem__)]
        if body:
            if text and not text.endswith(" "):
                text += " "
            text += ":- " + ", ".join(body)
        lines.append(text.strip() + ".")
    return "\n".join(lines) + ("\n" if lines else "")
