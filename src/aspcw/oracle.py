"""Exhaustive ground-truth semantics: the trusted slow path.

Everything here is deliberately brute force; it exists to cross-check the
decomposition-based solvers on small instances.  Every interpretation is
decided for a model, and every proper subset of a model is checked for a
model of its reduct, until one is found.

An interpretation is an int: atom i of `program.atoms` is bit i.  An atom
that a rule names but the program does not list gets the bit one past the
last atom, which no interpretation sets, so it is false in all of them.
Each rule becomes its (head, pos, neg) masks once.  The models come from a
truth table, a 2^n-bit int whose bit m says whether interpretation m is a
model: a rule rules out the interpretations in its violating cube, where
its positive body is true and its other atoms false.  They are listed from
that int lowest first, one at a time, and a frozenset is built only for an
interpretation that is returned.  The result sets are built with the cyclic
collector paused: frozensets of atom names hold no reference cycle, so no
pass could free one.  The pause is process-wide, which is sound as aspcw
runs no threads, and the caller's collector state is restored.
"""

from __future__ import annotations

import gc
from collections.abc import Iterable, Iterator

from .errors import BoundExceededError
from .program import Program

DEFAULT_ENUMERATION_BOUND = 20

Masks = tuple[int, int, int]


def _check_bound(program: Program, bound: int) -> None:
    if len(program.atoms) > bound:
        raise BoundExceededError(
            f"{len(program.atoms)} atoms exceeds enumeration bound {bound}")


def _atom_bits(atoms: tuple[str, ...]) -> dict[str, int]:
    bits: dict[str, int] = {}
    for a in atoms:
        if a in bits:
            raise ValueError(f"duplicate atom {a!r}")
        bits[a] = 1 << len(bits)
    return bits


def _rule_masks(program: Program, bits: dict[str, int]) -> list[Masks]:
    unlisted = 1 << len(bits)

    def mask(part) -> int:
        m = 0
        for a in part:
            m |= bits.get(a, unlisted)
        return m

    return [(mask(r.head), mask(r.pos_body), mask(r.neg_body))
            for r in program.rules]


def _violated(m: int, checks: list[tuple[int, int]]) -> bool:
    """Whether some (care, pos) has `m & care == pos`: the rule's positive
    body is true in `m` and all of its other atoms are false."""
    for care, pos in checks:
        if m & care == pos:
            return True
    return False


def _model_checks(rules: list[Masks]) -> list[tuple[int, int]]:
    # A rule is violated exactly when none of pos & ~m, neg & m and head & m
    # is set, that is when m & (head | pos | neg) == pos.
    return [(h | p | n, p) for h, p, n in rules]


def _is_minimal(m: int, rules: list[Masks]) -> bool:
    """Whether no proper submask of the model `m` is a model of the reduct:
    the rules with `neg & m == 0`, without their negative bodies."""
    reduct = [(h | p, p) for h, p, n in rules if not n & m]
    j = m
    while j:
        j = (j - 1) & m
        if not _violated(j, reduct):
            return False
    return True


def _indicators(n: int) -> list[int]:
    """Entry i is the 2^n-bit set of the interpretations that hold atom i:
    bit m of it is bit i of m.  Each atom added doubles the interpretations,
    and every set so far is repeated over the new upper half."""
    holds: list[int] = []
    width = 1
    for _ in range(n):
        holds = [h | h << width for h in holds]
        holds.append(((1 << width) - 1) << width)
        width <<= 1
    return holds


def _truth_table(n: int, rules: list[Masks]) -> int:
    """The 2^n-bit set of the models: every interpretation but those in
    some rule's violating cube, the AND of the indicators of its atoms, each
    complemented unless the atom is in the positive body."""
    everything = (1 << (1 << n)) - 1
    holds = _indicators(n)
    violated = 0
    for h, p, neg in rules:
        if p >> n:
            continue  # the positive body names an unlisted atom
        cube = everything
        care = h | p | neg
        for i in range(n):
            if care >> i & 1:
                cube &= holds[i] if p >> i & 1 else ~holds[i]
        violated |= cube
    return everything ^ violated


def _model_masks(n: int, rules: list[Masks]) -> Iterator[int]:
    # Binary counting with the first atom as the least significant bit;
    # fixed so outputs are deterministic and diffable.  Character m of the
    # reversed binary text is bit m of the table, so str.find steps from
    # one model to the next.
    text = bin(_truth_table(n, rules))[:1:-1]
    m = text.find("1")
    while m >= 0:
        yield m
        m = text.find("1", m + 1)


def _subset_table(atoms: tuple[str, ...]) -> list[frozenset[str]]:
    """Entry k is the set of the atoms whose bits are set in k."""
    table = [frozenset()]
    for a in atoms:
        table += [s | {a} for s in table]
    return table


def _as_sets(atoms: tuple[str, ...],
             masks: Iterable[int]) -> list[frozenset[str]]:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Two tables of 2^(n/2) entries each, one per half of the bits.
        half = len(atoms) // 2
        low = (1 << half) - 1
        lo, hi = _subset_table(atoms[:half]), _subset_table(atoms[half:])
        return [lo[m & low] | hi[m >> half] for m in masks]
    finally:
        if was_enabled:
            gc.enable()


def enumerate_models(program: Program,
                     bound: int = DEFAULT_ENUMERATION_BOUND) -> list[frozenset[str]]:
    _check_bound(program, bound)
    rules = _rule_masks(program, _atom_bits(program.atoms))
    return _as_sets(program.atoms, _model_masks(len(program.atoms), rules))


def is_answer_set(program: Program, candidate: frozenset[str] | set[str]) -> bool:
    """Model of the program with no proper subset modeling the reduct.

    The minimality check enumerates proper subsets directly, with no pruning.
    An atom of the candidate that the program does not list is true, with a
    bit of its own.
    """
    candidate = frozenset(candidate)
    bits = _atom_bits(program.atoms)
    for a in candidate.difference(bits):
        bits[a] = 1 << len(bits)
    rules = _rule_masks(program, bits)
    m = 0
    for a in candidate:
        m |= bits[a]
    return not _violated(m, _model_checks(rules)) and _is_minimal(m, rules)


def enumerate_answer_sets(program: Program,
                          bound: int = DEFAULT_ENUMERATION_BOUND) -> list[frozenset[str]]:
    _check_bound(program, bound)
    rules = _rule_masks(program, _atom_bits(program.atoms))
    return _as_sets(program.atoms,
                    (m for m in _model_masks(len(program.atoms), rules)
                     if _is_minimal(m, rules)))
