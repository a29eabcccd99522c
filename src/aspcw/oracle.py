"""Exhaustive ground-truth semantics: the trusted slow path.

Everything here is deliberately brute force; it exists to cross-check the
decomposition-based solvers on small instances.
"""

from __future__ import annotations

from typing import Iterator

from .errors import BoundExceededError
from .program import Program, is_model, reduct

DEFAULT_ENUMERATION_BOUND = 20


def _subsets(atoms: tuple[str, ...]) -> Iterator[frozenset[str]]:
    # Binary counting with the first atom as the least significant bit;
    # fixed so outputs are deterministic and diffable.
    n = len(atoms)
    for m in range(1 << n):
        yield frozenset(atoms[i] for i in range(n) if m >> i & 1)


def _check_bound(program: Program, bound: int) -> None:
    if len(program.atoms) > bound:
        raise BoundExceededError(
            f"{len(program.atoms)} atoms exceeds enumeration bound {bound}")


def enumerate_models(program: Program,
                     bound: int = DEFAULT_ENUMERATION_BOUND) -> list[frozenset[str]]:
    _check_bound(program, bound)
    return [i for i in _subsets(program.atoms) if is_model(program, i)]


def is_answer_set(program: Program, candidate: frozenset[str] | set[str]) -> bool:
    """Model of the program with no proper subset modeling the reduct.

    The minimality check enumerates proper subsets directly, with no pruning.
    """
    candidate = frozenset(candidate)
    if not is_model(program, candidate):
        return False
    red = reduct(program, candidate)
    ordered = tuple(sorted(candidate))
    for sub in _subsets(ordered):
        if sub != candidate and is_model(red, sub):
            return False
    return True


def enumerate_answer_sets(program: Program,
                          bound: int = DEFAULT_ENUMERATION_BOUND) -> list[frozenset[str]]:
    _check_bound(program, bound)
    return [m for m in enumerate_models(program, bound)
            if is_answer_set(program, m)]
