"""Table entries for the decomposition-based solvers.

A KTriple (T, F, U) holds three label sets as bitmasks (label l -> bit l-1):
labels of true atoms, false atoms, and not-yet-satisfied rules.  A KPair
extends a triple with the table of its candidate's proper subsets evaluated
against the reduct.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


def label_mask(labels: Iterable[int]) -> int:
    mask = 0
    for l in labels:
        if l < 1:
            raise ValueError(f"labels are positive integers, got {l}")
        mask |= 1 << (l - 1)
    return mask


def bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_labels(mask: int) -> frozenset[int]:
    return frozenset(b + 1 for b in bits(mask))


class KTriple(NamedTuple):
    t: int
    f: int
    u: int

    @classmethod
    def from_sets(cls, true_labels: Iterable[int], false_labels: Iterable[int],
                  unsat_labels: Iterable[int]) -> "KTriple":
        return cls(label_mask(true_labels), label_mask(false_labels),
                   label_mask(unsat_labels))

    def to_sets(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return mask_labels(self.t), mask_labels(self.f), mask_labels(self.u)

    def __repr__(self) -> str:
        def fmt(mask):
            return "{" + ",".join(map(str, sorted(mask_labels(mask)))) + "}"
        return f"({fmt(self.t)},{fmt(self.f)},{fmt(self.u)})"


class KPair(NamedTuple):
    q: KTriple
    gamma: frozenset[KTriple]

