"""The set-bits helper, and label masks (built by the test helper
`conftest.label_mask`) read back as label sets."""

import pytest

from aspcw.graphs import bits
from aspcw.tables import mask_labels
from conftest import label_mask


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
