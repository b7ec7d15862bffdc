import pytest

from gaudin.errors import NotAPartition
from gaudin.weights import (check_partition, derive_infinity_weight,
                            root_pairing, weight_size, weight_sub_roots)


def test_check_partition():
    assert check_partition([3, 1, 0]) == (3, 1, 0)
    assert check_partition((0, 0)) == (0, 0)
    with pytest.raises(NotAPartition):
        check_partition([1, 2])
    with pytest.raises(NotAPartition):
        check_partition([2, -1])
    assert check_partition([2, 1], N=2) == (2, 1, 0)   # padded to N+1 rows
    with pytest.raises(NotAPartition):
        check_partition([2, 1, 0, 0], N=2)             # longer than N+1 rows


def test_weight_size():
    assert weight_size((3, 1, 0)) == 4


def test_root_pairing_hand_values():
    # pairing of a weight with the i-th simple root is lam_i - lam_{i+1}
    assert root_pairing((3, 1, 0), 1) == 2
    assert root_pairing((3, 1, 0), 2) == 1
    assert root_pairing((2, 2), 1) == 0


def test_derive_infinity_weight():
    # two sites (1,0) with one lowering: (2,0) - alpha = (1,1)
    assert derive_infinity_weight([(1, 0), (1, 0)], (1,), 1) == (1, 1)
    assert derive_infinity_weight([(2, 1, 0), (2, 1, 0)], (1, 1), 2) == (3, 2, 1)
    assert derive_infinity_weight([(1, 0, 0), (1, 1, 0)], (1, 1), 2) == (1, 1, 1)
    with pytest.raises(NotAPartition):
        # (2,0) - 2*alpha = (0,2) is not dominant
        derive_infinity_weight([(1, 0), (1, 0)], (2,), 1)


def test_weight_sub_roots_matches_infinity_weight():
    total = (4, 2, 0)    # (2, 1, 0) + (2, 1, 0)
    assert weight_sub_roots(total, (1, 1), 2) == (3, 2, 1)

