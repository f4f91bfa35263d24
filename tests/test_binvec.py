import itertools

import pytest
from hypothesis import given

from logizono.binvec import BinaryMatrix, BinaryVector, Gate, bv_not, bv_op
from logizono.errors import DimensionError

from conftest import vector_pairs

SCALAR = {
    Gate.XOR: lambda a, b: a ^ b,
    Gate.AND: lambda a, b: a & b,
    Gate.OR: lambda a, b: a | b,
    Gate.XNOR: lambda a, b: 1 - (a ^ b),
    Gate.NAND: lambda a, b: 1 - (a & b),
    Gate.NOR: lambda a, b: 1 - (a | b),
}


def test_xor_truth_table():
    a = BinaryVector.from_bits([1, 0, 1])
    b = BinaryVector.from_bits([1, 1, 0])
    assert bv_op(a, b, Gate.XOR) == BinaryVector.from_bits([0, 1, 1])


def test_and_truth_table():
    a = BinaryVector.from_bits([1, 1])
    b = BinaryVector.from_bits([1, 0])
    assert bv_op(a, b, Gate.AND) == BinaryVector.from_bits([1, 0])


def test_not_basic():
    assert bv_not(BinaryVector.from_bits([0, 1, 0])) == \
        BinaryVector.from_bits([1, 0, 1])
    assert bv_not(BinaryVector.zeros(4)) == BinaryVector.ones(4)


def test_all_gates_match_scalar_tables_dim3():
    for abits, bbits in itertools.product(range(8), repeat=2):
        a = BinaryVector(3, abits)
        b = BinaryVector(3, bbits)
        for gate, fn in SCALAR.items():
            got = bv_op(a, b, gate)
            for i in range(3):
                assert got[i] == fn(a[i], b[i])


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        bv_op(BinaryVector.zeros(2), BinaryVector.zeros(3), Gate.XOR)


def test_string_round_trip():
    v = BinaryVector.from_string("01101")
    assert v.to_string() == "01101"
    assert v[0] == 0 and v[1] == 1


@pytest.mark.parametrize("i", [-1, 5])
def test_index_out_of_range(i):
    with pytest.raises(IndexError):
        BinaryVector.from_string("01101")[i]


@given(vector_pairs())
def test_xor_commutes(pair):
    a, b = pair
    assert bv_op(a, b, Gate.XOR) == bv_op(b, a, Gate.XOR)


@given(vector_pairs())
def test_xor_self_inverse(pair):
    a, _ = pair
    assert bv_op(a, a, Gate.XOR).is_zero()


@given(vector_pairs())
def test_not_is_xor_with_ones(pair):
    a, _ = pair
    assert bv_not(a) == bv_op(a, BinaryVector.ones(a.dim), Gate.XOR)
    assert bv_not(bv_not(a)) == a


def test_matrix_columns_checked():
    with pytest.raises(DimensionError):
        BinaryMatrix(2, (BinaryVector.zeros(3),))


def test_matrix_hstack_rejects_other_row_counts():
    m2 = BinaryMatrix(2, (BinaryVector(2, 1),))
    m3 = BinaryMatrix(3, (BinaryVector(3, 1),))
    with pytest.raises(DimensionError, match="row counts differ"):
        m2.hstack(m3)


def test_matrix_hstack():
    m1 = BinaryMatrix(2, (BinaryVector(2, 1),))
    m2 = BinaryMatrix(2, (BinaryVector(2, 2), BinaryVector(2, 3)))
    assert m1.hstack(m2).cols == 3
    assert m1.hstack(m2).col(2) == BinaryVector(2, 3)
