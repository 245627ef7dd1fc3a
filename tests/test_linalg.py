from fractions import Fraction
import math

from hypothesis import given, strategies as st

from petersonlab import linalg

F = Fraction


def test_solve_and_inverse_roundtrip():
    a = [[F(2), F(1)], [F(1), F(3)]]
    x = linalg.solve(a, [F(5), F(10)])
    assert [sum(r[j] * x[j] for j in range(2)) for r in a] == [F(5), F(10)]
    inv = linalg.inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(2)


def test_kernel_basis_spans_null_space():
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    ker = linalg.kernel_basis(a)
    assert len(ker) == 2
    for v in ker:
        assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in a)


def test_rank_and_det():
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.det([[F(1), F(2)], [F(3), F(4)]]) == F(-2)


def test_solve_overdetermined_consistent():
    a = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    x = linalg.solve(a, [F(2), F(3), F(5)])
    assert x == [F(2), F(3)]


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_vanishes_iff_rank_deficient(mat):
    assert (linalg.det(mat) == 0) == (linalg.rank(mat) < 3)


@given(st.lists(rationals, min_size=2, max_size=2),
       st.lists(rationals, min_size=2, max_size=2))
def test_mat_vec_linearity(u, v):
    a = [[F(1), F(2)], [F(3), F(5)]]
    lhs = linalg.mat_vec(a, [x + y for x, y in zip(u, v)])
    rhs = [x + y for x, y in zip(linalg.mat_vec(a, u), linalg.mat_vec(a, v))]
    assert lhs == rhs


@given(st.lists(rationals, min_size=1, max_size=5).filter(any))
def test_primitive_is_coprime_and_parallel(vec):
    prim = linalg.primitive(vec)
    assert all(type(v) is int for v in prim)
    assert math.gcd(*prim) == 1
    k = next(i for i, v in enumerate(vec) if v)
    scale = Fraction(prim[k]) / vec[k]
    assert scale > 0
    assert [scale * v for v in vec] == list(prim)
