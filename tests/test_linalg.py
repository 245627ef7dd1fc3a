from fractions import Fraction
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from petersonlab import linalg, peterson

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


# -- the fraction-free kernel against Fraction Gauss-Jordan ----------------

def _ref_echelon(a):
    """Gauss-Jordan in the entries' own arithmetic, first nonzero pivot:
    (reduced rows, pivot columns)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _ref_kernel(a):
    cols = len(a[0])
    m, pivots = _ref_echelon(a)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def _ref_solve_matrix(a, b):
    cols = len(a[0])
    m, pivots = _ref_echelon([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if any(p >= cols for p in pivots):
        raise ValueError("inconsistent linear system")
    if len(pivots) < cols:
        raise ValueError("singular linear system")
    return [m[r][cols:] for r in range(cols)]


def _ref_det(a):
    """Fraction Gaussian elimination, the sign flipped once per swap."""
    n = len(a)
    m = [list(row) for row in a]
    d = F(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def _matrices(draw, rows=None, cols=None):
    """Rational matrices up to 5x5, about half of them products through a
    narrower inner dimension, hence rank-deficient."""
    r = rows or draw(st.integers(1, 5))
    c = cols or draw(st.integers(1, 5))
    entries = st.one_of(st.just(F(0)), rationals)

    def mat(p, q):
        return draw(st.lists(st.lists(entries, min_size=q, max_size=q),
                             min_size=p, max_size=p))
    k = draw(st.integers(0, min(r, c)))
    if k < min(r, c) and draw(st.booleans()):
        if k == 0:
            return [[F(0)] * c for _ in range(r)]
        return linalg.mat_mul(mat(r, k), mat(k, c))
    return mat(r, c)


@given(_matrices())
def test_rank_and_kernel_match_fraction_gauss_jordan(mat):
    assert linalg.rank(mat) == len(_ref_echelon(mat)[1])
    ker = linalg.kernel_basis(mat)
    assert ker == _ref_kernel(mat)
    assert all(type(v) is F for vec in ker for v in vec)


@given(_matrices(), st.data())
def test_solve_matches_fraction_gauss_jordan(mat, data):
    b = data.draw(st.lists(rationals, min_size=len(mat), max_size=len(mat)))
    want = _outcome(_ref_solve_matrix, mat, [[v] for v in b])
    if isinstance(want, list):
        want = [row[0] for row in want]
    assert _outcome(linalg.solve, mat, b) == want


@given(st.integers(1, 5).flatmap(lambda n: _matrices(n, n)))
def test_inverse_and_det_match_fraction_gauss_jordan(mat):
    n = len(mat)
    assert _outcome(linalg.inverse, mat) == \
        _outcome(_ref_solve_matrix, mat, linalg.identity(n))
    d = linalg.det(mat)
    assert type(d) is F and d == _ref_det(mat)


floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.lists(st.lists(floats, min_size=3, max_size=3), min_size=3,
                max_size=3), st.lists(floats, min_size=3, max_size=3))
def test_solve_reads_floats_exactly(mat, b):
    exact = [[F(v) for v in row] for row in mat]
    assert _outcome(linalg.solve, mat, b) == \
        _outcome(linalg.solve, exact, [F(v) for v in b])


def _newton_solve_outcome(jac, r):
    """_newton_solve against the float Gauss-Jordan: the same floats bit
    for bit, or a ValueError on both sides."""
    try:
        want = [row[0] for row in _ref_solve_matrix(jac, [[v] for v in r])]
    except ValueError:
        with pytest.raises(ValueError):
            peterson._newton_solve(jac, r)
        return
    got = peterson._newton_solve(jac, r)
    fmt = "<%dd" % len(r)
    assert struct.pack(fmt, *got) == struct.pack(fmt, *want)


@st.composite
def _float_systems(draw):
    """An n x n float system, n = 1, 2 or 3 with 2 (the unrolled path)
    drawn half the time, with signed zeros often enough to hit the row
    swap and the skipped eliminations."""
    n = draw(st.sampled_from([1, 2, 2, 3]))
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), floats)
    row = st.lists(entries, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n)), draw(row)


@settings(max_examples=300)
@given(_float_systems())
def test_newton_solve_matches_float_gauss_jordan(system):
    """The Newton step's float solve repeats the float Gauss-Jordan bit for
    bit, on the unrolled 2 x 2 path and the general loop alike, and
    refuses a singular Jacobian."""
    _newton_solve_outcome(*system)


@pytest.mark.parametrize("jac, r", [
    ([[0.0, 2.0], [3.0, 1.0]], [1.0, 2.0]),      # zero first pivot: swap
    ([[-0.0, 2.0], [3.0, -1.5]], [0.1, 0.7]),
    ([[2.0, 1.0], [0.0, 3.0]], [-1.0, -0.0]),    # zero below the pivot
    ([[2.0, 0.0], [0.7, 3.0]], [-0.0, -1.0]),    # zero above the pivot
    ([[0.0, 1.0], [1.0, 0.0]], [0.2, 0.9]),      # swap, both zeros
    ([[0.0, 1.0], [0.0, 2.0]], [1.0, 2.0]),      # no first pivot
    # a Jacobian entry that overflowed: the loop's unit pivot inf / inf is
    # NaN, which the unrolled path never forms
    ([[math.inf, 1.0], [2.0, 3.0]], [1.0, 2.0]),
    ([[1.0, 2.0], [3.0, -math.inf]], [1.0, 2.0]),
    ([[0.0, 1.0], [math.inf, 3.0]], [1.0, 2.0]),
    ([[math.inf, math.inf], [math.inf, math.inf]], [1.0, 2.0]),
    ([[math.nan, 1.0], [2.0, 3.0]], [1.0, 2.0]),
    ([[1.0, 1.0], [math.nan, 3.0]], [1.0, 2.0]),
])
def test_newton_solve_two_by_two_cases(jac, r):
    _newton_solve_outcome(jac, r)


def test_newton_solve_rejects_a_singular_jacobian():
    with pytest.raises(ValueError):
        peterson._newton_solve([[1.0, 2.0], [0.5, 1.0]], [1.0, 0.0])
    with pytest.raises(ValueError):
        peterson._newton_solve([[1.0, 2.0], [0.0, 1.0]], [float("inf"), 0.0])
