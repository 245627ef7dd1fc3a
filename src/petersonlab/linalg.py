"""Exact linear algebra over the rationals.

Small dense routines on lists of rows whose entries are int, Fraction or
float: solve, rank, kernel, inverse, determinant and primitive integer
vectors.  Every routine reads each entry exactly (a float as the rational
it stores) and answers in Fractions, exact on every input.  They share
one elimination, `_echelon`: fraction-free Gauss-Jordan on integer rows.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for t in range(k):
            v = arow[t]
            if v:
                brow = b[t]
                for j in range(m):
                    if brow[j]:
                        orow[j] += v * brow[j]
    return out


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v)) if row[j] and v[j]), ZERO)
            for row in a]


def integer_row(vec):
    """(numerators, den): the entries of vec as integers over the least
    common denominator den of its exact values."""
    ratios = [v.as_integer_ratio() for v in vec]
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _echelon(a):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) of a copy of a.

    Each row is first scaled to integers by its own denominator.  Each
    pivot step replaces every other row by (pivot * row - entry * pivot
    row) / previous pivot, a division that is exact, so entries stay
    integer minors of the scaled matrix.  Returns (rows, pivots, d,
    scale): the integer rows, d times the reduced row echelon form of a;
    the pivot columns; d, the common value of every pivot (1 if there is
    none); and the product of the row scales, negated once per row swap.
    A square a of full rank has det(a) = d / scale.
    """
    m = []
    scale = 1
    for row in a:
        ints, den = integer_row(row)
        m.append(ints)
        scale *= den
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    d = 1
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            scale = -scale
        prow = m[r]
        pv = prow[c]
        for i in range(rows):
            if i != r:
                f = m[i][c]
                m[i] = [(pv * x - f * y) // d for x, y in zip(m[i], prow)]
        d = pv
        pivots.append(c)
        if r + 1 == rows:
            break
    return m, pivots, d, scale


def rank(a):
    return len(_echelon(a)[1])


def kernel_basis(a):
    """Basis of the right kernel {v : a v = 0}."""
    if not a:
        return []
    cols = len(a[0])
    m, pivots, d, _ = _echelon(a)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [ZERO] * cols
        v[fc] = ONE
        for row, pc in zip(m, pivots):
            v[pc] = Fraction(-row[fc], d)
        basis.append(v)
    return basis


def solve(a, b):
    """Solve a x = b exactly; raises ValueError if singular/inconsistent."""
    return [row[0] for row in solve_matrix(a, [[v] for v in b])]


def solve_matrix(a, b):
    """Solve a X = b for a matrix right-hand side."""
    cols = len(a[0])
    m, pivots, d, _ = _echelon([[*ra, *rb] for ra, rb in zip(a, b)])
    if any(p >= cols for p in pivots):
        raise ValueError("inconsistent linear system")
    if len(pivots) < cols:
        raise ValueError("singular linear system")
    return [[Fraction(v, d) for v in row[cols:]] for row in m[:cols]]


def inverse(a):
    return solve_matrix(a, identity(len(a)))


def det(a):
    _, pivots, d, scale = _echelon(a)
    return Fraction(d, scale) if len(pivots) == len(a) else ZERO


def primitive(vec):
    """Scale a nonzero rational vector to coprime integers, keeping its
    direction."""
    ints, _ = integer_row(vec)
    g = gcd(*ints)
    return tuple(v // g for v in ints)
