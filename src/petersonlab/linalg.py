"""Exact linear algebra over the rationals.

Small dense routines on lists of lists of Fraction; everything the
combinatorial layers need (solve, rank, kernel, inverse, determinant,
primitive integer vectors) without any floating point.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def frac_matrix(rows):
    """Copy a nested sequence into a list-of-lists of Fraction."""
    return [[Fraction(v) for v in row] for row in rows]


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


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def _echelon(a):
    """Row-reduce a copy of a; returns (echelon rows, pivot column list)."""
    m = [row[:] for row in a]
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


def rank(a):
    if not a:
        return 0
    return len(_echelon(a)[1])


def kernel_basis(a):
    """Basis of the right kernel {v : a v = 0}."""
    if not a:
        return []
    cols = len(a[0])
    m, pivots = _echelon(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """Solve a x = b exactly; raises ValueError if singular/inconsistent."""
    return [row[0] for row in solve_matrix(a, [[v] for v in b])]


def solve_matrix(a, b):
    """Solve a X = b for a matrix right-hand side."""
    n = len(a)
    cols = len(a[0])
    m = len(b[0])
    aug = [a[i][:] + [Fraction(v) for v in b[i]] for i in range(n)]
    ech, pivots = _echelon(aug)
    if any(p >= cols for p in pivots):
        raise ValueError("inconsistent linear system")
    if len(pivots) < cols:
        raise ValueError("singular linear system")
    x = [[ZERO] * m for _ in range(cols)]
    for r, pc in enumerate(pivots):
        x[pc] = ech[r][cols:]
    return x


def inverse(a):
    return solve_matrix(a, identity(len(a)))


def det(a):
    n = len(a)
    m = [row[:] for row in a]
    d = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            d = -d
        d *= m[c][c]
        inv = ONE / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def primitive(vec):
    """Scale a nonzero rational vector to coprime integers, keeping its
    direction."""
    vec = [Fraction(v) for v in vec]
    den = lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (den // v.denominator) for v in vec]
    g = gcd(*ints)
    return tuple(v // g for v in ints)
