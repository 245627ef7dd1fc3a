"""Nonnegative Cox-coordinate model of the toric variety of the fan:
strata by zero pattern, canonical forms under the positive torus,
equivalence, and the moment map on the vertices of the weight polytope.

Everything is exact.  A Cox coordinate is a rational (an int, a Fraction
or a float, each read exactly).  The torus rescaling that canonicalizes a
point gives the irrational free coordinates x_j e^{u_j}, but their D-th
powers are rational, D the lcm of the denominators of the inverse Cartan
submatrix C_J^{-1} (Cox, J. Algebraic Geom. 4, 1995): a canonical form
holds those powers, so equal orbits have equal forms.  The moment map
averages the 2^n vertices of the dilated polytope, weighted by their
characters.  The vertices are enough: any finite set of lattice points
with convex hull P gives a moment map onto P that respects faces
(Sottile, Contemp. Math. 334, 2003).  It is a ratio of integer character
sums, so its image is a tuple of Fractions (Fulton, Introduction to Toric
Varieties, 1993, sec. 4.2); an exponent over EXPONENT_CAP is refused
before any power is taken.
"""

from dataclasses import dataclass
from fractions import Fraction
import math
from operator import mul

from . import linalg


@dataclass(frozen=True)
class CoxPoint:
    """Homogeneous coordinates [x; y], all entries nonnegative reals,
    checked once, when the point is made."""

    x: tuple
    y: tuple

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        for xi, yi in zip(self.x, self.y):
            if xi < 0 or yi < 0:
                raise ValueError("coordinates must be nonnegative")
            if xi == 0 and yi == 0:
                raise ValueError("invalid point: some (x_i, y_i) = (0, 0)")


@dataclass(frozen=True)
class CanonicalCoxPoint:
    """Unique orbit representative: x_i = 0 (K), free > 0 (J-K), 1 (I-J);
    y_i = 1 (J), 0 (I-J).  A free coordinate is held as its rational
    power-th power."""

    label: tuple          # (K, J) sorted tuples
    power: int            # D, the lcm of the denominators of C_J^{-1}
    free: tuple           # (j, x_j^D) pairs for j in J-K


def cox_point(x, y):
    return CoxPoint(x=tuple(x), y=tuple(y))


def stratum_of(p):
    """K = zero set of x, J = support of y; K <= J by validity."""
    K = tuple(i for i, v in enumerate(p.x) if v == 0)
    J = tuple(i for i, v in enumerate(p.y) if v != 0)
    return (K, J)


def canonicalize(datum, p):
    """Solve the torus rescaling exactly, in D-th powers.

    First the (I-J)-torus sets x_k = 1 for k outside J (it fixes x_j for
    j in J since <w_j, alpha_k^vee> = 0 there), which leaves y_c, c in J,
    equal to 1 / base_c, base_c = prod_k x_k^<alpha_c, alpha_k^vee> / y_c.
    Then the J-torus sets each y_c = 1 with u = C_J^{-1} log(base), so the
    free coordinate x_j e^{u_j} has the D-th power
    x_j^D prod_c base_c^{(D C_J^{-1})_{jc}}, a positive rational.
    """
    K, J = stratum_of(p)
    x = [Fraction(v) for v in p.x]
    outside = [k for k in range(datum.n) if k not in J]
    base = [math.prod(x[k] ** datum.pairing[c][k] for k in outside)
            / Fraction(p.y[c]) for c in J]
    inv = linalg.inverse([[datum.pairing[j][k] for k in J] for j in J]) \
        if J else []
    D = math.lcm(*(e.denominator for row in inv for e in row))
    free = tuple((j, x[j] ** D * math.prod(b ** int(D * e)
                                            for b, e in zip(base, row)))
                 for j, row in zip(J, inv) if j not in K)
    return CanonicalCoxPoint(label=(K, J), power=D, free=free)


def equivalent(cp, cq):
    """Whether two canonical forms name one torus orbit: two positive
    reals with equal D-th powers are equal, so the forms are equal."""
    return cp == cq


# ---------------------------------------------------------------------------
# Moment map

# The largest exponent moment_data admits.  A character's cost grows with
# its exponents, and lambda = (1, 1e300) would give exponents near 10^300.
EXPONENT_CAP = 10 ** 4


@dataclass(frozen=True)
class MomentData:
    dilate: int            # N with N * P^lambda a lattice polytope
    points: tuple          # per vertex of N P^lambda: x, then y exponents
    top: tuple             # per Cox coordinate: its largest exponent


def moment_data(poly):
    """The 2^n vertices of N * P^lambda as exponent tuples, N the least
    dilate that makes the simple-root coordinates build_polytope solved
    for each vertex integers.  The vertex N v has x exponents N v, its
    fundamental-weight coordinates and the weight the moment map
    averages, and y exponents N (lambda - v) in simple-root coordinates.

    The vertices are enough.  For any finite set A of lattice points
    whose convex hull is P, and any positive weights, the algebraic moment
    map p -> sum_a chi_a(p) a / sum_a chi_a(p) is a homeomorphism from the
    nonnegative part of X_A onto P that sends each torus orbit onto the
    relative interior of its face (Sottile, Contemp. Math. 334, 2003;
    Fulton, Introduction to Toric Varieties, 1993, sec. 4.2).

    Raises ValueError where an exponent is over EXPONENT_CAP."""
    _, N = linalg.integer_row([a for v in poly.vertex_alpha.values()
                               for a in v])
    pts = sorted(tuple(int(N * c) for c in v)
                 + tuple(int(N * (m - a)) for m, a in zip(poly.cap_values,
                                                          alpha))
                 for v, alpha in poly.vertex_alpha.items())
    top = tuple(map(max, zip(*pts)))
    if max(top) > EXPONENT_CAP:
        raise ValueError("the moment map on N P^lambda (N = %d) needs an "
                         "exponent over the cap %d" % (N, EXPONENT_CAP))
    return MomentData(dilate=N, points=tuple(pts), top=top)


def moment_sums(p, data):
    """(sums, den): the weighted character sums sum_v chi_v(p) v of
    `data = moment_data(poly)` as integers over the one denominator
    den = N sum_v chi_v(p), so that the moment image is sums / den.

    A coordinate num/den with largest exponent t enters a character with
    exponent e as the integer num^e den^(t-e), taken only for the
    exponents that occur: every character is then an integer over the one
    denominator prod den^t, which cancels in the average."""
    cols = list(zip(*data.points))
    tables = []
    for v, t, col in zip(p.x + p.y, data.top, cols):
        num, den = v.as_integer_ratio()
        tables.append({e: num ** e * den ** (t - e) for e in set(col)})
    chis = [math.prod(tab[e] for tab, e in zip(tables, pt))
            for pt in data.points]
    total = sum(chis)
    if not total:
        raise AssertionError("character sum vanished")
    # the x exponents are the weights
    return (tuple(sum(map(mul, chis, w)) for w in cols[:len(p.x)]),
            total * data.dilate)


def moment_map(p, data):
    """The vertex average of moment_sums, exactly, as Fractions on
    P^lambda."""
    sums, den = moment_sums(p, data)
    return tuple(Fraction(s, den) for s in sums)
