"""Nonnegative Cox-coordinate model of the toric variety of the fan:
strata by zero pattern, canonical forms under the positive torus,
equivalence, and the lattice-point moment map onto the weight polytope.

Everything is exact.  A Cox coordinate is a rational (an int, a Fraction
or a float, each read exactly).  The torus rescaling that canonicalizes a
point gives the irrational free coordinates x_j e^{u_j}, but their D-th
powers are rational, D the lcm of the denominators of the inverse Cartan
submatrix C_J^{-1} (Cox, J. Algebraic Geom. 4, 1995): a canonical form
holds those powers, so equal orbits have equal forms.  The moment map is
a ratio of integer character sums, so its image is a tuple of Fractions
(Fulton, Introduction to Toric Varieties, 1993, sec. 4.2).
"""

from dataclasses import dataclass
from fractions import Fraction
import itertools
import math
from operator import getitem, mul

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


@dataclass(frozen=True)
class MomentData:
    dilate: int            # N with N * P^lambda a lattice polytope
    points: tuple          # per lattice point: x exponents, then y exponents
    top: tuple             # per Cox coordinate: its largest exponent


def moment_data(poly):
    """The lattice points of N * P^lambda, with N read off the simple-root
    coordinates that build_polytope solved for each vertex.  The point
    sum_i k_i alpha_i has x exponents its fundamental-weight coordinates,
    which are also the weight the moment map averages, and y exponents
    N lambda - k in simple-root coordinates: one tuple of 2n exponents."""
    pairing = poly.datum.pairing
    _, N = linalg.integer_row([a for v in poly.vertex_alpha.values()
                               for a in v])
    c = [int(N * a) for a in poly.cap_values]
    # k_i times row i of the pairing, for each k_i in range
    rows = [[tuple(k * a for a in pairing[i]) for k in range(m + 1)]
            for i, m in enumerate(c)]
    pts = []
    for k in itertools.product(*(range(m + 1) for m in c)):
        xexp = tuple(map(sum, zip(*map(getitem, rows, k))))
        if min(xexp) >= 0:
            pts.append(xexp + tuple(m - ki for m, ki in zip(c, k)))
    return MomentData(dilate=N, points=tuple(pts),
                      top=tuple(map(max, zip(*pts))))


def moment_map(p, data):
    """The lattice-point average sum_m chi_m(p) m / (N sum_m chi_m(p)) of
    `data = moment_data(poly)`, exactly, as Fractions on P^lambda.

    A coordinate num/den with largest exponent t enters a character with
    exponent e as the integer num^e den^(t-e), read from a table of
    powers: every character is then an integer over the one denominator
    prod den^t, which cancels in the average."""
    tables = []
    for v, t in zip(p.x + p.y, data.top):
        num, den = v.as_integer_ratio()
        tables.append([num ** e * den ** (t - e) for e in range(t + 1)])
    chis = [math.prod(map(getitem, tables, e)) for e in data.points]
    total = sum(chis)
    if not total:
        raise AssertionError("character sum vanished")
    weights = list(zip(*data.points))[:len(p.x)]
    return tuple(Fraction(sum(map(mul, chis, w)), total * data.dilate)
                 for w in weights)
