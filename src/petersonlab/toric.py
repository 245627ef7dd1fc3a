"""Nonnegative Cox-coordinate model of the toric variety of the fan:
strata by zero pattern, canonical forms under the positive torus,
equivalence, and the lattice-point moment map onto the weight polytope.

Combinatorics (zero patterns, labels, lattice points, exponents) are
exact.  Torus rescalings and the moment map use floating point, since
the log-linear canonicalization has irrational solutions.  Both work in
logarithms, so that coordinates near the float range do not overflow.
Canonicalization solves its Cartan system exactly with linalg.solve, on
the Fraction values of the float logarithms; the module needs no numpy.
"""

from dataclasses import dataclass
import itertools
import math

from . import linalg

EQUIV_RTOL = 1e-10


@dataclass(frozen=True)
class CoxPoint:
    """Homogeneous coordinates [x; y], all entries nonnegative reals."""

    x: tuple
    y: tuple

    def validate(self):
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
    y_i = 1 (J), 0 (I-J)."""

    label: tuple          # (K, J) sorted tuples
    free: tuple           # (i, log x_i) pairs for i in J-K


def cox_point(x, y):
    p = CoxPoint(x=tuple(x), y=tuple(y))
    p.validate()
    return p


def stratum_of(p):
    """K = zero set of x, J = support of y; K <= J by validity."""
    p.validate()
    K = tuple(i for i, v in enumerate(p.x) if v == 0)
    J = tuple(i for i, v in enumerate(p.y) if v != 0)
    return (K, J)


def _log_coords(p):
    """The natural logarithm of each coordinate of p, x then y, -inf at a
    zero.  It is taken from the exact value, so a positive coordinate
    below the float range, whose float is 0.0, has a finite one.  A
    coordinate beyond the float range raises ValueError naming it."""
    logs = []
    for name, coords in zip("xy", (p.x, p.y)):
        for i, v in enumerate(coords):
            try:
                f = float(v)
            except OverflowError:
                raise ValueError("coordinate %s_%d is beyond the float range"
                                 % (name, i + 1)) from None
            if f:
                logs.append(math.log(f))
            elif v:     # below the float range
                num, den = v.as_integer_ratio()
                logs.append(math.log(num) - math.log(den))
            else:
                logs.append(-math.inf)
    return logs


def canonicalize(datum, p):
    """Solve the torus rescaling in logarithmic coordinates.

    First the (I-J)-torus sets x_i = 1 for i outside J (it fixes x_j for
    j in J since <w_j, alpha_k^vee> = 0 there), then the J-torus solves
    the Cartan-submatrix log-linear system to set y_j = 1 for j in J,
    rescaling x only inside J.  Each free coordinate is kept as its
    natural logarithm, so one beyond or below the float range is held
    exactly as well as one inside it.
    """
    K, J = stratum_of(p)
    logs = _log_coords(p)
    outside = [k for k in range(datum.n) if k not in J]
    # z_k = 1/x_k for k outside J scales y_j, j in J, by the product of
    # z_k^<alpha_j, alpha_k^vee>: summed as logarithms, so that no
    # intermediate overflows
    rhs = [-logs[datum.n + j] + sum(datum.pairing[j][k] * logs[k]
                                    for k in outside) for j in J]
    u = linalg.solve([[datum.pairing[j][k] for k in J] for j in J],
                     rhs) if J else []
    return CanonicalCoxPoint(label=(K, J), free=tuple(
        (j, logs[j] + v) for j, v in zip(J, u) if j not in K))


def equivalent(cp, cq):
    """Whether two canonical forms name one torus orbit: equal labels and
    free logarithms within EQUIV_RTOL, a relative bound on the
    coordinates themselves."""
    return cp.label == cq.label and all(
        abs(a - b) <= EQUIV_RTOL for (_, a), (_, b) in zip(cp.free, cq.free))


# ---------------------------------------------------------------------------
# Moment map


@dataclass(frozen=True)
class MomentData:
    dilate: int            # N with N * P^lambda a lattice polytope
    points: tuple          # per lattice point: (x exponents, y exponents)


def moment_data(poly):
    """The lattice points of N * P^lambda, with N read off the simple-root
    coordinates that build_polytope solved for each vertex.  The point
    sum_i k_i alpha_i has x exponents its fundamental-weight coordinates,
    which are also the weight the moment map averages, and y exponents
    N lambda - k in simple-root coordinates."""
    datum = poly.datum
    n = datum.n
    _, N = linalg.integer_row([a for v in poly.vertex_alpha.values()
                               for a in v])
    c = [int(N * a) for a in poly.cap_values]
    pts = []
    for k in itertools.product(*(range(m + 1) for m in c)):
        xexp = tuple(sum(k[i] * datum.pairing[i][j] for i in range(n))
                     for j in range(n))
        if all(v >= 0 for v in xexp):
            pts.append((xexp, tuple(m - ki for m, ki in zip(c, k))))
    return MomentData(dilate=N, points=tuple(pts))


def moment_map(p, data):
    """Lattice-point weighted average of `data = moment_data(poly)`,
    rescaled to P^lambda (floats), taken in the log domain (log-sum-exp)
    so that huge coordinates fit."""
    p.validate()
    n = len(p.x)
    logs = _log_coords(p)
    chars = [(sum([e * l for e, l in zip(xexp + yexp, logs) if e]), xexp)
             for xexp, yexp in data.points]
    top = max(l for l, _ in chars)
    if top == -math.inf:
        raise AssertionError("character sum vanished")
    total = 0.0
    acc = [0.0] * n
    for l, xexp in chars:
        chi = math.exp(l - top)
        if chi:
            total += chi
            for j in range(n):
                acc[j] += chi * xexp[j]
    return tuple(v / (total * data.dilate) for v in acc)
