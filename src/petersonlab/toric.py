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
from fractions import Fraction
import functools
import math
import sys

from . import linalg, polytope

EQUIV_RTOL = 1e-10
LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
    free: tuple           # (i, value) pairs for i in J-K


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


def _float_coords(p):
    """(floats, logs) of the coordinates of p, x then y: each as a float,
    and its logarithm, -inf at a zero.  The logarithm is taken from the
    exact value, so a positive coordinate below the float range, whose
    float is 0.0, has a finite one.  A coordinate beyond the float range
    raises ValueError naming it."""
    floats, logs = [], []
    for name, coords in zip("xy", (p.x, p.y)):
        for i, v in enumerate(coords):
            try:
                f = float(v)
            except OverflowError:
                raise ValueError("coordinate %s_%d is beyond the float range"
                                 % (name, i + 1)) from None
            floats.append(f)
            if f:
                logs.append(math.log(f))
            elif v:     # below the float range
                num, den = v.as_integer_ratio()
                logs.append(math.log(num) - math.log(den))
            else:
                logs.append(-math.inf)
    return floats, logs


def canonicalize(datum, p):
    """Solve the torus rescaling in logarithmic coordinates.

    First the (I-J)-torus sets x_i = 1 for i outside J (it fixes x_j for
    j in J since <w_j, alpha_k^vee> = 0 there), then the J-torus solves
    the Cartan-submatrix log-linear system to set y_j = 1 for j in J,
    rescaling x only inside J.  A canonical coordinate beyond the float
    range raises ValueError.
    """
    K, J = stratum_of(p)
    xs, logs = _float_coords(p)
    outside = [k for k in range(datum.n) if k not in J]
    # z_k = 1/x_k for k outside J scales y_j, j in J, by the product of
    # z_k^<alpha_j, alpha_k^vee>: summed as logarithms, so that no
    # intermediate overflows
    rhs = [-logs[datum.n + j] + sum(datum.pairing[j][k] * logs[k]
                                    for k in outside) for j in J]
    u = linalg.solve([[datum.pairing[j][k] for k in J] for j in J],
                     rhs) if J else []
    free = []
    for j, v in zip(J, u):
        if j in K:
            continue
        # x_j e^v can leave the float range, and e^v alone can leave it
        # while x_j e^v does not, or x_j can be below it: decide on the
        # logarithm
        log_x = logs[j] + v
        if log_x > LOG_FLOAT_MAX:
            raise ValueError("canonical coordinate x_%d = e^%.1f is beyond "
                             "the float range" % (j + 1, log_x))
        free.append((j, xs[j] * math.exp(v) if xs[j] and v < LOG_FLOAT_MAX
                     else math.exp(log_x)))
    return CanonicalCoxPoint(label=(K, J), free=tuple(free))


def equivalent(datum, p, q):
    cp = canonicalize(datum, p)
    cq = canonicalize(datum, q)
    if cp.label != cq.label:
        return False
    for (i, a), (j, b) in zip(cp.free, cq.free):
        if i != j:
            return False
        if abs(a - b) > EQUIV_RTOL * max(1.0, abs(a), abs(b)):
            return False
    return True


# ---------------------------------------------------------------------------
# Moment map


@dataclass(frozen=True)
class MomentData:
    datum: object
    lam: tuple
    dilate: int            # N with N * P^lambda a lattice polytope
    points: tuple          # per lattice point: (alpha-coords,
                           #   x exponents, y exponents, weight coords)


def moment_data(poly):
    """The lattice-point data of P^lambda, shared by every polytope of equal
    datum and lambda."""
    return _moment_data(poly.datum, poly.lam)


@functools.lru_cache(maxsize=32)
def _moment_data(datum, lam):
    n = datum.n
    verts = polytope.vertices(datum, lam).values()
    _, N = linalg.integer_row([a for v in verts
                               for a in datum.weight_to_root_coords(v)])
    lam_alpha = datum.weight_to_root_coords(lam)
    c = [int(N * a) for a in lam_alpha]

    pts = []

    def sweep(prefix):
        if len(prefix) == n:
            xexp = [sum(prefix[i] * datum.pairing[i][j] for i in range(n))
                    for j in range(n)]
            if any(v < 0 for v in xexp):
                return
            yexp = [c[i] - prefix[i] for i in range(n)]
            wt = tuple(Fraction(sum(prefix[i] * datum.pairing[i][j]
                                    for i in range(n))) for j in range(n))
            pts.append((tuple(prefix), tuple(xexp), tuple(yexp), wt))
            return
        for k in range(c[len(prefix)] + 1):
            sweep(prefix + [k])

    sweep([])
    return MomentData(datum=datum, lam=lam, dilate=N, points=tuple(pts))


def moment_map(p, poly):
    """Lattice-point weighted average, rescaled to P^lambda (floats), taken
    in the log domain (log-sum-exp) so that huge coordinates fit."""
    p.validate()
    data = moment_data(poly)
    n = poly.datum.n
    _, logs = _float_coords(p)
    chars = [(sum([e * l for e, l in zip(xexp + yexp, logs) if e]), wt)
             for _, xexp, yexp, wt in data.points]
    top = max(l for l, _ in chars)
    if top == -math.inf:
        raise AssertionError("character sum vanished")
    total = 0.0
    acc = [0.0] * n
    for l, wt in chars:
        chi = math.exp(l - top)
        if chi:
            total += chi
            for j in range(n):
                acc[j] += chi * float(wt[j])
    return tuple(v / (total * data.dilate) for v in acc)
