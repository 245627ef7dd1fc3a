"""Peterson-variety points in normal form x * wdot(w_J), stratum
classification by vanishing minors, the map Psi into Cox coordinates,
component splitting for reducible data, and low-rank Newton inversion
of the minor map.  The minors and q-coefficients of a point are read off
the integer forms `ws.minor_polynomials(J)` and `ws.q_polynomials(J)`,
and the inversion is certified in integers off one form per J,
`ws.certificate_polynomials(J)`.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
import itertools
import math
import random

from . import grouprep, linalg, rootdata, toric

ZERO = Fraction(0)


@dataclass(frozen=True)
class PetersonPoint:
    """Normal form exp(sum coords * centralizer basis) * wdot(w_J)."""

    J: tuple
    coords: tuple


def make_point(ws, J, coords):
    J = tuple(sorted(set(J)))
    coords = tuple(Fraction(c) for c in coords)
    if len(coords) != len(J):
        raise ValueError("need one coordinate per centralizer basis element")
    return PetersonPoint(J=J, coords=coords)


def unipotent_part(ws, p):
    """The element x = exp(sum coords * basis) of the centralizer."""
    basis = ws.centralizer(p.J)
    elem = {}
    for c, b in zip(p.coords, basis):
        for label, v in b.items():
            elem[label] = elem.get(label, ZERO) + c * v
    return grouprep.exp_element(elem)


def element(ws, p):
    return unipotent_part(ws, p) * grouprep.wdot(ws.longest(p.J))


def peterson_membership(g, ws):
    """True iff Ad_{g^{-1}}(e) has no component on f_alpha, ht(alpha) >= 2."""
    rep = ws.adjoint_rep()
    vec = grouprep.ad_conjugate_e(g, ws)
    for slot, label in enumerate(rep.module.labels):
        if label[0] == 'f' and sum(ws.datum.positive_roots[label[1]]) >= 2:
            if vec[slot] != 0:
                return False
    return True


def _values(polys, p):
    """The integer forms polys at p's coordinates, as Fractions: one
    integer evaluation over one denominator."""
    nums, den = polys.evaluate(*linalg.integer_row(p.coords))
    return tuple(Fraction(m, den) for m in nums)


def deltas(ws, p):
    """All fundamental minors of the normal-form element, exact."""
    return _values(ws.minor_polynomials(p.J), p)


def q_values(ws, p):
    """All q-coefficients of the normal-form element, exact."""
    return _values(ws.q_polynomials(p.J), p)


def classify_stratum(J, minors):
    """(K, J) with K the nodes whose minor vanishes, from the fundamental
    minors of a normal-form point of J; minors outside J must be exactly
    1."""
    for i, v in enumerate(minors):
        if i not in J and v != 1:
            raise AssertionError("minor outside J must equal 1, got %s "
                                 "at node %d" % (v, i))
    return (tuple(i for i, v in enumerate(minors) if v == 0), J)


def minor_vector(ws, p, minors=None):
    """(Delta values, q values) of the normal-form element, unvalidated;
    minors, where given, are its Delta values, as sample_points hands them
    on."""
    if minors is None:
        minors = deltas(ws, p)
    return minors, q_values(ws, p)


def psi(ws, p, minors=None):
    """[Delta_1, ..., Delta_n ; q_1, ..., q_n] as a Cox point; minors as
    for minor_vector."""
    xs, ys = minor_vector(ws, p, minors)
    return toric.cox_point(xs, ys)


@dataclass(frozen=True)
class ComponentPoint:
    nodes: tuple          # nodes of the component in the ambient datum
    datum: object         # component root datum
    point: PetersonPoint


def component_datum(datum, nodes):
    entries = [[datum.cartan.entries[i][j] for j in nodes] for i in nodes]
    return rootdata.build_root_datum(rootdata.cartan_from_entries(entries))


def split_components(ws, p, partition):
    """Per-component Peterson points whose minors concatenate to psi's."""
    blocks = [tuple(sorted(b)) for b in partition]
    expected = [tuple(b) for b in rootdata.dynkin_components(ws.datum)]
    if sorted(blocks) != sorted(expected):
        raise ValueError("partition does not match the Dynkin components")
    basis = ws.centralizer(p.J)
    out = []
    for block in blocks:
        sub = component_datum(ws.datum, block)
        sub_ws = grouprep.workspace(sub)
        sub_j = tuple(block.index(i) for i in p.J if i in block)
        sub_basis = sub_ws.centralizer(sub_j)
        # restrict the ambient Lie element to this block and re-express
        elem = {}
        for c, b in zip(p.coords, basis):
            for (kind, idx), v in b.items():
                root = ws.datum.positive_roots[idx]
                if any(root[i] for i in block):
                    sub_root = tuple(root[i] for i in block)
                    sub_idx = sub_ws.chev.root_index[sub_root]
                    key = (kind, sub_idx)
                    elem[key] = elem.get(key, ZERO) + c * v
        labels = sorted({l for b in sub_basis for l in b} | set(elem))
        a = [[b.get(l, ZERO) for b in sub_basis] for l in labels]
        rhs = [elem.get(l, ZERO) for l in labels]
        coords = linalg.solve(a, rhs) if sub_basis else []
        out.append(ComponentPoint(
            nodes=block, datum=sub,
            point=PetersonPoint(J=sub_j, coords=tuple(coords))))
    return out


def sample_points(ws, J, count, seed=0, tnn_only=False):
    """Deterministic nonnegative-coordinate samples of the J-centralizer.

    With tnn_only, rejection-sample until all fundamental minors of the
    normal-form element are nonnegative, and return (point, minors) pairs,
    so that a reader of the minors need not evaluate them again.
    """
    rng = random.Random(seed)
    J = tuple(sorted(set(J)))
    out = []
    while len(out) < count:
        coords = []
        for _ in J:
            if rng.random() < 0.25:
                coords.append(ZERO)
            else:
                coords.append(Fraction(rng.randint(1, 12), rng.randint(1, 6)))
        p = make_point(ws, J, coords)
        if not tnn_only:
            out.append(p)
            continue
        minors = deltas(ws, p)
        if all(v >= 0 for v in minors):
            out.append((p, minors))
    return out


# ---------------------------------------------------------------------------
# Low-rank inversion of the minor map


INVERSION_TOL = 1e-9      # accepted residual per unit of the largest target
NEWTON_STEPS = 60         # Newton iterations per start
NEWTON_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0)  # grid coordinates
GRID_STARTS = 8           # grid points tried, those nearest the target
RANDOM_STARTS = 12        # random starts after the grid starts


class InversionError(RuntimeError):
    pass


def _newton_solve(a, b):
    """Solve the square float system a x = b by Gauss-Jordan, pivoting on
    the first nonzero entry of each column.  The Newton root is irrational,
    so this solve stays in floats.  Raises ValueError on a singular a or a
    right-hand side beyond the float range.

    A 2 x 2 system, every Newton step on A2 or A1 x A1, takes the same
    float operations unrolled, without forming the unit pivots and the
    eliminated zeros that the loop writes and never reads."""
    if not all(map(math.isfinite, b)):
        raise ValueError("residual beyond the float range")
    n = len(a)
    if n == 2:
        (p, q), (u, v) = a
        y, z = b
        if not p:
            if not u:
                raise ValueError("singular Jacobian")
            (p, q, y), (u, v, z) = (u, v, z), (p, q, y)
        q, y = q / p, y / p
        if u:
            v, z = v - u * q, z - u * y
        if not v:
            raise ValueError("singular Jacobian")
        z = z / v
        if q:
            y = y - q * z
        return [y, z]
    m = [[*row, v] for row, v in zip(a, b)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            raise ValueError("singular Jacobian")
        m[c], m[pivot] = m[pivot], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n] for row in m]


def _value(f, c):
    """The terms f of `ws.newton_terms` at the point c: each term's float
    coefficient times c[k] ** e for its (k, e) pairs, left to right, the
    terms summed left to right from 0.0 (sum() compensates on 3.12+)."""
    acc = 0.0
    for coeff, powers in f:
        for k, e in powers:
            coeff *= c[k] ** e
        acc += coeff
    return acc


def _grid_values(ws, J):
    """Each point of the grid NEWTON_GRID^|J| with its float minor values,
    a Workspace entry built once per J: ranking the grid against a target
    is then one subtraction per minor."""
    def build():
        terms = ws.newton_terms(J)[0]
        return [(s, [_value(f, s) for f in terms])
                for s in itertools.product(NEWTON_GRID, repeat=len(J))]
    return ws._once(('grid', J), build)


def _random_starts(seed, n):
    """RANDOM_STARTS points of [0, 10]^n from random.Random(seed), each
    drawn only when it is tried."""
    rng = random.Random(seed)
    for _ in range(RANDOM_STARTS):
        yield [rng.uniform(0, 10) for _ in range(n)]


def invert_theorem59(ws, target, seed=0, grid_starts=True):
    """The certified totally nonnegative preimage of the target minors,
    with its Certificate: a Peterson point whose minors match the targets
    and whose unipotent part is TNN, each type-A minor read as an entry
    on a fundamental module, both decided by certify_theorem59.  Its
    centralizer coordinates may be negative.  The certificate also
    records the starts tried and the Newton steps of the accepted one.

    Implemented for J whose Dynkin components are of type A1 or A2, where
    that test applies.  Newton's method on the minor polynomials of all of
    J, from the GRID_STARTS grid points whose stored minor values lie
    nearest the target, then from the random starts.  The stop and accept
    residuals are INVERSION_TOL * 1e-2 and INVERSION_TOL, each times
    max(1, largest target)."""
    datum = ws.datum
    J = tuple(range(datum.n))
    target = [float(t) for t in target]
    if len(target) != len(J):
        raise ValueError("need one target per index in J")
    if not all(0 <= t < math.inf for t in target):
        raise ValueError("targets must be finite and nonnegative")
    if any(len(c) > 2 or any(datum.pairing[i][j] < -1 for i in c for j in c)
           for c in ws.components(J)):
        raise NotImplementedError("inversion implemented for components "
                                  "of type A1 and A2 only")

    # relative to the target: the float spacing of minors near 1e6 is
    # already about 1e-10
    tol = INVERSION_TOL * max([1.0] + target)
    terms, grads = ws.newton_terms(J)

    def newton(c):
        """(root, Newton steps taken) from the start c, or None."""
        try:
            for steps in range(NEWTON_STEPS):
                r = [_value(f, c) - t for f, t in zip(terms, target)]
                if all(abs(v) < tol * 1e-2 for v in r):  # False on nan
                    return c, steps
                # a constant partial derivative is stored as its value
                jac = [[d if isinstance(d, float) else _value(d, c)
                        for d in row] for row in grads]
                step = _newton_solve(jac, r)
                c = [a - b for a, b in zip(c, step)]
        except (ValueError, OverflowError):  # singular Jacobian, divergence
            pass
        return None

    grid = []
    if grid_starts:
        grid = sorted(_grid_values(ws, J), key=lambda sv: max(
            abs(v - t) for v, t in zip(sv[1], target)))[:GRID_STARTS]
    starts = itertools.chain((s for s, _ in grid),
                             _random_starts(seed, len(J)))
    for tried, start in enumerate(starts, 1):
        root = newton(start)
        if root is None:
            continue
        coords, steps = root
        p = make_point(ws, J, coords)
        cert = certify_theorem59(ws, p, target)
        if cert.tnn:
            if cert.residual >= tol:
                raise InversionError("Newton inversion residual %.3e >= %.1e"
                                     % (cert.residual, tol))
            return p, replace(cert, starts=tried, steps=steps)
    raise InversionError("no convergent Newton start for targets %r"
                         % (target,))


@dataclass(frozen=True)
class Certificate:
    """What certify_theorem59 decides of one point.  tnn is True when
    every entry of the unipotent part x on V(w_i), i in J, is at least
    -INVERSION_TOL: the least constant entry of
    `ws.certificate_polynomials(J)`, and each varying entry at the form
    row that lists it."""

    minors: tuple      # integer numerators of Delta_1, ..., Delta_n over den
    den: int
    tnn: bool          # every entry of x on V(w_i), i in J, is >= -tol
    residual: float    # max |Delta_i - target_i|
    starts: int = 0    # from invert_theorem59: the starts it tried
    steps: int = 0     # from invert_theorem59: the accepted start's steps


def certify_theorem59(ws, p, target):
    """The exact certificate of a Peterson point p with rational (for a
    Newton root, dyadic) coordinates against the float target minors.

    x is TNN when every minor of its matrix on each component's first
    fundamental module is at least -INVERSION_TOL.  On a type-A_m
    component those k x k minors are exactly the entries of x on V(w_k) =
    Lambda^k V(w_1), the generalized minors of Fomin-Zelevinsky (J. Amer.
    Math. Soc. 12, 1999), for k = 1, ..., m; the (m+1) x (m+1) minor is
    det x = 1.  So every entry of x on V(w_i), i in J, must be at least
    -INVERSION_TOL.

    `ws.certificate_polynomials(p.J)` holds the fundamental minors and the
    distinct non-constant entries in one integer form, and the least
    constant entry apart.  With the coordinates as integers nums over one
    denominator q, one evaluation gives every numerator v over one d: the
    minors are its first n rows, and each row that the form lists as an
    entry must pass v td >= -tn d, tn / td = INVERSION_TOL, as must the
    least constant entry v / d.  The residual is one correctly rounded
    integer division per minor."""
    form, slots, least = ws.certificate_polynomials(p.J)
    vals, den = form.evaluate(*linalg.integer_row(p.coords))
    minors = vals[:ws.datum.n]
    tn, td = INVERSION_TOL.as_integer_ratio()
    ln, ld = least.as_integer_ratio()
    tnn = ln * td >= -tn * ld and all(vals[s] * td >= -tn * den
                                      for s in slots)
    resid = max(abs(m / den - t) for m, t in zip(minors, target))
    return Certificate(tuple(minors), den, tnn, resid)
