"""The fan Sigma, the dominant-chamber weight polytope P^lambda, its face
lattice, the cube isomorphism and the normal-fan comparison.

Coordinates: points of the weight space are given in fundamental-weight
coordinates, coweight vectors in fundamental-coweight coordinates; with
these bases <w_i, alpha_j^vee> = delta_ij and the polytope inequalities
become linear forms with exact rational coefficients.

The hull oracle is deliberately independent of the H-representation: it
computes the Weyl-orbit hull and clips it by the chamber.  One exact
integer double-description routine enumerates both the hull's facets and
the clip's vertices, and every hyperplane and vertex is certified once
against every point or inequality.  No step uses floating point.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import countOf, mul

from . import linalg, rootdata

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Cone:
    label: tuple       # (K, J) as sorted tuples
    rays: tuple        # primitive coweight vectors

    @property
    def dim(self):
        return len(self.rays)


@dataclass(frozen=True)
class Fan:
    datum: object
    cones: dict        # (K, J) -> Cone


def minus_coroot_ray(datum, i):
    return linalg.primitive([-datum.pairing[j][i] for j in range(datum.n)])


def coweight_ray(datum, i):
    return tuple(1 if j == i else 0 for j in range(datum.n))


def build_fan(datum):
    """All 3^n simplicial cones sigma_{K,J}, K and J disjoint."""
    n = datum.n
    cones = {}
    for K in rootdata.subsets(range(n)):
        rest = [i for i in range(n) if i not in K]
        for J in rootdata.subsets(rest):
            rays = tuple(minus_coroot_ray(datum, i) for i in K) + \
                tuple(coweight_ray(datum, i) for i in J)
            if linalg.rank(rays) != len(rays):
                raise AssertionError("cone is not simplicial")
            cones[(tuple(sorted(K)), tuple(sorted(J)))] = Cone(
                label=(tuple(sorted(K)), tuple(sorted(J))), rays=rays)
    if len(cones) != 3 ** n:
        raise AssertionError("fan has %d cones, expected 3^%d"
                             % (len(cones), n))
    return Fan(datum=datum, cones=cones)


@dataclass(frozen=True)
class HPolytope:
    datum: object
    lam: tuple           # fundamental-weight coordinates, regular dominant
    vertices: dict       # J (sorted tuple) -> point tuple
    cap_values: tuple    # <w_i^vee, lambda> per i
    vertex_alpha: dict   # vertex point -> its simple-root coordinates

    def wall_value(self, i, point):
        return Fraction(point[i])

    def cap_value(self, i, point):
        """<w_i^vee, point> at a vertex, read from the coordinates
        build_polytope computes once per vertex."""
        return self.vertex_alpha[point][i]


@dataclass(frozen=True)
class Face:
    K: tuple
    J: tuple
    dim: int
    vertex_js: tuple     # J' labels of contained vertices


@dataclass(frozen=True)
class FaceLattice:
    faces: dict          # (K, J) -> Face


def vertices(datum, lam):
    """The 2^n vertices of P^lambda, J -> the point on the walls of J and
    on the caps outside J."""
    n = datum.n
    pinv = datum.pairing_inverse
    lam_alpha = datum.weight_to_root_coords(lam)
    out = {}
    for J in rootdata.subsets(range(n)):
        rows = []
        rhs = []
        for i in range(n):
            if i in J:
                rows.append([ONE if j == i else ZERO for j in range(n)])
                rhs.append(ZERO)
            else:
                rows.append([pinv[j][i] for j in range(n)])
                rhs.append(lam_alpha[i])
        out[J] = tuple(linalg.solve(rows, rhs))
    return out


def build_polytope(datum, lam):
    """P^lambda with its 2^n vertices and 3^n faces, exactly."""
    n = datum.n
    lam = tuple(Fraction(v) for v in lam)
    if any(v <= 0 for v in lam):
        raise ValueError("lambda must be regular dominant "
                         "(all fundamental-weight coordinates > 0)")
    lam_alpha = datum.weight_to_root_coords(lam)
    verts = vertices(datum, lam)
    poly = HPolytope(datum=datum, lam=lam, vertices=verts,
                     cap_values=lam_alpha,
                     vertex_alpha={v: datum.weight_to_root_coords(v)
                                   for v in verts.values()})
    for J, v in verts.items():
        for i in range(n):
            if poly.wall_value(i, v) < 0 or \
                    poly.cap_value(i, v) > lam_alpha[i]:
                raise AssertionError("vertex %s = %s violates inequality %d"
                                     % (J, v, i))

    faces = {}
    for J in rootdata.subsets(range(n)):
        J = tuple(sorted(J))
        for K in rootdata.subsets(J):
            K = tuple(sorted(K))
            vjs = tuple(sorted(
                J2 for J2 in verts if set(K) <= set(J2) <= set(J)))
            pts = [verts[j2] for j2 in vjs]
            base = pts[0]
            diffs = [[p[k] - base[k] for k in range(n)] for p in pts[1:]]
            dim = linalg.rank(diffs)
            if dim != len(J) - len(K):
                raise AssertionError("face (%s, %s) has dimension %d"
                                     % (K, J, dim))
            faces[(K, J)] = Face(K=K, J=J, dim=dim, vertex_js=vjs)
    if len(faces) != 3 ** n:
        raise AssertionError("%d faces, expected 3^%d" % (len(faces), n))
    return poly, FaceLattice(faces=faces)


def cube_check(lattice):
    """Explicit poset isomorphism with the face poset of the n-cube.

    A cube face is encoded per coordinate as '0', '1' or '*'; the map
    sends (K, J) to (0 for i in K, 1 for i outside J, * for i in J-K).
    Returns (ok, iso dict).
    """
    labels = sorted(lattice.faces)
    n = len(max((j for _, j in labels), key=len)) if labels else 0

    def to_cube(label):
        K, J = label
        return tuple('0' if i in K else ('*' if i in J else '1')
                     for i in range(n))

    def cube_leq(a, b):
        return all(cb == '*' or ca == cb for ca, cb in zip(a, b))

    iso = {label: to_cube(label) for label in labels}
    if len(set(iso.values())) != len(labels):
        return False, iso
    # face containment is containment of vertex sets
    verts = {label: frozenset(lattice.faces[label].vertex_js)
             for label in labels}
    for a in labels:
        for b in labels:
            if (verts[a] <= verts[b]) != cube_leq(iso[a], iso[b]):
                return False, iso
    return True, iso


def normal_fan(poly, lattice):
    """Cones of outward facet normals, computed from vertex incidences."""
    datum = poly.datum
    n = datum.n
    cones = {}
    for (K, J), face in lattice.faces.items():
        pts = [poly.vertices[j2] for j2 in face.vertex_js]
        active_walls = [i for i in range(n)
                        if all(poly.wall_value(i, p) == 0 for p in pts)]
        active_caps = [i for i in range(n)
                       if all(poly.cap_value(i, p) == poly.cap_values[i]
                              for p in pts)]
        rays = tuple(minus_coroot_ray(datum, i) for i in active_walls) + \
            tuple(coweight_ray(datum, i) for i in active_caps)
        cones[(K, J)] = Cone(label=(K, J), rays=rays)
    return Fan(datum=datum, cones=cones)


# ---------------------------------------------------------------------------
# Independent oracle: Weyl-orbit hull clipped by the chamber


def weyl_orbit(datum, lam):
    """The W-orbit of lam, sorted.  The simple reflections act on the
    integer numerators of lam over its common denominator; each
    coordinate becomes a Fraction once, at the end."""
    nums, den = linalg.integer_row(lam)
    start = tuple(nums)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for c, row in zip(w, datum.pairing):
                if c == 0:
                    continue
                img = tuple(x - c * r for x, r in zip(w, row))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return [tuple(Fraction(v, den) for v in w) for w in sorted(seen)]


def _extreme_rays(rows):
    """Extreme rays of the pointed cone {y : r.y >= 0 for every row r}, for
    integer rows of full rank, by the double-description method.

    Returns (ray, zeros) pairs: ray a primitive integer vector, zeros the
    bitmask of the rows that vanish on it.  The rays start as those of the
    simplicial cone of the first independent rows.  Each further row keeps
    the rays on its nonnegative side and adds, on its hyperplane, the
    positive combination of each adjacent pair of rays it separates.  Two
    rays are adjacent when no third ray vanishes on every row both vanish
    on (the combinatorial test), which reads the zero masks alone.
    """
    d = len(rows[0])
    # the first independent rows are the pivot columns of the transpose
    first = linalg._echelon(linalg.transpose(rows))[1]
    if len(first) < d:
        raise ValueError("the rows span dimension %d of %d: the cone is "
                         "not pointed" % (len(first), d))
    done = sum(1 << k for k in first)
    rays = [linalg.primitive(col) for col in
            zip(*linalg.inverse([rows[k] for k in first]))]
    zeros = [done & ~(1 << k) for k in first]
    for k, row in enumerate(rows):
        if done >> k & 1:
            continue
        bit = 1 << k
        vals = [sum(map(mul, row, ray)) for ray in rays]
        neg = [(q, vq) for q, vq in enumerate(vals) if vq < 0]
        cut = []
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q, vq in neg:
                common = zeros[p] & zeros[q]
                if common.bit_count() < d - 2 or countOf(
                        map(common.__and__, zeros), common) > 2:
                    continue
                ray = [vp * b - vq * a for a, b in zip(rays[p], rays[q])]
                g = gcd(*ray)
                cut.append((tuple(v // g for v in ray), common | bit))
        kept = [(ray, z | bit if v == 0 else z)
                for ray, z, v in zip(rays, zeros, vals) if v >= 0] + cut
        rays = [ray for ray, _ in kept]
        zeros = [z for _, z in kept]
    return list(zip(rays, zeros))


def _exact_hull_facets(points):
    """The facets (a, b) of the hull of a full-dimensional point set:
    a.x <= b on every point, a a primitive integer vector.

    With the points as numerators p over one denominator den, the valid
    inequalities (a, t), a.p <= t, form the cone of the rows (-p, den).
    Its extreme rays are the facets: a ray's first n coordinates are the
    outward normal, and its zero mask names the facet's points.  One
    integer rank certifies that those points span a hyperplane, and each
    facet is certified in integers against the whole set once.
    """
    n = len(points[0])
    # integer dot products: the points as numerators over one denominator
    flat, den = linalg.integer_row([v for p in points for v in p])
    nums = [flat[k:k + n] for k in range(0, len(flat), n)]
    facets = []
    for ray, zeros in _extreme_rays([[-v for v in p] + [den] for p in nums]):
        base, *rest = (nums[k] for k in range(len(nums)) if zeros >> k & 1)
        dim = linalg.rank([[x - y for x, y in zip(p, base)] for p in rest])
        if dim != n - 1:
            raise AssertionError("the %d points of a facet span dimension "
                                 "%d, not %d" % (len(rest) + 1, dim, n - 1))
        a = linalg.primitive(ray[:n])
        facets.append((a, sum(map(mul, a, base))))
    for a, top in facets:
        if any(sum(map(mul, a, p)) > top for p in nums):
            raise AssertionError("hyperplane %s.x <= %s does not support "
                                 "the hull" % (a, Fraction(top, den)))
    return sorted((a, Fraction(top, den)) for a, top in facets)


def hull_oracle(datum, lam):
    """Vertices of Conv(W.lambda) intersected with the dominant chamber."""
    n = datum.n
    hull_ineqs = _exact_hull_facets(weyl_orbit(datum, lam))
    # the clip homogenized, {(x, t) : a.x <= b t, x >= 0}: each of its rays
    # (x, t) has t > 0 and is the vertex x / t
    rows = [[-v * b.denominator for v in a] + [b.numerator]
            for a, b in hull_ineqs]
    rows += [[int(j == i) for j in range(n + 1)] for i in range(n)]
    verts = []
    for ray, _ in _extreme_rays(rows):
        if ray[n] <= 0:
            raise AssertionError("the clipped hull is unbounded along %s"
                                 % (ray[:n],))
        v = tuple(Fraction(x, ray[n]) for x in ray[:n])
        if any(sum(map(mul, row, ray)) < 0 for row in rows):
            raise AssertionError("vertex %s violates an inequality" % (v,))
        verts.append(v)
    return sorted(verts)
