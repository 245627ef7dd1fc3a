"""The fan Sigma, the dominant-chamber weight polytope P^lambda, its face
lattice, the cube isomorphism and the normal-fan comparison.

Coordinates: points of the weight space are given in fundamental-weight
coordinates, coweight vectors in fundamental-coweight coordinates; with
these bases <w_i, alpha_j^vee> = delta_ij and the polytope inequalities
become linear forms with exact rational coefficients.

The hull oracle is deliberately independent of the H-representation: it
reads only the Weyl orbit of lambda, in integers, and the simple
reflections.  It finds the hull's facets up to symmetry (Bremner, Dutour
Sikiric and Schuermann, CRM Proc. Lecture Notes 48, 2009), certifies each
once against the orbit, and clips the hull by the chamber with one exact
integer double-description routine.  No step uses floating point.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import countOf, le, mul

from . import linalg, rootdata


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


def _regular(lam):
    """lam as Fractions, refused unless every coordinate is > 0."""
    lam = tuple(Fraction(v) for v in lam)
    if any(v <= 0 for v in lam):
        raise ValueError("lambda must be regular dominant "
                         "(all fundamental-weight coordinates > 0)")
    return lam


def build_polytope(datum, lam):
    """P^lambda with its 2^n vertices and 3^n faces, exactly.

    Vertex J has lambda's simple-root coordinates outside J and pairs to 0
    with alpha_j^vee for j in J, so one |J| x |J| solve on the Levi's
    Cartan block gives its simple-root coordinates, and its weight
    coordinates are their integer pairings over one denominator.  The face
    ranks run on the vertices as integer numerators over one denominator."""
    n = datum.n
    lam = _regular(lam)
    lam_alpha = datum.weight_to_root_coords(lam)
    pairing = datum.pairing
    verts, vertex_alpha = {}, {}
    for J in rootdata.subsets(range(n)):
        alpha = list(lam_alpha)
        if J:
            rhs = [-sum(lam_alpha[i] * pairing[i][j]
                        for i in range(n) if i not in J) for j in J]
            sol = linalg.solve([[pairing[i][j] for i in J] for j in J], rhs)
            for i, c in zip(J, sol):
                alpha[i] = c
        nums, den = linalg.integer_row(alpha)
        verts[J] = tuple(Fraction(sum(map(mul, nums, col)), den)
                         for col in zip(*pairing))
        vertex_alpha[verts[J]] = tuple(alpha)
    poly = HPolytope(datum=datum, lam=lam, vertices=verts,
                     cap_values=lam_alpha, vertex_alpha=vertex_alpha)
    for J, v in verts.items():
        for i in range(n):
            if poly.wall_value(i, v) < 0 or \
                    poly.cap_value(i, v) > lam_alpha[i]:
                raise AssertionError("vertex %s = %s violates inequality %d"
                                     % (J, v, i))

    flat, _ = linalg.integer_row([c for v in verts.values() for c in v])
    nums = {J: flat[k:k + n] for J, k in zip(verts, range(0, len(flat), n))}
    faces = {}
    for J in rootdata.subsets(range(n)):
        for K in rootdata.subsets(J):
            vjs = tuple(sorted(
                J2 for J2 in verts if set(K) <= set(J2) <= set(J)))
            base, *rest = (nums[j2] for j2 in vjs)
            dim = linalg.rank([[x - y for x, y in zip(p, base)]
                               for p in rest])
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
    The map must be a bijection onto all 3^n codes.  Returns (ok, iso
    dict).
    """
    labels = sorted(lattice.faces)
    n = len(max((j for _, j in labels), key=len)) if labels else 0

    def to_cube(label):
        K, J = label
        return tuple('0' if i in K else ('*' if i in J else '1')
                     for i in range(n))

    iso = {label: to_cube(label) for label in labels}
    if len(set(iso.values())) != len(labels) or len(labels) != 3 ** n:
        return False, iso
    # bitmasks: a face's vertex set, and its code's '*' and '1' places.
    # Cube face a lies in b when b has '*' wherever a has '*' or differs.
    index = {j: k for k, j in enumerate(sorted(
        {j for f in lattice.faces.values() for j in f.vertex_js}))}
    masks = [(sum(1 << index[j] for j in set(lattice.faces[label].vertex_js)),
              sum(1 << i for i, c in enumerate(iso[label]) if c == '*'),
              sum(1 << i for i, c in enumerate(iso[label]) if c == '1'))
             for label in labels]
    for va, sa, oa in masks:
        for vb, sb, ob in masks:
            if (not va & ~vb) != (not (sa | oa ^ ob) & ~sb):
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


def _closure(starts, reflections):
    """The orbit of the integer tuples `starts` under the group the maps
    `reflections` generate, sorted."""
    seen = frontier = set(starts)
    while frontier:
        frontier = {s(w) for w in frontier for s in reflections} - seen
        seen |= frontier
    return sorted(seen)


def _orbit(datum, nums):
    """The W-orbit of a weight's integer numerators, sorted."""
    return _closure([tuple(nums)], [
        lambda x, i=i, row=row: tuple(v - x[i] * r for v, r in zip(x, row))
        for i, row in enumerate(datum.pairing)])


def weyl_orbit(datum, lam):
    """The W-orbit of lam, sorted, as Fractions: the point set the tests
    hand to _exact_hull_facets, the reference for _hull_facets."""
    nums, den = linalg.integer_row(lam)
    return [tuple(Fraction(v, den) for v in w) for w in _orbit(datum, nums)]


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


def _hull_facets(datum, nums):
    """The facets (a, top) of the hull of the W-orbit of a regular dominant
    weight with integer numerators nums: a.p <= top on the orbit.

    The normal cone at lambda lies in the edge cone {a : a.alpha_i >= 0},
    as lambda - s_i lambda = lambda_i alpha_i; once every edge-cone ray is
    certified maximal at lambda, the cones are equal, and their rays are
    the normals of the facets through lambda.  Every facet holds some
    w lambda, so closing these normals under s_i : a -> a - (a.alpha_i) e_i
    gives every facet.  Each is certified as in _exact_hull_facets."""
    n = datum.n
    orbit = _orbit(datum, nums)
    normals = [a for a, _ in _extreme_rays(datum.pairing)]
    if any(sum(map(mul, a, p)) > sum(map(mul, a, nums))
           for a in normals for p in orbit):
        raise AssertionError("an edge-cone ray is not maximal at lambda")
    facets = []
    for a in _closure(normals, [
            lambda a, i=i, row=row: a[:i] + (a[i] - sum(map(mul, a, row)),)
            + a[i + 1:] for i, row in enumerate(datum.pairing)]):
        vals = [sum(map(mul, a, p)) for p in orbit]
        top = max(vals)
        base, *rest = (p for p, v in zip(orbit, vals) if v == top)
        dim = linalg.rank([[x - y for x, y in zip(p, base)] for p in rest])
        if dim != n - 1:
            raise AssertionError("the %d points of a facet span dimension "
                                 "%d, not %d" % (len(rest) + 1, dim, n - 1))
        facets.append((a, top))
    return facets


def hull_oracle(datum, lam):
    """Vertices of Conv(W.lambda) intersected with the dominant chamber,
    for regular dominant lambda.  It reads the orbit and the reflections,
    never the H-representation."""
    n = datum.n
    nums, den = linalg.integer_row(_regular(lam))
    # the clip homogenized over den, {(x, t) : den a.x <= top t, x >= 0},
    # whose rays (x, t) are the vertices x / t.  A row r >= r' is implied by
    # r' on (x, t) >= 0, so only the least rows enter; checking each vertex
    # against every row keeps the clip exact whether or not that holds.
    rows = [[-den * v for v in a] + [top]
            for a, top in _hull_facets(datum, nums)]
    least = [r for r in rows
             if not any(q != r and all(map(le, q, r)) for q in rows)]
    walls = [[int(j == i) for j in range(n + 1)] for i in range(n)]
    verts = []
    for ray, _ in _extreme_rays(least + walls):
        if ray[n] <= 0:
            raise AssertionError("the clipped hull is unbounded along %s"
                                 % (ray[:n],))
        v = tuple(Fraction(x, ray[n]) for x in ray[:n])
        if any(sum(map(mul, row, ray)) < 0 for row in rows + walls):
            raise AssertionError("vertex %s violates an inequality" % (v,))
        verts.append(v)
    return sorted(verts)
