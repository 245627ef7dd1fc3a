from fractions import Fraction
import math
import random

import pytest

from petersonlab import linalg, polytope, rootdata, toric

F = Fraction


def _datum(name):
    return rootdata.datum_from_name(name)


def torus_scale(datum, p, z):
    """Action of the positive torus element prod alpha_i^vee(z_i), exact
    on the rational values of the coordinates and of z."""
    n = datum.n
    x = [F(p.x[i]) * F(z[i]) for i in range(n)]
    y = [F(p.y[i]) * math.prod(F(z[k]) ** datum.pairing[i][k]
                               for k in range(n)) for i in range(n)]
    return toric.cox_point(x, y)


def _rational_root(v, d):
    """The rational d-th root of v; a test fails where there is none."""
    r = F(round(v.numerator ** (1 / d)), round(v.denominator ** (1 / d)))
    assert r ** d == v, (v, d)
    return r


def canonical_to_point(datum, c):
    """Embed a canonical representative back as a CoxPoint, where each of
    its free coordinates is rational."""
    K, J = c.label
    free = {i: _rational_root(v, c.power) for i, v in c.free}
    x = [0 if i in K else free.get(i, 1) for i in range(datum.n)]
    y = [1 if i in J else 0 for i in range(datum.n)]
    return toric.cox_point(x, y)


def test_point_validation():
    with pytest.raises(ValueError):
        toric.cox_point((0, 1), (0, 1, 1))
    with pytest.raises(ValueError):
        toric.cox_point((0, 1), (0, 1))      # (x_1, y_1) = (0, 0)
    with pytest.raises(ValueError):
        toric.cox_point((-1, 1), (1, 1))


def test_stratum_of():
    p = toric.cox_point((0, 3), (2, 5))
    assert toric.stratum_of(p) == ((0,), (0, 1))
    p = toric.cox_point((1, 1), (0, 0))
    assert toric.stratum_of(p) == ((), ())


def test_canonicalize_a1_example():
    datum = _datum("A1")
    c = toric.canonicalize(datum, toric.cox_point((4,), (9,)))
    # x e^u with y e^(2u) = 1: x^2 / y = 16/9, the square of 4/3
    assert c == toric.CanonicalCoxPoint(label=((), (0,)), power=2,
                                        free=((0, F(16, 9)),))


def test_torus_scale_invariance():
    datum = _datum("B2")
    rng = random.Random(5)
    for _ in range(10):
        p = toric.cox_point((rng.uniform(0.2, 3), rng.uniform(0.2, 3)),
                            (rng.uniform(0.2, 3), rng.uniform(0.2, 3)))
        z = (rng.uniform(0.5, 2), rng.uniform(0.5, 2))
        q = torus_scale(datum, p, z)
        assert q != p
        assert toric.equivalent(toric.canonicalize(datum, p),
                                toric.canonicalize(datum, q))


def test_equivalence_separates_strata_and_orbits():
    datum = _datum("A2")
    p, q, r = (toric.canonicalize(datum, toric.cox_point(x, (1, 1)))
               for x in ((1, 1), (0, 1), (2, 1)))
    assert not toric.equivalent(p, q)
    assert not toric.equivalent(p, r)


def test_equivalence_separates_orbits_below_the_float_range():
    """On A2, x_1 = 10^-400 and x_1 = 10^-500 (y = (1, 1)) both read 0.0
    as floats.  y = (1, 1) is already canonical, so the free cubes are
    x_1^3 = 10^-1200 and 10^-1500."""
    datum = _datum("A2")
    p, q = (toric.canonicalize(datum, toric.cox_point((F(1, 10 ** e), 1),
                                                      (1, 1)))
            for e in (400, 500))
    assert p.label == q.label == ((), (0, 1))
    assert not toric.equivalent(p, q)
    assert toric.equivalent(p, p)


def test_canonical_roundtrip():
    """On A2, x = (0, 3), y = (2, 2): x_2^3 / (y_1 y_2^2) = 27/8, so the
    free coordinate is 3/2 and the representative is rational."""
    datum = _datum("A2")
    p = toric.cox_point((0, 3), (2, 2))
    c = toric.canonicalize(datum, p)
    back = canonical_to_point(datum, c)
    assert back == toric.cox_point((0, F(3, 2)), (1, 1))
    assert toric.canonicalize(datum, back) == c


def test_moment_data_a1():
    datum = _datum("A1")
    poly, _ = polytope.build_polytope(datum, (F(1),))
    data = toric.moment_data(poly)
    assert data.dilate == 2
    # x exponent, then y exponent, of 0 and alpha_1 = 2 w_1
    assert data.points == ((0, 1), (2, 0))
    assert data.top == (2, 1)


def test_moment_map_a1_values():
    datum = _datum("A1")
    poly, _ = polytope.build_polytope(datum, (F(1),))
    data = toric.moment_data(poly)
    mu = toric.moment_map(toric.cox_point((1,), (0,)), data)
    assert mu == (1.0,)
    mu = toric.moment_map(toric.cox_point((0,), (1,)), data)
    assert mu == (0.0,)
    # characters y = 1 and x^2 = 4 at the weights 0 and 2, over N = 2
    mu = toric.moment_map(toric.cox_point((2,), (1,)), data)
    assert mu == (F(4, 5),)


def test_moment_map_boundary_vertices_all_types():
    for name in ("A2", "B2", "G2"):
        datum = _datum(name)
        n = datum.n
        poly, _ = polytope.build_polytope(datum, tuple(F(1)
                                                       for _ in range(n)))
        data = toric.moment_data(poly)
        mu = toric.moment_map(toric.cox_point((1,) * n, (0,) * n), data)
        assert mu == tuple(1.0 for _ in range(n))
        mu = toric.moment_map(toric.cox_point((0,) * n, (1,) * n), data)
        assert mu == tuple(0.0 for _ in range(n))


def test_moment_map_respects_torus_action():
    datum = _datum("A2")
    poly, _ = polytope.build_polytope(datum, (F(1), F(1)))
    p = toric.cox_point((1.5, 0.5), (1.0, 2.0))
    q = torus_scale(datum, p, (1.7, 0.6))
    data = toric.moment_data(poly)
    mp = toric.moment_map(p, data)
    mq = toric.moment_map(q, data)
    assert mp == mq


@pytest.mark.parametrize("e", [40, 400])
def test_canonicalize_coordinates_below_the_float_range(e):
    """On A2, x = y = (10^-e, 1) gives u = (2, 1) e log(10) / 3, so the free
    coordinates are (10^(-e/3), 10^(e/3)), held exactly as their cubes.
    10^-400 has no float (it reads 0.0)."""
    datum = _datum("A2")
    t = F(1, 10 ** e)
    c = toric.canonicalize(datum, toric.cox_point((t, 1), (t, 1)))
    assert c == toric.CanonicalCoxPoint(
        label=((), (0, 1)), power=3,
        free=((0, F(1, 10 ** e)), (1, F(10 ** e))))


def test_equivalence_separates_subnormal_neighbours():
    """On A1, y = 3 10^-320 and y = 3000001 10^-326 differ in the seventh
    digit, below the digits a subnormal float keeps: the exact canonical
    forms x^2 / y tell the orbits apart."""
    datum = _datum("A1")
    p, q = (toric.canonicalize(datum, toric.cox_point((1,), (y,)))
            for y in (F(3, 10 ** 320), F(3000001, 10 ** 326)))
    assert not toric.equivalent(p, q)
    assert p.free == ((0, F(10 ** 320, 3)),)


def test_moment_map_coordinates_below_the_float_range():
    """On A1 at lambda = 1 the characters are y and x^2: at [10^-400;
    10^-800] both are 10^-800, as at [1; 1] both are 1, so the images agree.
    Neither coordinate has a float; the characters are exact integers
    over one denominator, not float zeros that would leave none."""
    datum = _datum("A1")
    poly, _ = polytope.build_polytope(datum, (F(1),))
    data = toric.moment_data(poly)
    tiny = toric.cox_point((F(1, 10 ** 400),), (F(1, 10 ** 800),))
    one = toric.cox_point((1,), (1,))
    assert toric.moment_map(tiny, data) == toric.moment_map(one, data)


def _vertex_average(p, data):
    """sum_v chi_v(p) v / (N sum_v chi_v(p)) over the points of data, in
    Fractions, as the definition reads."""
    n = len(p.x)
    coords = [F(v) for v in p.x + p.y]
    chis = [math.prod(c ** e for c, e in zip(coords, pt))
            for pt in data.points]
    total = sum(chis)
    return tuple(sum(chi * pt[i] for chi, pt in zip(chis, data.points))
                 / (data.dilate * total) for i in range(n))


@pytest.mark.parametrize("name", list(rootdata.CATALOG))
def test_moment_data_points_are_the_dilated_vertices(name):
    """At rho and at a non-rho lambda, the points are the 2^n vertices N v
    of N P^lambda, each as its fundamental-weight coordinates N v and then
    N (lambda - v) in simple-root coordinates, N the least dilate that
    makes every vertex's simple-root coordinates integers."""
    datum = _datum(name)
    n = datum.n
    for lam in ((F(1),) * n, tuple(F(k + 2, 3) for k in range(n))):
        poly, _ = polytope.build_polytope(datum, lam)
        data = toric.moment_data(poly)
        lam_alpha = datum.weight_to_root_coords(lam)
        alphas = {v: datum.weight_to_root_coords(v)
                  for v in poly.vertices.values()}
        N = math.lcm(*(a.denominator for al in alphas.values() for a in al))
        want = sorted(tuple(N * c for c in v)
                      + tuple(N * (m - a) for m, a in zip(lam_alpha, al))
                      for v, al in alphas.items())
        assert data.dilate == N
        assert len(data.points) == 2 ** n
        assert list(data.points) == want
        assert all(type(e) is int for pt in data.points for e in pt)


def test_moment_data_has_only_the_vertices_at_a_large_lambda():
    """On A2 at lambda = (3, 1000), N = 6, the box around the lattice
    points of N P^lambda holds 2013 x 4007 points; the moment data holds
    the 4 vertices, the largest exponent 6 * 1001.5 that of the vertex
    (0, 1001.5)."""
    poly, _ = polytope.build_polytope(_datum("A2"), (F(3), F(1000)))
    data = toric.moment_data(poly)
    assert data.dilate == 6 and len(data.points) == 4
    assert max(data.top) == 6009 <= toric.EXPONENT_CAP


def test_moment_data_refuses_exponents_over_the_cap():
    poly, _ = polytope.build_polytope(_datum("A2"), (F(1), F(10 ** 300)))
    with pytest.raises(ValueError, match="cap %d" % toric.EXPONENT_CAP):
        toric.moment_data(poly)


def test_moment_map_is_the_sums_over_their_denominator():
    """moment_map is the first n of moment_sums over its one denominator,
    and both are the vertex average as the definition reads it, on every
    stratum pattern of random points; the last n sums over it are the cap
    slacks <w_i^vee, lambda - mu>."""
    rng = random.Random(2)
    for name in ("A2", "B3", "G2", "A2xA1"):
        datum = _datum(name)
        n = datum.n
        lam = (F(1),) * n
        poly, _ = polytope.build_polytope(datum, lam)
        data = toric.moment_data(poly)
        lam_alpha = datum.weight_to_root_coords(lam)
        for _ in range(6):
            x = [rng.choice([0, F(rng.randint(1, 9), rng.randint(1, 9))])
                 for _ in range(n)]
            y = [F(rng.randint(1, 9), 4) if xi == 0 or rng.random() < 0.5
                 else 0 for xi in x]
            p = toric.cox_point(x, y)
            sums, den = toric.moment_sums(p, data)
            assert len(sums) == 2 * n
            mu = toric.moment_map(p, data)
            assert mu == tuple(F(s, den) for s in sums[:n])
            assert mu == _vertex_average(p, data)
            caps = tuple(m - a for m, a in
                         zip(lam_alpha, datum.weight_to_root_coords(mu)))
            assert caps == tuple(F(s, den) for s in sums[n:])


def _face_by_pairing_inverse(datum, lam, num, d):
    """The face of mu = num / d the way moment-cells once read it, and
    whether mu is in its relative interior: mu's simple-root coordinates,
    mu C^{-1}, are compared with lambda's, C^{-1} and lambda's coordinates
    over one common denominator."""
    n = datum.n
    flat, _ = linalg.integer_row(
        [v for row in datum.pairing_inverse for v in row]
        + list(datum.weight_to_root_coords(lam)))
    pinv = [flat[j * n:(j + 1) * n] for j in range(n)]
    caps = flat[n * n:]
    alpha = [sum(num[j] * pinv[j][i] for j in range(n)) for i in range(n)]
    K = tuple(i for i in range(n) if num[i] == 0)
    J = tuple(i for i in range(n) if alpha[i] != caps[i] * d)
    strict = all(num[i] > 0 for i in range(n) if i not in K) and \
        all(alpha[i] < caps[i] * d for i in J)
    return (K, J), strict


@pytest.mark.parametrize("name", list(rootdata.CATALOG))
def test_moment_face_reads_the_face_of_the_pairing_inverse_route(name):
    """On seeded Cox points of every stratum pattern, the face that
    moment_face reads off the zero pattern of the slack sums is the one
    mu C^{-1} gives, with mu in its relative interior, and it is the
    point's stratum.  That moment-cells reports a swapped label (J, K) as
    a failure is tests/test_verify.py's
    test_moment_cells_reports_a_swapped_face."""
    datum = _datum(name)
    n = datum.n
    lam = tuple(F(k + 2, 3) for k in range(n))
    poly, _ = polytope.build_polytope(datum, lam)
    data = toric.moment_data(poly)
    rng = random.Random(11)
    for _ in range(12):
        J = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        K = tuple(sorted(rng.sample(J, rng.randint(0, len(J)))))
        x = [0 if i in K else F(rng.randint(1, 30), 10) for i in range(n)]
        y = [F(rng.randint(1, 30), 10) if i in J else 0 for i in range(n)]
        sums, den = toric.moment_sums(toric.cox_point(x, y), data)
        got = toric.moment_face(sums)
        assert _face_by_pairing_inverse(datum, lam, sums[:n], den) == \
            (got, True)
        assert got == (K, J)


def test_moment_map_respects_torus_action_b3():
    datum = _datum("B3")
    poly, _ = polytope.build_polytope(datum, (F(1),) * 3)
    data = toric.moment_data(poly)
    rng = random.Random(7)
    for _ in range(5):
        p = toric.cox_point([F(rng.randint(1, 30), 10) for _ in range(3)],
                            [F(rng.randint(1, 30), 10) for _ in range(3)])
        z = [F(rng.randint(5, 20), 10) for _ in range(3)]
        q = torus_scale(datum, p, z)
        assert q != p
        assert toric.moment_map(p, data) == toric.moment_map(q, data)
