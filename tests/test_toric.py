from fractions import Fraction
import math
import random

import pytest

from petersonlab import polytope, rootdata, toric

F = Fraction


def _datum(name):
    return rootdata.datum_from_name(name)


def torus_scale(datum, p, z):
    """Action of the positive torus element prod alpha_i^vee(z_i)."""
    n = datum.n
    x = [float(p.x[i]) * float(z[i]) for i in range(n)]
    y = []
    for i in range(n):
        f = 1.0
        for k in range(n):
            f *= float(z[k]) ** datum.pairing[i][k]
        y.append(float(p.y[i]) * f)
    return toric.cox_point(x, y)


def canonical_to_point(datum, c):
    """Embed a canonical representative back as a CoxPoint."""
    n = datum.n
    K, J = c.label
    x = [0.0] * n
    y = [0.0] * n
    free = dict(c.free)
    for i in range(n):
        if i in K:
            x[i] = 0.0
        elif i in J:
            x[i] = math.exp(free[i])
        else:
            x[i] = 1.0
        y[i] = 1.0 if i in J else 0.0
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
    assert c.label == ((), (0,))
    (i, v), = c.free
    assert i == 0
    assert abs(math.exp(v) - 4 / 3) < 1e-12


def test_torus_scale_invariance():
    datum = _datum("B2")
    rng = random.Random(5)
    for _ in range(10):
        p = toric.cox_point((rng.uniform(0.2, 3), rng.uniform(0.2, 3)),
                            (rng.uniform(0.2, 3), rng.uniform(0.2, 3)))
        z = (rng.uniform(0.5, 2), rng.uniform(0.5, 2))
        q = torus_scale(datum, p, z)
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
    as floats.  y = (1, 1) is already canonical, so the free logarithms
    are log x_1, which differ by 100 log(10)."""
    datum = _datum("A2")
    p, q = (toric.canonicalize(datum, toric.cox_point((F(1, 10 ** e), 1),
                                                      (1, 1)))
            for e in (400, 500))
    assert p.label == q.label == ((), (0, 1))
    assert not toric.equivalent(p, q)
    assert toric.equivalent(p, p)


def test_canonical_roundtrip():
    datum = _datum("A2")
    p = toric.cox_point((0, 3), (2, 5))
    c = toric.canonicalize(datum, p)
    back = canonical_to_point(datum, c)
    c2 = toric.canonicalize(datum, back)
    assert c.label == c2.label
    for (i, a), (j, b) in zip(c.free, c2.free):
        assert i == j and abs(math.exp(a) - math.exp(b)) < 1e-9


def test_moment_data_a1():
    datum = _datum("A1")
    poly, _ = polytope.build_polytope(datum, (F(1),))
    data = toric.moment_data(poly)
    assert data.dilate == 2
    # (x exponents, y exponents) of 0 and alpha_1 = 2 w_1
    assert data.points == (((0,), (1,)), ((2,), (0,)))


def test_moment_map_a1_values():
    datum = _datum("A1")
    poly, _ = polytope.build_polytope(datum, (F(1),))
    data = toric.moment_data(poly)
    mu = toric.moment_map(toric.cox_point((1,), (0,)), data)
    assert mu == (1.0,)
    mu = toric.moment_map(toric.cox_point((0,), (1,)), data)
    assert mu == (0.0,)
    mu = toric.moment_map(toric.cox_point((2,), (1,)), data)
    assert abs(mu[0] - 0.8) < 1e-12


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
    assert max(abs(a - b) for a, b in zip(mp, mq)) < 1e-10


@pytest.mark.parametrize("e", [40, 400])
def test_canonicalize_coordinates_below_the_float_range(e):
    """On A2, x = y = (10^-e, 1) gives u = (2, 1) e log(10) / 3, so the free
    coordinates are (10^(-e/3), 10^(e/3)).  10^-400 has no float (it reads
    0.0): its logarithm is taken from the exact value."""
    datum = _datum("A2")
    t = F(1, 10 ** e)
    c = toric.canonicalize(datum, toric.cox_point((t, 1), (t, 1)))
    assert c.label == ((), (0, 1))
    want = (10.0 ** (-e / 3), 10.0 ** (e / 3))
    assert [i for i, _ in c.free] == [0, 1]
    for (_, got), v in zip(c.free, want):
        assert abs(math.exp(got) - v) <= toric.EQUIV_RTOL * v


def test_moment_map_coordinates_below_the_float_range():
    """On A1 at lambda = 1 the characters are y and x^2: at [10^-400;
    10^-800] both are 10^-800, as at [1; 1] both are 1, so the images agree.
    Neither coordinate has a float; the characters are weighed by exact
    logarithms, not by float zeros that would leave none."""
    datum = _datum("A1")
    poly, _ = polytope.build_polytope(datum, (F(1),))
    data = toric.moment_data(poly)
    tiny = toric.cox_point((F(1, 10 ** 400),), (F(1, 10 ** 800),))
    one = toric.cox_point((1,), (1,))
    assert toric.moment_map(tiny, data) == pytest.approx(
        toric.moment_map(one, data), rel=1e-12)
