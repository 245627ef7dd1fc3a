from fractions import Fraction
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from petersonlab import linalg, polytope, rootdata, verify

F = Fraction


def _datum(name):
    return rootdata.datum_from_name(name)


def test_fan_cone_count_and_simpliciality():
    for name in ("A2", "B2", "G2", "B3"):
        datum = _datum(name)
        fan = polytope.build_fan(datum)
        assert len(fan.cones) == 3 ** datum.n
        top = fan.cones[((), tuple(range(datum.n)))]
        assert top.dim == datum.n


def test_a1_polytope_is_segment():
    datum = _datum("A1")
    poly, lattice = polytope.build_polytope(datum, (F(1),))
    assert sorted(poly.vertices.values()) == [(F(0),), (F(1),)]
    assert len(lattice.faces) == 3
    ok, _ = polytope.cube_check(lattice, 1)
    assert ok


def test_rejects_non_regular_lambda():
    datum = _datum("A2")
    with pytest.raises(ValueError):
        polytope.build_polytope(datum, (F(1), F(0)))


def test_face_dims_and_counts():
    datum = _datum("B2")
    poly, lattice = polytope.build_polytope(datum, (F(1), F(1)))
    assert len(poly.vertices) == 4
    assert len(lattice.faces) == 9
    for (K, J), f in lattice.faces.items():
        assert f.dim == len(J) - len(K)
    facets = [f for f in lattice.faces.values() if f.dim == 1]
    assert len(facets) == 4


def test_cube_check_detects_broken_lattice():
    datum = _datum("A2")
    _, lattice = polytope.build_polytope(datum, (F(1), F(1)))
    broken = dict(lattice.faces)
    a, b = ((), ()), ((0,), (0,))
    broken[a], broken[b] = broken[b], broken[a]
    ok, _ = polytope.cube_check(polytope.FaceLattice(faces=broken), 2)
    assert not ok


@pytest.mark.parametrize("face", [((0,), (0, 1)), ((), (0, 1))])
def test_cube_check_needs_every_cube_code(face):
    """A lattice that misses one face misses its cube code, so cube_check
    refuses it: A2 at rho with the face ((0,), (0, 1)), or the top face,
    deleted."""
    datum = _datum("A2")
    _, lattice = polytope.build_polytope(datum, (F(1), F(1)))
    faces = {k: f for k, f in lattice.faces.items() if k != face}
    assert len(faces) == 8
    ok, _ = polytope.cube_check(polytope.FaceLattice(faces=faces), 2)
    assert not ok


@pytest.mark.parametrize("name, keep, count",
                         [("A2", {0}, 3), ("A3", {0, 1}, 9)])
def test_cube_check_refuses_a_lattice_cut_to_fewer_nodes(name, keep, count):
    """A lattice that has lost every face touching the last node is the
    face lattice of a smaller cube, not of the n-cube: cube_check reads n
    from the datum, not from the labels left."""
    datum = _datum(name)
    _, lattice = polytope.build_polytope(datum, (F(1),) * datum.n)
    faces = {(K, J): f for (K, J), f in lattice.faces.items()
             if set(J) <= keep}
    assert len(faces) == count
    ok, _ = polytope.cube_check(polytope.FaceLattice(faces=faces), datum.n)
    assert not ok


def test_normal_fan_matches_sigma():
    """The normalfan suite compares tau_{K,J} with sigma_{K, complement of
    J} once per face: 3^n cases, none failing."""
    for name in ("A1", "A2", "B2", "G2"):
        rep = verify.run_suite("normalfan", name, seed=0)
        assert rep.cases == 3 ** _datum(name).n
        assert rep.failures == []


def test_normal_fan_a1_vertex_cones():
    datum = _datum("A1")
    poly, lattice = polytope.build_polytope(datum, (F(1),))
    nfan = polytope.normal_fan(poly, lattice)
    # vertex at 0 (J = {0}): outward normal is the negated coroot
    assert nfan.cones[((0,), (0,))].rays == ((-1,),)
    # vertex at lambda (J = {}): outward normal is the coweight
    assert nfan.cones[((), ())].rays == ((1,),)


def test_weyl_orbit_sizes():
    assert len(polytope.weyl_orbit(_datum("A2"), (F(1), F(1)))) == 6
    assert len(polytope.weyl_orbit(_datum("B2"), (F(1), F(1)))) == 8
    assert len(polytope.weyl_orbit(_datum("G2"), (F(1), F(1)))) == 12


def test_hull_oracle_matches_h_representation_at_rho():
    for name in ("A1", "A2", "B2", "G2", "A1xA1"):
        datum = _datum(name)
        lam = tuple(F(1) for _ in range(datum.n))
        poly, _ = polytope.build_polytope(datum, lam)
        assert sorted(poly.vertices.values()) == \
            polytope.hull_oracle(datum, lam)


def test_hull_facets_at_rho():
    """At rho the orbit hull has one facet per W-translate of each
    fundamental weight's direction: sum_i |W|/|W_{S-i}| of them."""
    expected = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 14, "B3": 26,
                "C3": 26, "A4": 30, "D4": 48}
    for name, count in expected.items():
        datum = _datum(name)
        n = datum.n
        orbit = polytope.weyl_orbit(datum, tuple(F(1) for _ in range(n)))
        facets = polytope._exact_hull_facets(orbit)
        assert len(set(facets)) == len(facets) == count
        omegas = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        assert count == sum(len(polytope.weyl_orbit(datum, w))
                            for w in omegas)
        for a, b in facets:
            assert all(isinstance(v, int) for v in a)
            assert math.gcd(*a) == 1
            # the orbit of rho is integral
            vals = [sum(x * int(y) for x, y in zip(a, p)) for p in orbit]
            assert max(vals) == b
            assert vals.count(b) >= n


def test_hull_takes_one_rank_per_facet(monkeypatch):
    """Each facet's normal is read off its double-description ray: on D4 at
    rho, 48 facets take no kernel and one integer rank each."""
    calls = {"kernel_basis": 0, "rank": 0}
    for name in calls:
        def counted(a, name=name, fn=getattr(linalg, name)):
            calls[name] += 1
            return fn(a)
        monkeypatch.setattr(linalg, name, counted)
    orbit = polytope.weyl_orbit(_datum("D4"), (F(1),) * 4)
    assert len(polytope._exact_hull_facets(orbit)) == 48
    assert calls == {"kernel_basis": 0, "rank": 48}


@settings(max_examples=10, deadline=None)
@given(st.tuples(st.fractions(min_value=F(1, 3), max_value=4,
                              max_denominator=5),
                 st.fractions(min_value=F(1, 3), max_value=4,
                              max_denominator=5)))
def test_hull_oracle_matches_on_random_regular_lambda(lam):
    datum = _datum("B2")
    poly, _ = polytope.build_polytope(datum, lam)
    assert sorted(poly.vertices.values()) == polytope.hull_oracle(datum, lam)


def test_vertices_lie_in_polytope():
    datum = _datum("C3")
    lam = (F(2), F(1), F(3, 2))
    poly, _ = polytope.build_polytope(datum, lam)
    assert len(poly.slacks) == 8
    for row in poly.slacks.values():
        assert len(row) == 6 and min(row) >= 0


def test_extreme_rays_of_the_homogenised_square_and_its_polar():
    """{(x, y, t) : 0 <= x, y <= t} has the rays (v, 1) of the unit
    square's vertices, each zero on the two rows of its edges; its polar,
    the cone of those rays as rows, has the four rows as its rays.  The
    redundant row t >= 0 vanishes on no ray."""
    rows = [(1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, -1, 1), (0, 0, 1)]
    rays = dict(polytope._extreme_rays(rows))
    assert rays == {(0, 0, 1): 0b00101, (1, 0, 1): 0b00110,
                    (0, 1, 1): 0b01001, (1, 1, 1): 0b01010}
    cone = sorted(rays)
    polar = dict(polytope._extreme_rays(cone))
    assert polar == {r: sum(1 << k for k, ray in enumerate(cone)
                            if sum(a * b for a, b in zip(r, ray)) == 0)
                     for r in rows[:4]}


def test_hull_of_a_lower_dimensional_set_raises():
    """Points on a line, or a square lying in a plane of 3-space, span no
    pointed cone of inequalities: no facets come back."""
    for points in ([(F(0), F(0)), (F(1), F(1)), (F(3), F(3))],
                   [(F(x), F(y), F(0)) for x in (0, 1) for y in (0, 1)]):
        with pytest.raises(ValueError):
            polytope._exact_hull_facets(points)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["C3", "A2xA1"]),
       st.lists(st.fractions(min_value=F(1, 3), max_value=4,
                             max_denominator=5), min_size=3, max_size=3))
def test_hull_oracle_matches_on_random_regular_lambda_rank3(name, lam):
    datum = _datum(name)
    poly, _ = polytope.build_polytope(datum, lam)
    assert sorted(poly.vertices.values()) == polytope.hull_oracle(datum, lam)


@pytest.mark.parametrize("name,lam", [("A2", (1, 0)), ("A2xA1", (1, 1, 0)),
                                      ("A2", (0, 0))])
def test_hull_oracle_refuses_non_regular_lambda(monkeypatch, name, lam):
    """The oracle's domain is build_polytope's: it refuses, with the same
    message, before it builds an orbit."""
    def no_orbit(*args):
        raise AssertionError("an orbit was built")
    monkeypatch.setattr(polytope, "_closure", no_orbit)
    datum = _datum(name)
    lam = tuple(F(v) for v in lam)
    with pytest.raises(ValueError) as built:
        polytope.build_polytope(datum, lam)
    with pytest.raises(ValueError) as oracle:
        polytope.hull_oracle(datum, lam)
    assert str(oracle.value) == str(built.value)


def test_symmetric_hull_facets_match_the_general_double_description():
    """The facets closed up from the edge cone at lambda are those the
    general double description finds on the whole orbit: every catalog
    type, at rho and at the cube suite's lambdas for seeds 0 and 11."""
    for name in rootdata.CATALOG:
        datum = _datum(name)
        lams = [(F(1),) * datum.n]
        for seed in (0, 11):
            lams += verify._random_regular_lambdas(datum, 5, seed)
        for lam in lams:
            nums, den = linalg.integer_row(lam)
            got = sorted((a, F(top, den))
                         for a, top in polytope._hull_facets(datum, nums))
            assert got == polytope._exact_hull_facets(
                polytope.weyl_orbit(datum, lam)), (name, lam)


def test_hull_oracle_work_on_d4(monkeypatch):
    """On D4 at rho the oracle takes no general double description and no
    kernel, one integer rank per facet (48), and two small double
    descriptions: the edge cone on n rows, the clip on at most 2n."""
    calls = {"kernel_basis": 0, "rank": 0, "_exact_hull_facets": 0}
    for owner, name in ((linalg, "kernel_basis"), (linalg, "rank"),
                        (polytope, "_exact_hull_facets")):
        def counted(a, name=name, fn=getattr(owner, name)):
            calls[name] += 1
            return fn(a)
        monkeypatch.setattr(owner, name, counted)
    sizes = []

    def sized(rows, fn=polytope._extreme_rays):
        sizes.append(len(rows))
        return fn(rows)
    monkeypatch.setattr(polytope, "_extreme_rays", sized)
    datum = _datum("D4")
    assert len(polytope.hull_oracle(datum, (F(1),) * 4)) == 16
    assert calls == {"kernel_basis": 0, "rank": 48, "_exact_hull_facets": 0}
    assert len(sizes) == 2 and sizes[0] <= 4 and sizes[1] <= 8


@pytest.mark.parametrize("name", sorted(rootdata.CATALOG))
def test_vertex_alpha_are_the_simple_root_coordinates(name):
    """The Levi solve gives each vertex's simple-root coordinates, which
    its slack row holds: the caps are N (lambda - v) in simple-root
    coordinates, read by the independent C^{-1} route of
    weight_to_root_coords, and the walls are N v.  N is the least dilate
    that makes them all integers."""
    datum = _datum(name)
    for lam in ((F(1),) * datum.n,
                verify._random_regular_lambdas(datum, 1, 0)[0]):
        poly, _ = polytope.build_polytope(datum, lam)
        N = poly.dilate
        lam_alpha = datum.weight_to_root_coords(lam)
        want = {}
        for J, v in poly.vertices.items():
            assert all(isinstance(c, F) for c in v)
            alpha = datum.weight_to_root_coords(v)
            want[J] = tuple(N * c for c in v) + \
                tuple(N * (m - a) for m, a in zip(lam_alpha, alpha))
            assert all(type(s) is int for s in poly.slacks[J])
        assert poly.slacks == want
        assert N == math.lcm(*(F(s, N).denominator
                               for row in poly.slacks.values() for s in row))
