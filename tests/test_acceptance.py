"""Acceptance gate: thirteen end-to-end checks, one pass/fail line each.

Tolerances: exact rational equality wherever the underlying arithmetic
is exact; 1e-9 for the floating-point Newton inversion; 30 s wall-clock
budget for the cube checks.
"""

from fractions import Fraction
import random
import time

from petersonlab import (grouprep, liealg, peterson, polytope, rootdata,
                         toric, verify)

F = Fraction

IRREDUCIBLE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2")
ALL_TYPES = tuple(rootdata.CATALOG)


def _line(num, name, ok):
    print("ACCEPTANCE %02d %-22s %s" % (num, name, "PASS" if ok else "FAIL"))
    return ok


def involution_star(datum):
    """Reference permutation i -> i* with w_0(alpha_i) = -alpha_{i*}."""
    w0 = rootdata.longest_element(datum, range(datum.n))
    units = [tuple(1 if j == i else 0 for j in range(datum.n))
             for i in range(datum.n)]
    return tuple(units.index(tuple(-v for v in w0.act_on_root(u)))
                 for u in units)


def _lambdas(datum, seed=20):
    rng = random.Random(seed)
    lams = [tuple(F(1) for _ in range(datum.n))]
    for _ in range(5):
        lams.append(tuple(F(rng.randint(1, 9), rng.randint(1, 4))
                          for _ in range(datum.n)))
    return lams


def test_01_cube_theorem():
    start = time.monotonic()
    ok = True
    for name in IRREDUCIBLE_TYPES:
        datum = rootdata.datum_from_name(name)
        n = datum.n
        for lam in _lambdas(datum):
            poly, lattice = polytope.build_polytope(datum, lam)
            ok &= len(lattice.faces) == 3 ** n
            ok &= len(poly.vertices) == 2 ** n
            ok &= sum(1 for f in lattice.faces.values()
                      if f.dim == n - 1) == 2 * n
            ok &= all(f.dim == len(f.J) - len(f.K)
                      for f in lattice.faces.values())
            iso_ok, _ = polytope.cube_check(lattice, n)
            ok &= iso_ok
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    assert _line(1, "cube-theorem (%.1fs)" % elapsed, ok)


def test_02_h_representation_vs_hull_oracle():
    ok = True
    for name in IRREDUCIBLE_TYPES:
        datum = rootdata.datum_from_name(name)
        for lam in _lambdas(datum):
            poly, _ = polytope.build_polytope(datum, lam)
            ok &= sorted(poly.vertices.values()) == \
                polytope.hull_oracle(datum, lam)
    assert _line(2, "hull-oracle", ok)


def test_03_normal_fan_equals_sigma():
    rep = verify.run_suite("normalfan", seed=0)
    assert _line(3, "normal-fan", not rep.failures)


def test_04_q_pattern():
    ok = True
    for name in ALL_TYPES:
        rep = verify.run_suite("lemma53", name, seed=0, samples=50)
        ok &= not rep.failures
    assert _line(4, "q-pattern", ok)


def test_05_w0_conjugation_of_generators():
    ok = True
    for name in ALL_TYPES:
        ws = grouprep.Workspace(rootdata.datum_from_name(name))
        star = involution_star(ws.datum)
        rep = ws.adjoint_rep()
        w0inv = grouprep.wdot(ws.w0()).inverse()
        for i in range(ws.datum.n):
            vec = [F(0)] * rep.dim
            vec[rep.module.labels.index(
                ('e', ws.chev.simple_index[i]))] = F(1)
            want = [F(0)] * rep.dim
            want[rep.module.labels.index(
                ('f', ws.chev.simple_index[star[i]]))] = F(-1)
            ok &= w0inv.apply(rep, vec) == want
    assert _line(5, "w0-conjugation", ok)


def test_06_minor_nonnegativity():
    ok = True
    for name in ALL_TYPES:
        rep = verify.run_suite("prop44", name, seed=0, samples=200)
        ok &= not rep.failures
    assert _line(6, "minor-nonnegativity", ok)


def test_07_levi_restriction_of_minors():
    ok = True
    for name in ALL_TYPES:
        rep = verify.run_suite("prop35", name, seed=0, samples=50)
        ok &= not rep.failures
    assert _line(7, "levi-restriction", ok)


def test_08_strata_of_minor_map():
    ok = True
    for name in ALL_TYPES:
        rep = verify.run_suite("psi-strata", name, seed=0, samples=50)
        ok &= not rep.failures
    assert _line(8, "minor-map-strata", ok)


def test_09_low_rank_inversion():
    ok = True
    for name in ("A1", "A2"):
        rep = verify.run_suite("theorem59", name, seed=0)
        ok &= not rep.failures
    assert _line(9, "low-rank-inversion", ok)


def test_10_power_minors_and_form_invariance():
    ok = True
    for name in ("A1", "A2", "A3", "B2"):
        rep = verify.run_suite("prop76", name, seed=0, samples=10)
        ok &= not rep.failures
    assert _line(10, "power-minors", ok)


def test_11_component_splitting():
    ok = True
    for name in ("A1xA1", "A2xA1"):
        rep = verify.run_suite("splitting", name, seed=0, samples=50)
        ok &= not rep.failures
    assert _line(11, "component-splitting", ok)


def test_12_moment_map_cells():
    ok = True
    for name in ALL_TYPES:
        rep = verify.run_suite("moment-cells", name, seed=0, samples=100)
        ok &= not rep.failures
    assert _line(12, "moment-map-cells", ok)


def test_13_module_dimensions():
    ok = True
    for name in ALL_TYPES:
        datum = rootdata.datum_from_name(name)
        for i in range(datum.n):
            lam = tuple(1 if k == i else 0 for k in range(datum.n))
            mod = liealg._build_irreducible(datum, lam)
            ok &= mod.dimension == liealg.weyl_dimension(datum, lam)
    assert _line(13, "module-dimensions", ok)
