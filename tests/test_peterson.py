import dataclasses
from fractions import Fraction
import hashlib
import itertools
import math
import os
import random
import struct
import subprocess
import sys
import textwrap

from hypothesis import given, settings, strategies as st
import pytest

from petersonlab import grouprep, linalg, peterson, rootdata, toric, verify

from test_grouprep import q_coefficient, tnn_membership_reference

F = Fraction


def _ws(name):
    return grouprep.Workspace(rootdata.datum_from_name(name))


def test_membership_trivial_in_a1():
    ws = _ws("A1")
    g = grouprep.x_(0, F(4)) * grouprep.sdot(0)
    assert peterson.peterson_membership(g, ws)


def test_membership_normal_form_and_counterexample_a2():
    ws = _ws("A2")
    p = peterson.make_point(ws, (0, 1), (F(2), F(5)))
    assert peterson.peterson_membership(peterson.element(ws, p), ws)
    bad = grouprep.x_(0, F(1)) * grouprep.wdot(ws.w0())
    assert not peterson.peterson_membership(bad, ws)


def test_log_commutes_with_e():
    ws = _ws("B2")
    J = (0, 1)
    basis = grouprep.centralizer_basis(ws, J)
    p = peterson.make_point(ws, J, (F(3), F(1, 2)))
    elem = {}
    for c, b in zip(p.coords, basis):
        for l, v in b.items():
            elem[l] = elem.get(l, F(0)) + c * v
    e_j = {('e', ws.chev.simple_index[j]): F(1) for j in J}
    assert ws.chev.bracket_elements(elem, e_j) == {}


def test_deltas_match_the_kernel_minors_everywhere():
    """The minor polynomials agree with the kernel on the whole word, for
    every catalog type and J, at zero, negative and positive rationals."""
    for name in rootdata.CATALOG:
        ws = _ws(name)
        for J in rootdata.subsets(range(ws.datum.n)):
            for coords in ([F(0)] * len(J),
                           [F(-3, 2) + F(k, 3) for k in range(len(J))],
                           [F(5 - 2 * k, 1 + k) for k in range(len(J))]):
                p = peterson.make_point(ws, J, coords)
                g = peterson.element(ws, p)
                want = tuple(grouprep.delta_varpi(i, g, ws)
                             for i in range(ws.datum.n))
                assert peterson.deltas(ws, p) == want, (name, J, coords)


def test_q_forms_match_the_kernel_everywhere():
    """The q polynomials agree with the kernel's ad-conjugation of e on the
    whole word, for every catalog type and J, at zero, negative and
    positive rationals."""
    for name in rootdata.CATALOG:
        ws = _ws(name)
        for J in rootdata.subsets(range(ws.datum.n)):
            for coords in ([F(0)] * len(J),
                           [F(-3, 2) + F(k, 3) for k in range(len(J))],
                           [F(5 - 2 * k, 1 + k) for k in range(len(J))]):
                p = peterson.make_point(ws, J, coords)
                g = peterson.element(ws, p)
                want = tuple(q_coefficient(i, g, ws)
                             for i in range(ws.datum.n))
                assert peterson.q_values(ws, p) == want, (name, J, coords)


def test_minor_polynomials_closed_form_a2():
    """On A2 with J = (0, 1) and coordinates (a, b) on the centralizer
    basis (e_1 + e_2, e_12): Delta_1 = b + a^2/2, Delta_2 = a^2/2 - b,
    stored as integer terms over den = 2, each monomial padded to degree
    2."""
    ws = _ws("A2")
    polys = ws.minor_polynomials((0, 1))
    assert (polys.den, polys.degree) == (2, 2)
    assert polys.monomials == (((0, 1), 1), ((2, 0), 0))
    assert polys.terms == (((0, 2), (1, 1)), ((0, -2), (1, 1)))
    nums, den = polys.evaluate([6, -1], 3)     # (a, b) = (2, -1/3)
    assert [F(m, den) for m in nums] == [F(5, 3), F(7, 3)]


def test_classify_stratum():
    ws = _ws("A2")
    full = (0, 1)
    # identity coset: all minors vanish
    p = peterson.make_point(ws, full, (F(0), F(0)))
    assert peterson.classify_stratum(
        p.J, peterson.deltas(ws, p)) == (full, full)
    # J empty: the base point, K empty
    p = peterson.make_point(ws, (), ())
    assert peterson.classify_stratum(p.J, peterson.deltas(ws, p)) == ((), ())
    # A1 with a > 0
    ws1 = _ws("A1")
    p = peterson.make_point(ws1, (0,), (F(5),))
    assert peterson.classify_stratum(
        p.J, peterson.deltas(ws1, p)) == ((), (0,))


def test_psi_a1():
    ws = _ws("A1")
    p = peterson.make_point(ws, (0,), (F(3),))
    c = peterson.psi(ws, p)
    assert c.x == (F(3),) and c.y == (F(1),)


def test_psi_empty_j_is_all_ones():
    for name in ("A2", "B2", "G2"):
        ws = _ws(name)
        p = peterson.make_point(ws, (), ())
        c = peterson.psi(ws, p)
        assert all(v == 1 for v in c.x)
        assert all(v == 0 for v in c.y)


def test_q_pattern_lemma():
    ws = _ws("B2")
    for J in [(), (0,), (1,), (0, 1)]:
        for p in peterson.sample_points(ws, J, 5, seed=2):
            _, ys = peterson.minor_vector(ws, p)
            assert ys == tuple(F(1 if i in J else 0) for i in range(2))


def test_tnn_sampled_strata_match_toric_strata():
    ws = _ws("A2")
    datum = ws.datum
    for J in [(0,), (0, 1)]:
        for p, minors in peterson.sample_points(ws, J, 6, seed=4,
                                                tnn_only=True):
            assert minors == peterson.deltas(ws, p)
            c = peterson.psi(ws, p, minors)
            label = peterson.classify_stratum(p.J, c.x)
            assert toric.canonicalize(datum, c).label == label


def test_split_components_exact():
    ws = _ws("A2xA1")
    comps = [tuple(b) for b in rootdata.dynkin_components(ws.datum)]
    p = peterson.make_point(ws, (0, 1, 2), (F(3), F(2), F(1, 2)))
    fx, fy = peterson.minor_vector(ws, p)
    got_x, got_y = [None] * 3, [None] * 3
    for cp in peterson.split_components(ws, p, comps):
        sws = grouprep.Workspace(cp.datum)
        cx, cy = peterson.minor_vector(sws, cp.point)
        for k, i in enumerate(cp.nodes):
            got_x[i], got_y[i] = cx[k], cy[k]
    assert tuple(got_x) == fx and tuple(got_y) == fy


def test_split_components_rejects_bad_partition():
    ws = _ws("A2xA1")
    p = peterson.make_point(ws, (0,), (F(1),))
    with pytest.raises(ValueError):
        peterson.split_components(ws, p, [(0,), (1, 2)])


def test_invert_a1_is_identity():
    ws = _ws("A1")
    p, _ = peterson.invert_theorem59(ws, [F(5)])
    assert p.coords == (F(5),)
    p, _ = peterson.invert_theorem59(ws, [F(0)])
    assert p.coords == (F(0),)


def test_invert_a2_interior_target():
    ws = _ws("A2")
    p, _ = peterson.invert_theorem59(ws, [2.5, 1.5])
    got = [float(v) for v in peterson.deltas(ws, p)]
    assert max(abs(g - t) for g, t in zip(got, (2.5, 1.5))) < 1e-9
    x = peterson.unipotent_part(ws, p)
    mat = x.matrix(ws.fundamental_rep(0))
    assert grouprep.tnn_membership_typeA(mat, tol=1e-9)


def test_inversion_does_not_load_numpy():
    """theorem59 inverts in pure Python: numpy would raise the peak memory
    and start-up time of every inversion run."""
    script = textwrap.dedent("""
        import sys
        from petersonlab import grouprep, peterson, rootdata
        ws = grouprep.workspace(rootdata.datum_from_name("A2"))
        peterson.invert_theorem59(ws, [2.5, 1.5])
        print("numpy" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(peterson.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_invert_rejects_negative_targets():
    ws = _ws("A1")
    with pytest.raises(ValueError):
        peterson.invert_theorem59(ws, [-1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_invert_rejects_non_finite_targets(bad):
    """A target with no finite value is refused as a negative one is, not
    reported as a Newton failure."""
    ws = _ws("A2")
    with pytest.raises(ValueError, match="finite"):
        peterson.invert_theorem59(ws, [bad, 1.0])


def test_invert_extreme_target_fails_cleanly():
    """Iterates that overflow or meet a singular Jacobian end their start;
    with every start spent the inversion raises InversionError."""
    ws = _ws("A2")
    with pytest.raises(peterson.InversionError):
        peterson.invert_theorem59(ws, [1e300, 1.0])


@pytest.mark.parametrize("target", [[1e6, 1.0], [1e6, 1e6]])
def test_invert_large_targets(target):
    """The Newton tolerances scale with the largest target: near 1e6 the
    float spacing of a minor is about 1e-10, above an absolute 1e-11."""
    ws = _ws("A2")
    p, _ = peterson.invert_theorem59(ws, target)
    got = [float(v) for v in peterson.deltas(ws, p)]
    assert max(abs(g - t) for g, t in zip(got, target)) < 1e-9 * 1e6


def test_invert_unimplemented_rank():
    ws = _ws("A3")
    with pytest.raises(NotImplementedError):
        peterson.invert_theorem59(ws, [1, 1, 1])


@pytest.mark.parametrize("name, target", [("B2", [1.0, 3.0]),
                                          ("G2", [1.0, 1.0])])
def test_invert_refuses_components_not_of_type_a(name, target):
    """No exact minor test certifies a Newton solution on B2 or G2, and
    nonnegative coordinates do not: on B2, (1, 1) has Delta_1 = -11/12."""
    ws = _ws(name)
    if name == "B2":
        p = peterson.make_point(ws, (0, 1), (F(1), F(1)))
        assert peterson.deltas(ws, p)[0] == F(-11, 12)
    with pytest.raises(NotImplementedError):
        peterson.invert_theorem59(ws, target)


@pytest.mark.parametrize("name, target", [("A1xA1", [1.0, 2.0]),
                                          ("A2xA1", [2.5, 1.5, 3.0])])
def test_invert_reducible_targets(name, target):
    """Each component's solution lands on the coordinates of the
    centralizer basis elements supported on it."""
    ws = _ws(name)
    p, _ = peterson.invert_theorem59(ws, target)
    got = [float(v) for v in peterson.deltas(ws, p)]
    assert max(abs(g - t) for g, t in zip(got, target)) < 1e-9


NEWTON_ITERATES_SHA256 = (
    "9c9f08ba921b82209363e659d62b0cb05ee11cb0358d26865251557f9ae01ce7")


def test_newton_iterates_are_pinned():
    """The float coordinates that invert_theorem59 returns for 100 random
    A2 targets, seed k on the k-th call and grid starts on every other
    call, are pinned bit for bit: a change in how the Newton terms are
    built or summed moves them."""
    ws = _ws("A2")
    rng = random.Random(59)
    digest = hashlib.sha256()
    for k in range(100):
        target = [rng.uniform(0, 10), rng.uniform(0, 10)]
        p, _ = peterson.invert_theorem59(ws, target, seed=k,
                                         grid_starts=k % 2 == 0)
        digest.update((" ".join(float(c).hex() for c in p.coords)
                       + "\n").encode())
    assert digest.hexdigest() == NEWTON_ITERATES_SHA256


@pytest.mark.parametrize("name, sha256", [
    ("A1xA1",
     "8df86c6668a8c18ed4f7f6d70e19332ebdd4e8ca01c2e308153b07f422977379"),
    ("A2xA1",
     "096ba123899f6890e41dd559b01b91778827f33259d3f85bd581360661e5e8a0"),
])
def test_reducible_newton_iterates_are_pinned(name, sha256):
    """As above on 20 random targets of a reducible type: A1xA1 steps
    with the unrolled 2 x 2 solve, A2xA1 with the general 3 x 3 loop."""
    ws = _ws(name)
    rng = random.Random(59)
    digest = hashlib.sha256()
    for k in range(20):
        target = [rng.uniform(0, 10) for _ in range(ws.datum.n)]
        p, _ = peterson.invert_theorem59(ws, target, seed=k,
                                         grid_starts=k % 2 == 0)
        digest.update((" ".join(float(c).hex() for c in p.coords)
                       + "\n").encode())
    assert digest.hexdigest() == sha256


def _dense_newton_terms(ws, J):
    """(values, gradients) of J as (exponents, a / den) terms, and
    (exponents, a * e_k / den) terms for the partials, one exponent per
    coordinate, rebuilt from `ws.minor_polynomials(J)`."""
    ip = ws.minor_polynomials(J)
    polys = [[(ip.monomials[j][0], a) for j, a in f] for f in ip.terms]
    return ([[(e, a / ip.den) for e, a in f] for f in polys],
            [[[(e[:k] + (e[k] - 1,) + e[k + 1:], a * e[k] / ip.den)
               for e, a in f if e[k]] for k in range(len(J))]
             for f in polys])


def _dense_value(terms, c):
    acc = 0.0
    for exps, coeff in terms:
        acc += math.prod(map(pow, c, exps), start=coeff)
    return acc


def _bits(x):
    return struct.pack("<d", x)


_TERM_FORMS = [(name, J) for name in ("A1", "A2", "A1xA1", "A2xA1")
               for n in [rootdata.datum_from_name(name).n]
               for r in range(n + 1)
               for J in itertools.combinations(range(n), r)]
_coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.floats(-1e100, 1e100))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_TERM_FORMS), st.data())
def test_newton_terms_evaluate_as_the_dense_terms(form, data):
    """Each value and partial of `ws.newton_terms(J)`, at a float point,
    is bit for bit the dense sum of math.prod(map(pow, c, exps),
    start=coeff) from 0.0; a constant partial is stored as that sum."""
    name, J = form
    ws = grouprep.workspace(rootdata.datum_from_name(name))
    c = data.draw(st.lists(_coordinates, min_size=len(J),
                           max_size=len(J)))
    values, grads = ws.newton_terms(J)
    dense_values, dense_grads = _dense_newton_terms(ws, J)
    pairs = list(zip(values, dense_values))
    pairs += zip(itertools.chain(*grads), itertools.chain(*dense_grads))
    for stored, dense in pairs:
        want = _bits(_dense_value(dense, c))
        if isinstance(stored, float):
            assert _bits(stored) == want
            continue
        assert all(e > 0 for _, powers in stored for _, e in powers)
        assert _bits(peterson._value(stored, c)) == want


def _certificate_reference(ws, p, target):
    """(minor test, minors, residual) of p through the Fraction kernel:
    the unipotent part's matrix on each component's first fundamental
    module, each of its minors a Leibniz sum, and the minors of the token
    word, independent of the integer polynomials that the certificate and
    `deltas` use."""
    tnn = all(tnn_membership_reference(
        peterson.unipotent_part(ws, p).matrix(ws.fundamental_rep(comp[0])),
        tol=1e-9) for comp in rootdata.dynkin_components(ws.datum, p.J))
    g = peterson.element(ws, p)
    minors = tuple(grouprep.delta_varpi(i, g, ws) for i in range(ws.datum.n))
    resid = max(abs(float(m) - t) for m, t in zip(minors, target))
    return tnn, minors, resid


@pytest.mark.parametrize("name", ["A1", "A2", "A1xA1", "A2xA1"])
def test_certificate_matches_the_fraction_reference(name):
    """The integer certificate of theorem59 decides the minor test, and
    gives the minors and the residual, exactly as the Fraction kernel does:
    at random dyadic floats, at random rationals, and with one coordinate
    just inside or just outside -1e-9, where the worst minor is that
    coordinate."""
    ws = _ws(name)
    n = ws.datum.n
    J = tuple(range(n))
    rng = random.Random(7)
    points = []
    for _ in range(12):
        points.append([rng.uniform(-2, 10) for _ in J])
        points.append([F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in J])
    edge = {}
    for k in range(n):
        for scale, ok in ((1 - 2 ** -10, True), (1 + 2 ** -10, False)):
            coords = [0.0] * n
            coords[k] = -1e-9 * scale
            points.append(coords)
            edge[len(points) - 1] = ok
    verdicts = set()
    for j, coords in enumerate(points):
        p = peterson.make_point(ws, J, coords)
        target = [rng.uniform(0, 10) for _ in J]
        cert = peterson.certify_theorem59(ws, p, target)
        tnn, minors, resid = _certificate_reference(ws, p, target)
        assert cert.tnn is tnn, coords
        assert tuple(F(m, cert.den) for m in cert.minors) == minors, coords
        assert cert.residual == resid, coords
        if j in edge:
            assert tnn is edge[j], coords
        verdicts.add(tnn)
    assert verdicts == {True, False}


@pytest.mark.parametrize("target, grid_starts, starts, steps", [
    ((2.5, 1.5), True, 1, 0),
    ((2.5, 1.5), False, 1, 6),
    ((1e-9, 1e-9), True, 2, 15),
])
def test_inversion_certificate_records_starts_and_steps(
        target, grid_starts, starts, steps):
    """invert_theorem59 returns the certificate of its root, with the
    starts it tried and the Newton steps of the accepted one.  On A2 the
    grid point (2, 1/2) is the exact preimage of (2.5, 1.5), so the first
    grid start takes no step; the first random start of seed 0 takes 6.
    At (1e-9, 1e-9) the best grid start does not converge."""
    ws = _ws("A2")
    p, cert = peterson.invert_theorem59(ws, target, grid_starts=grid_starts)
    assert (cert.starts, cert.steps) == (starts, steps)
    assert cert.tnn and cert.residual < 1e-9
    assert cert == dataclasses.replace(
        peterson.certify_theorem59(ws, p, target), starts=starts,
        steps=steps)


def test_theorem59_certifies_once_and_draws_only_tried_starts(monkeypatch):
    """The theorem59 suite on A2 reads the certificate that each inversion
    returns, so it certifies once per inversion (each accepts its first
    converged start).  Random starts are drawn as they are tried: the
    random.uniform draws are |J| = 2 per random start tried, counted off
    the returned certificates."""
    tried, certified, draws = [], [], []
    invert = peterson.invert_theorem59
    certify = peterson.certify_theorem59
    uniform = random.Random.uniform

    def counted_invert(ws, target, seed=0, grid_starts=True):
        p, cert = invert(ws, target, seed, grid_starts)
        grid = peterson.GRID_STARTS if grid_starts else 0
        tried.append(max(0, cert.starts - grid))
        return p, cert

    def counted_certify(*args):
        certified.append(args)
        return certify(*args)

    def counted_uniform(rng, a, b):
        draws.append((a, b))
        return uniform(rng, a, b)
    monkeypatch.setattr(peterson, "invert_theorem59", counted_invert)
    monkeypatch.setattr(peterson, "certify_theorem59", counted_certify)
    monkeypatch.setattr(random.Random, "uniform", counted_uniform)
    rep = verify.run_suite("theorem59", "A2", 0, None)
    assert rep.cases == 300 and not rep.failures
    assert len(certified) == len(tried) == 1100
    assert len(draws) == 2 * sum(tried) > 0


@pytest.mark.parametrize("name", ["A2", "A2xA1"])
def test_matrix_polynomials_reproduce_the_kernel(name):
    """For every J and node i, the integer matrix polynomials evaluated at
    rational points are the unipotent part's matrix on the i-th
    fundamental module, entry for entry."""
    ws = _ws(name)
    n = ws.datum.n
    for J in rootdata.subsets(range(n)):
        for coords in ([F(0)] * len(J),
                       [F(-3, 2) + F(k, 3) for k in range(len(J))],
                       [F(5 - 2 * k, 1 + k) for k in range(len(J))]):
            p = peterson.make_point(ws, J, coords)
            x = peterson.unipotent_part(ws, p)
            for i in range(n):
                rep = ws.fundamental_rep(i)
                nums, q = linalg.integer_row(p.coords)
                got, den = ws.matrix_polynomials(J, i).evaluate(nums, q)
                want = [v for row in x.matrix(rep) for v in row]
                assert [F(v, den) for v in got] == want, (J, coords, i)


@pytest.mark.parametrize("name", ["A1", "A2", "A1xA1", "A2xA1"])
def test_certificate_form_holds_the_minors_and_every_varying_entry(name):
    """For every J, the certificate form's first n rows are the minor
    polynomials.  At rational points its listed rows give exactly the
    values of the non-constant entries of matrix_polynomials(J, i), i in
    J, one row per distinct entry, and it has no other rows.  The least
    constant entry is 0: the entries below the diagonal."""
    ws = _ws(name)
    n = ws.datum.n
    for J in rootdata.subsets(range(n)):
        form, slots, least = ws.certificate_polynomials(J)
        assert form.rationals()[:n] == ws.minor_polynomials(J).rationals()
        assert least == 0
        varying = [f for i in J
                   for f in ws.matrix_polynomials(J, i).rationals()
                   if any(map(any, f))]
        assert len(slots) == len({frozenset(f.items()) for f in varying})
        assert len(form.terms) == n + len(set(slots) - set(range(n)))
        for coords in ([F(k + 1, 2) for k in range(len(J))],
                       [F(-3, 2) + F(k, 3) for k in range(len(J))],
                       [F(5 - 2 * k, 1 + k) for k in range(len(J))]):
            nums, q = linalg.integer_row(coords)
            vals, den = form.evaluate(nums, q)
            want = set()
            for i in J:
                ip = ws.matrix_polynomials(J, i)
                got, d = ip.evaluate(nums, q)
                want |= {F(v, d) for v, f in zip(got, ip.rationals())
                         if any(map(any, f))}
            assert {F(vals[s], den) for s in slots} == want, (J, coords)


@pytest.mark.parametrize("name, target", [("A1", [2.0]),
                                          ("A2", [2.5, 1.5]),
                                          ("A1xA1", [1.0, 2.0]),
                                          ("A2xA1", [2.5, 1.5, 3.0])])
def test_a_negative_constant_entry_fails_every_certificate(
        monkeypatch, name, target):
    """The certificate judges the constant entries through the least one:
    with the entry 1 at the top left of every matrix form made -1, the
    certified root of the target is no longer TNN, and no start certifies,
    although no varying entry moved."""
    ws = _ws(name)
    p, cert = peterson.invert_theorem59(ws, target)
    assert cert.tnn
    matrix = grouprep.Workspace.matrix_polynomials

    def negated(ws, J, i):
        polys = matrix(ws, J, i).rationals()
        assert polys[0] == {(0,) * len(J): 1}
        polys[0] = {(0,) * len(J): F(-1)}
        return grouprep.IntegerPolynomials(polys)
    monkeypatch.setattr(grouprep.Workspace, "matrix_polynomials", negated)
    ws = _ws(name)
    assert ws.certificate_polynomials(p.J)[2] == -1
    assert not peterson.certify_theorem59(ws, p, target).tnn
    with pytest.raises(peterson.InversionError):
        peterson.invert_theorem59(ws, target)


def test_theorem59_never_takes_the_fraction_path(monkeypatch):
    """The inversion and the theorem59 suite certify each root in
    integers: no group-element matrix, unipotent part, Fraction minor
    test or determinant is taken.  The one determinant allowed is the
    Cartan matrix check of each root datum built.  Each certificate makes
    one integer evaluation, of the minors and the distinct varying
    entries: 1 polynomial on A1 and 3 on A2 (Delta_1, Delta_2 and the
    coordinate a)."""
    calls, certified, evaluations = [], [], []

    def counted(owner, attr, allowed=()):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code.co_name not in allowed:
                calls.append(attr)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counted(grouprep.GroupElement, "matrix")
    counted(peterson, "unipotent_part")
    counted(grouprep, "tnn_membership_typeA")
    counted(linalg, "det", allowed=("validate",))
    evaluate = grouprep.IntegerPolynomials.evaluate
    certify = peterson.certify_theorem59

    def counted_evaluate(polys, nums, q):
        evaluations.append(len(polys.terms))
        return evaluate(polys, nums, q)

    def counted_certify(ws, p, target):
        before = len(evaluations)
        cert = certify(ws, p, target)
        certified.append((p.J, tuple(evaluations[before:])))
        return cert
    monkeypatch.setattr(grouprep.IntegerPolynomials, "evaluate",
                        counted_evaluate)
    monkeypatch.setattr(peterson, "certify_theorem59", counted_certify)
    ws = _ws("A2")
    peterson.invert_theorem59(ws, [2.5, 1.5])
    for name in ("A1", "A2"):
        rep = verify.run_suite("theorem59", name, 0, None)
        assert rep.cases and not rep.failures
    assert calls == []
    assert set(certified) == {((0,), (1,)), ((0, 1), (3,))}
    assert len(evaluations) == len(certified)


def test_classify_stratum_checks_under_python_O():
    """The minor-outside-J check raises explicitly, so `python -O`, which
    strips asserts, keeps it."""
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from petersonlab import peterson
        print("optimize", sys.flags.optimize)
        try:
            peterson.classify_stratum((0,), (Fraction(1), Fraction(2)))
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("accepted")
    """)
    src = os.path.dirname(os.path.dirname(peterson.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith("raised: minor outside J must equal 1")
