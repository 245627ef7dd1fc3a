from fractions import Fraction
import itertools
from math import gcd
import random

import pytest
from hypothesis import given, settings, strategies as st

from petersonlab import grouprep, liealg, linalg, peterson, rootdata

from test_acceptance import involution_star

F = Fraction


def _ws(name):
    return grouprep.Workspace(rootdata.datum_from_name(name))


def q_coefficient(i, g, ws):
    """q_i(g) = minus the f_i coefficient of Ad_{g^{-1}}(e) through the
    kernel: the reference for `ws.q_polynomials`, one node at a time."""
    labels = ws.adjoint_rep().module.labels
    return -grouprep.ad_conjugate_e(g, ws)[
        labels.index(('f', ws.chev.simple_index[i]))]


def test_sdot_matrix_sl2():
    ws = _ws("A1")
    rep = ws.fundamental_rep(0)
    mat = grouprep.sdot(0).matrix(rep)
    assert mat == [[F(0), F(-1)], [F(1), F(0)]]


def test_xy_product_sl2():
    ws = _ws("A1")
    rep = ws.fundamental_rep(0)
    a, b = F(3), F(1, 2)
    mat = (grouprep.x_(0, a) * grouprep.y_(0, b)).matrix(rep)
    assert mat == [[1 + a * b, a], [b, F(1)]]


def test_exp_homomorphism():
    ws = _ws("B2")
    for i in range(2):
        rep = ws.fundamental_rep(i)
        lhs = (grouprep.x_(0, F(2, 3)) * grouprep.x_(0, F(1, 5))).matrix(rep)
        rhs = grouprep.x_(0, F(2, 3) + F(1, 5)).matrix(rep)
        assert lhs == rhs


def test_inverse_word():
    ws = _ws("A2")
    rep = ws.fundamental_rep(0)
    g = grouprep.x_(0, F(3)) * grouprep.sdot(1) * grouprep.y_(0, F(1, 2))
    prod = (g * g.inverse()).matrix(rep)
    ident = grouprep.identity_element().matrix(rep)
    assert prod == ident


def test_braid_invariance_rank2():
    for name, words in [("A2", [(0, 1, 0), (1, 0, 1)]),
                        ("B2", [(0, 1, 0, 1), (1, 0, 1, 0)])]:
        ws = _ws(name)
        rep = ws.fundamental_rep(0)
        mats = [grouprep.wdot(w).matrix(rep) for w in words]
        assert mats[0] == mats[1]


def test_delta_of_x_sdot_is_parameter():
    ws = _ws("A1")
    g = grouprep.x_(0, F(7, 3)) * grouprep.sdot(0)
    assert grouprep.delta_varpi(0, g, ws) == F(7, 3)


def test_delta_conjugated_square():
    ws = _ws("A1")
    w0 = grouprep.wdot(ws.w0())
    a = F(3)
    g = w0.inverse() * grouprep.x_(0, a) * w0
    assert grouprep.delta_adjoint_type(0, g, ws) == a ** 2
    ident = w0.inverse() * grouprep.x_(0, F(0)) * w0
    assert grouprep.delta_adjoint_type(0, ident, ws) == 0


def test_ad_w0_sends_e_to_minus_f_star():
    for name in ("A2", "B2", "G2"):
        ws = _ws(name)
        datum = ws.datum
        star = involution_star(datum)
        rep = ws.adjoint_rep()
        w0 = grouprep.wdot(ws.w0())
        for i in range(datum.n):
            vec = [F(0)] * rep.dim
            vec[rep.module.labels.index(('e', ws.chev.simple_index[i]))] = \
                F(1)
            out = w0.inverse().apply(rep, vec)
            want = [F(0)] * rep.dim
            want[rep.module.labels.index(
                ('f', ws.chev.simple_index[star[i]]))] = F(-1)
            assert out == want


def test_q_coefficient_of_x_sdot():
    ws = _ws("A1")
    g = grouprep.x_(0, F(5)) * grouprep.sdot(0)
    assert q_coefficient(0, g, ws) == 1


def test_tnn_membership_examples():
    assert grouprep.tnn_membership_typeA([[F(1), F(2)], [F(0), F(1)]])
    assert not grouprep.tnn_membership_typeA([[F(1), F(-1)], [F(0), F(1)]])
    ws = _ws("A3")
    rep = ws.fundamental_rep(0)
    g = grouprep.identity_element()
    for i, t in [(0, 1), (1, 1), (2, 1), (0, 1), (1, 1), (0, 1)]:
        g = g * grouprep.x_(i, F(t))
    assert grouprep.tnn_membership_typeA(g.matrix(rep))


def tnn_membership_reference(mat, tol=Fraction(0)):
    """Every minor of mat is at least -tol, one linalg.det per minor: the
    reference for grouprep.tnn_membership_typeA."""
    n = len(mat)
    return all(linalg.det([[mat[r][c] for c in cols] for r in rows]) >= -tol
               for k in range(1, n + 1)
               for rows in itertools.combinations(range(n), k)
               for cols in itertools.combinations(range(n), k))


def _random_unitriangular(rng, n):
    """An upper unitriangular matrix near the boundary of the totally
    nonnegative ones: the product of x_i(t) = 1 + t E_{i,i+1} along a short
    random word, t rational or read exactly from a float, with one entry
    above the diagonal moved by a small amount of either sign."""
    mat = linalg.identity(n)
    for _ in range(rng.randint(0, n + 2)):
        i = rng.randrange(n - 1)
        t = F(rng.randint(1, 12), rng.randint(1, 6))
        if rng.random() < 0.5:
            t = F(float(t) + 0.1)
        step = linalg.identity(n)
        step[i][i + 1] = t
        mat = linalg.mat_mul(mat, step)
    i = rng.randrange(n - 1)
    j = rng.randrange(i + 1, n)
    mat[i][j] += rng.choice([-1, 1]) * rng.choice(
        [F(0), F(1e-10), F(1e-9), F(3e-9), F(1, 3)])
    return mat


@pytest.mark.parametrize("tol", [F(0), 1e-9])
def test_tnn_membership_matches_reference(tol):
    rng = random.Random(5)
    verdicts = []
    for n in (3, 4):
        for _ in range(150):
            mat = _random_unitriangular(rng, n)
            got = grouprep.tnn_membership_typeA(mat, tol=tol)
            assert got == tnn_membership_reference(mat, tol=tol), mat
            verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("tol, eps, ok", [
    (1e-9, F(1e-9), True),
    (1e-9, F(1e-9) + F(1, 10 ** 40), False),
    (F(0), F(0), True),
    (F(0), F(1, 10 ** 40), False),
])
def test_tnn_membership_tolerance_boundary(tol, eps, ok):
    """The worst minor of [[1, 1, 1 + eps], [0, 1, 1], [0, 0, 1]] is
    -eps: at exactly -tol it is accepted, just below it is rejected."""
    mat = [[F(1), F(1), 1 + eps], [F(0), F(1), F(1)], [F(0), F(0), F(1)]]
    assert grouprep.tnn_membership_typeA(mat, tol=tol) is ok
    assert tnn_membership_reference(mat, tol=tol) is ok


def test_tnn_membership_rejects_nontriangular():
    with pytest.raises(ValueError):
        grouprep.tnn_membership_typeA([[F(1), F(0)], [F(1), F(1)]])


def _random_word(rng, ws):
    """A word of x, y and exp tokens: exp of a random combination of the
    positive root vectors."""
    g = grouprep.identity_element()
    for _ in range(rng.randint(3, 6)):
        t = F(rng.randint(-6, 6), rng.randint(1, 4))
        kind = rng.choice("xye")
        if kind == "x":
            g = g * grouprep.x_(rng.randrange(ws.datum.n), t)
        elif kind == "y":
            g = g * grouprep.y_(rng.randrange(ws.datum.n), t)
        else:
            g = g * grouprep.exp_element(
                {('e', idx): F(rng.randint(-3, 3), rng.randint(1, 3))
                 for idx in range(len(ws.datum.positive_roots))})
    return g


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A2xA1"])
def test_fundamental_entries_are_the_minors_in_type_a(name):
    """On a type-A component c, V(w_k) = Lambda^k V(w_1): the entries of g
    on fundamental_rep(c[k-1]) are the k x k minors of g on
    fundamental_rep(c[0]), as multisets.  theorem59's TNN test rests on
    this identity."""
    ws = _ws(name)
    rng = random.Random(25)
    for _ in range(3):
        g = _random_word(rng, ws)
        for comp in rootdata.dynkin_components(ws.datum):
            first = g.matrix(ws.fundamental_rep(comp[0]))
            n = len(first)
            for k, node in enumerate(comp, 1):
                minors = [linalg.det([[first[r][c] for c in cols]
                                      for r in rows])
                          for rows in itertools.combinations(range(n), k)
                          for cols in itertools.combinations(range(n), k)]
                entries = [v for row in g.matrix(ws.fundamental_rep(node))
                           for v in row]
                assert sorted(entries) == sorted(minors), (name, node)


def test_apply_word_holds_every_vector_in_lowest_terms(monkeypatch):
    """The kernel returns a vector that its step fixes as it is, with no
    gcd.  That is exact because every vector that apply_word holds is in
    lowest terms: checked after each step of words that fix some vectors
    and move others, on unit vectors and on a rational vector whose
    denominator is not 1."""
    seen = []
    kernel = grouprep._int_exp_apply

    def recorded(*args):
        out = kernel(*args)
        seen.append((out[0] is args[-2], gcd(out[1], *out[0])))
        return out
    monkeypatch.setattr(grouprep, "_int_exp_apply", recorded)
    ws = _ws("B2")
    g = (grouprep.x_(0, F(3, 4)) * grouprep.y_(1, F(5, 2))
         * grouprep.sdot(0) * grouprep.x_(1, F(-7, 3)))
    for rep in (ws.fundamental_rep(0), ws.fundamental_rep(1),
                ws.adjoint_rep()):
        g.matrix(rep)
        g.apply(rep, [F(k + 1, 6) for k in range(rep.dim)])
    assert {fixed for fixed, _ in seen} == {True, False}
    assert all(d == 1 for _, d in seen)


def test_tnn_sample_parabolic_stays_tnn_in_type_a():
    ws = _ws("A3")
    rep = ws.fundamental_rep(0)
    rng = random.Random(11)
    for J in [(0,), (0, 1), (1, 2), (0, 1, 2)]:
        w = rootdata.longest_element(ws.datum, J)
        s = grouprep.tnn_sample(w, rng=rng)
        assert grouprep.tnn_membership_typeA(s.element.matrix(rep))


def test_tnn_sample_requires_positive_params():
    datum = rootdata.datum_from_name("A2")
    w = rootdata.longest_element(datum, (0, 1))
    with pytest.raises(ValueError):
        grouprep.tnn_sample(w, params=[F(1)] * 2 + [F(-1)])


def test_centralizer_basis_sizes():
    ws = _ws("A2")
    assert grouprep.centralizer_basis(ws, ()) == []
    assert len(grouprep.centralizer_basis(ws, (0, 1))) == 2
    assert len(grouprep.centralizer_basis(_ws("A1"), (0,))) == 1
    for name in ("B3", "G2", "D4"):
        ws = _ws(name)
        n = ws.datum.n
        assert len(grouprep.centralizer_basis(ws, tuple(range(n)))) == n


def test_centralizer_basis_commutes_with_e():
    ws = _ws("B2")
    J = (0, 1)
    e_j = {('e', ws.chev.simple_index[j]): F(1) for j in J}
    for b in grouprep.centralizer_basis(ws, J):
        assert ws.chev.bracket_elements(b, e_j) == {}


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=0, max_value=5, max_denominator=4),
       st.fractions(min_value=0, max_value=5, max_denominator=4))
def test_delta_nonneg_on_tnn_times_w0_in_a2(a, b):
    ws = _ws("A2")
    w0 = ws.w0()
    params = [a + F(1, 7), b + F(1, 7), a + b + F(1, 7)]
    s = grouprep.tnn_sample(w0, params=params)
    g = s.element * grouprep.wdot(w0)
    for i in range(2):
        assert grouprep.delta_varpi(i, g, ws) >= 0


# -- the integer kernel against naive dense Fraction products ------------

def _dense_exp(m, t):
    """exp(t m) for a nilpotent dense matrix, by its power series."""
    out = linalg.identity(len(m))
    term = out
    k = 1
    while True:
        term = [[t / k * v for v in row] for row in linalg.mat_mul(term, m)]
        if not any(any(row) for row in term):
            return out
        out = [[x + y for x, y in zip(ro, rt)] for ro, rt in zip(out, term)]
        k += 1


def _dense_token(rep, token):
    mod = rep.module
    kind = token[0]
    if kind == 'x':
        return _dense_exp(mod.e_dense(token[1]), token[2])
    if kind == 'y':
        return _dense_exp(mod.f_dense(token[1]), token[2])
    if kind in ('s', 'si'):
        t = F(1) if kind == 's' else F(-1)
        y = _dense_exp(mod.f_dense(token[1]), t)
        x = _dense_exp(mod.e_dense(token[1]), -t)
        return linalg.mat_mul(linalg.mat_mul(y, x), y)
    m = [[F(0)] * rep.dim for _ in range(rep.dim)]
    for label, c in token[1]:
        m = [[x + c * y for x, y in zip(rm, rl)]
             for rm, rl in zip(m, _dense_label(rep, label))]
    return _dense_exp(m, F(1))


def _dense_label(rep, label):
    """A Chevalley label's dense matrix on rep from the module's simple
    generators alone: a root label as (sign / div) [X_i, X_beta] over the
    defining pair (i, beta, div, sign) of the Chevalley basis."""
    kind, idx = label
    simple = rep.chev.simple_index
    if idx in simple:
        dense = rep.module.e_dense if kind == 'e' else rep.module.f_dense
        return dense(simple.index(idx))
    i, bidx, div, fsign = rep.chev.defpair[idx]
    a = _dense_label(rep, (kind, simple[i]))
    b = _dense_label(rep, (kind, bidx))
    scale = F(fsign if kind == 'f' else 1, div)
    return [[scale * (x - y) for x, y in zip(rab, rba)]
            for rab, rba in zip(linalg.mat_mul(a, b), linalg.mat_mul(b, a))]


_params = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _words(draw, ws):
    """Words of x, y, s, si and exp tokens with rational parameters; an exp
    token is of a random e- or f-label combination or of a centralizer
    element sum c_k b_k."""
    n, nroots = ws.datum.n, len(ws.datum.positive_roots)
    word = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(('x', 'y', 's', 'si', 'exp', 'exp')))
        if kind in ('x', 'y'):
            word.append((kind, draw(st.integers(0, n - 1)),
                         draw(st.one_of(st.just(F(0)), _params))))
        elif kind in ('s', 'si'):
            word.append((kind, draw(st.integers(0, n - 1))))
        elif draw(st.booleans()):
            sign = draw(st.sampled_from(('e', 'f')))
            labels = draw(st.sets(st.integers(0, nroots - 1), max_size=3))
            word += grouprep.exp_element(
                {(sign, idx): draw(_params) for idx in labels}).word
        else:
            J = draw(st.sets(st.integers(0, n - 1), min_size=1))
            elem = {}
            for b in ws.centralizer(J):
                c = draw(_params)
                for label, v in b.items():
                    elem[label] = elem.get(label, 0) + c * v
            word += grouprep.exp_element(elem).word
    return grouprep.GroupElement(tuple(word))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kernel_matches_dense_fraction_product(data):
    datum = rootdata.datum_from_name(data.draw(st.sampled_from(("B2", "G2"))))
    ws = grouprep.workspace(datum)
    rep = data.draw(st.sampled_from(
        [ws.fundamental_rep(i) for i in range(datum.n)] + [ws.adjoint_rep()]))
    g = data.draw(_words(ws))
    want = linalg.identity(rep.dim)
    for token in g.word:
        want = linalg.mat_mul(want, _dense_token(rep, token))
    assert g.matrix(rep) == want
    vec = data.draw(st.lists(_params, min_size=rep.dim, max_size=rep.dim))
    assert g.apply(rep, vec) == linalg.mat_vec(want, vec)
    assert g.row_apply(rep, vec) == linalg.mat_vec(linalg.transpose(want),
                                                   vec)


def _catalog_reps():
    """(type, rep kind, node) for each fundamental rep and the adjoint rep
    of every catalog type, and a power rep on A1, A2 and B2."""
    out = []
    for name, cartan in rootdata.CATALOG.items():
        out += [(name, "fundamental", i) for i in range(len(cartan))]
        out.append((name, "adjoint", None))
    return out + [(name, "power", 0) for name in ("A1", "A2", "B2")]


def _catalog_rep(name, kind, i):
    ws = grouprep.workspace(rootdata.datum_from_name(name))
    if kind == "adjoint":
        return ws, ws.adjoint_rep()
    if kind == "power":
        return ws, ws.power_rep(i)
    return ws, ws.fundamental_rep(i)


@pytest.mark.parametrize("name,kind,i", _catalog_reps())
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_kernel_matches_an_independent_dense_reference(name, kind, i, data):
    """GroupElement.matrix on every catalog rep equals the dense Fraction
    product of its tokens, each built from the module's e_dense and f_dense
    only."""
    ws, rep = _catalog_rep(name, kind, i)
    g = data.draw(_words(ws))
    want = linalg.identity(rep.dim)
    for token in g.word:
        want = linalg.mat_mul(want, _dense_token(rep, token))
    assert g.matrix(rep) == want


@pytest.mark.parametrize("name", list(rootdata.CATALOG))
def test_kernel_refuses_a_non_nilpotent_generator(name):
    """exp(e_i + f_i) is no finite series: the kernel raises rather than
    truncate it, on the fundamental and the adjoint reps."""
    ws = grouprep.workspace(rootdata.datum_from_name(name))
    for i in range(ws.datum.n):
        idx = ws.chev.simple_index[i]
        g = grouprep.exp_element({('e', idx): 1, ('f', idx): 1})
        for rep in (ws.fundamental_rep(i), ws.adjoint_rep()):
            with pytest.raises(AssertionError, match="not nilpotent"):
                g.matrix(rep)


def test_extremal_vector_is_applied_once(monkeypatch):
    """wdot(w_J) v_lam is a Workspace entry: two delta_adjoint_type calls
    apply wdot(w_0) once, and on B2, whose first power rep is its first
    fundamental rep, the minor polynomials of the full J read the same
    entry."""
    words = []
    apply_word = grouprep.Rep.apply_word

    def counted(rep, word, nums, den):
        words.append(word)
        return apply_word(rep, word, nums, den)
    monkeypatch.setattr(grouprep.Rep, "apply_word", counted)
    ws = _ws("B2")
    w0 = grouprep.wdot(ws.w0()).word
    g = grouprep.x_(0, F(1, 2)) * grouprep.y_(1, F(3))
    first = grouprep.delta_adjoint_type(0, g, ws)
    assert grouprep.delta_adjoint_type(0, g, ws) == first
    assert words.count(w0) == 1
    low = ws.extremal_vector((1, 0), (0, 1))
    assert ws.extremal_vector([1, 0], (1, 0)) is low
    nums, den = low
    assert [F(v, den) for v in nums] == grouprep.wdot(ws.w0()).apply(
        ws.fundamental_rep(0), ws.fundamental_rep(0).unit(0))
    words.clear()
    ws.minor_polynomials((0, 1))
    assert words.count(w0) == 1     # V(w_2) only; V(w_1)'s is stored


def test_q_vector_matches_q_coefficient():
    """The q form of each J, evaluated at sampled normal-form points,
    equals the kernel's ad-conjugation of e, node by node."""
    for name in ("A2", "B2", "G2", "A2xA1"):
        ws = grouprep.workspace(rootdata.datum_from_name(name))
        n = ws.datum.n
        for J in [(), (0,), tuple(range(n))]:
            for p in peterson.sample_points(ws, J, 2, seed=5):
                nums, den = ws.q_polynomials(J).evaluate(
                    *linalg.integer_row(p.coords))
                g = peterson.element(ws, p)
                assert [F(m, den) for m in nums] == [
                    q_coefficient(i, g, ws) for i in range(n)]


def test_q_polynomials_refuse_a_wrong_slot(monkeypatch):
    """Where the Weyl action on roots names a slot that wdot(w_J) does not
    send f_i to, the q form is refused with a ValueError."""
    monkeypatch.setattr(rootdata.WeylElement, "act_on_root",
                        lambda w, root: tuple(root))
    ws = _ws("A2")
    # w_J = 1 for J empty, where the identity is the right action
    assert ws.q_polynomials(()).evaluate([], 1) == ([0, 0], 1)
    with pytest.raises(ValueError, match="f_1"):
        ws.q_polynomials((0,))


def test_workspace_shared_by_value():
    sub = peterson.component_datum(rootdata.datum_from_name("A2xA1"), (0, 1))
    a2 = rootdata.datum_from_name("A2")
    assert sub is not a2 and sub == a2
    assert grouprep.workspace(sub) is grouprep.workspace(a2)
    assert grouprep.workspace(a2).datum == a2
    assert grouprep.workspace.cache_info().maxsize is not None


def test_workspace_centralizer_memo():
    for name in ("A3", "B2", "G2"):
        ws = grouprep.Workspace(rootdata.datum_from_name(name))
        for J in rootdata.subsets(range(ws.datum.n)):
            basis = ws.centralizer(J)
            assert ws.centralizer(J) is basis
            assert ws.centralizer(reversed(J)) is basis
            assert basis == grouprep.centralizer_basis(ws, J)
            wj = ws.longest(J)
            assert ws.longest(J) is wj
            assert ws.longest(reversed(J)) is wj
            want = rootdata.longest_element(ws.datum, J)
            assert wj == want and wj.word == want.word
            polys = ws.minor_polynomials(J)
            assert ws.minor_polynomials(J) is polys
            assert ws.minor_polynomials(reversed(J)) is polys
        assert ws.w0() is ws.longest(range(ws.datum.n))


def test_workspace_reuses_chevalley_modules(monkeypatch):
    """The module the Chevalley basis is built from serves the rep of its
    highest weight: on A2, V(w_1) is built once and V(w_2) once."""
    calls = []
    build = liealg._build_irreducible

    def counted(datum, lam):
        calls.append(tuple(lam))
        return build(datum, lam)
    monkeypatch.setattr(liealg, "_build_irreducible", counted)
    ws = _ws("A2")
    reps = [ws.fundamental_rep(0), ws.fundamental_rep(1)]
    assert sorted(calls) == [(0, 1), (1, 0)]
    assert list(ws.chev.modules) == [(1, 0)]
    assert reps[0].module is ws.chev.modules[(1, 0)]


def test_lie_layer_builds_no_dense_product(monkeypatch):
    """Root vectors are sparse commutators: building D4's Chevalley basis
    and the action of every root label on its fundamental reps makes no
    dense linalg.mat_mul call."""
    calls = []
    mat_mul = linalg.mat_mul

    def counted(a, b):
        calls.append(len(a))
        return mat_mul(a, b)
    monkeypatch.setattr(linalg, "mat_mul", counted)
    ws = _ws("D4")
    for i in range(4):
        rep = ws.fundamental_rep(i)
        for idx in range(len(ws.datum.positive_roots)):
            rep._int_label(('e', idx))
            rep._int_label(('f', idx))
    assert calls == []
