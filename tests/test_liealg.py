from fractions import Fraction

import pytest

from petersonlab import grouprep, liealg, linalg, rootdata

F = Fraction

FUNDAMENTAL_DIMS = {
    "A1": (2,),
    "A2": (3, 3),
    "A3": (4, 6, 4),
    "A4": (5, 10, 10, 5),
    "B2": (5, 4),
    "B3": (7, 21, 8),
    "C3": (6, 14, 14),
    "D4": (8, 28, 8, 8),
    "G2": (7, 14),
}


def _datum(name):
    return rootdata.datum_from_name(name)


def _fund(datum, i):
    return tuple(1 if k == i else 0 for k in range(datum.n))


def _label_matrix(rep, label):
    """Dense rational matrix of a Chevalley label's action on rep."""
    rows, den = rep._int_label(label)
    return [[F(v, den) for v in row]
            for row in rep.module.sparse_to_dense(rows)]


def test_weyl_dimension_known_values():
    for name, dims in FUNDAMENTAL_DIMS.items():
        datum = _datum(name)
        got = tuple(liealg.weyl_dimension(datum, _fund(datum, i))
                    for i in range(datum.n))
        assert got == dims


def test_built_modules_match_weyl_dimension():
    for name in ("A2", "B2", "G2"):
        datum = _datum(name)
        for i in range(datum.n):
            mod = liealg._build_irreducible(datum, _fund(datum, i))
            assert mod.dimension == liealg.weyl_dimension(
                datum, _fund(datum, i))


def test_dimension_cap_enforced():
    datum = _datum("A2")
    with pytest.raises(liealg.DimensionCapError):
        liealg._build_irreducible(datum, (9, 9))


def test_highest_weight_vector_and_gram_normalization():
    datum = _datum("B2")
    mod = liealg._build_irreducible(datum, (1, 0))
    assert mod.weights[0] == (1, 0)
    assert mod.gram[0][0] == 1
    # the form is symmetric and block-diagonal across distinct weights
    d = mod.dimension
    for a in range(d):
        for b in range(d):
            assert mod.gram[a][b] == mod.gram[b][a]
            if mod.weights[a] != mod.weights[b]:
                assert mod.gram[a][b] == 0


def test_gram_contravariance():
    datum = _datum("A2")
    mod = liealg._build_irreducible(datum, (1, 1))
    d = mod.dimension
    gram = mod.gram
    for i in range(datum.n):
        e = mod.e_dense(i)
        f = mod.f_dense(i)
        # <e u, v> = <u, f v>: E^T G = G F
        lhs = [[sum(e[a][r] * gram[a][c] for a in range(d))
                for c in range(d)] for r in range(d)]
        rhs = [[sum(gram[r][b] * f[b][c] for b in range(d))
                for c in range(d)] for r in range(d)]
        assert lhs == rhs


def test_chevalley_defining_relations():
    for name in ("A2", "B2", "G2", "C3"):
        datum = _datum(name)
        cb = liealg.chevalley_basis(datum)
        n = datum.n
        for i in range(n):
            ei = ('e', cb.simple_index[i])
            fi = ('f', cb.simple_index[i])
            hpart = cb.bracket_elements({ei: F(1)}, {fi: F(1)})
            assert hpart == {('h', i): F(1)}
        # [h_i, e_j] = <alpha_j, alpha_i^vee> e_j
        for i in range(n):
            for j in range(n):
                ej = ('e', cb.simple_index[j])
                br = cb.bracket_elements({('h', i): F(1)}, {ej: F(1)})
                c = datum.pairing[j][i]
                want = {ej: F(c)} if c else {}
                assert br == want


def test_g2_structure_constants_magnitudes():
    datum = _datum("G2")
    cb = liealg.chevalley_basis(datum)
    n = len(datum.positive_roots)
    mags = {abs(v) for a in range(n) for b in range(n)
            for v in cb.bracket(('e', a), ('e', b)).values()}
    assert mags == {1, 2, 3}


def test_structure_constants_chevalley_theorem():
    """On every catalog type, N_{b,a} = -N_{a,b}, and |N_{a,b}| = p + 1
    whenever a + b is a root, with p the largest integer such that
    b - p a is a root (Chevalley's theorem)."""
    for name in rootdata.CATALOG:
        datum = _datum(name)
        cb = liealg.chevalley_basis(datum)
        roots = datum.positive_roots
        root_set = set(roots) | {tuple(-v for v in r) for r in roots}
        for a, alpha in enumerate(roots):
            for b, beta in enumerate(roots):
                s = tuple(x + y for x, y in zip(alpha, beta))
                br = cb.bracket(('e', a), ('e', b))
                if s not in root_set:
                    assert br == {}
                    continue
                label = ('e', cb.root_index[s])
                assert list(br) == [label]
                n_ab = br[label]
                assert cb.bracket(('e', b), ('e', a)) == {label: -n_ab}
                p = 0
                while tuple(y - (p + 1) * x
                            for x, y in zip(alpha, beta)) in root_set:
                    p += 1
                assert abs(n_ab) == p + 1, (name, alpha, beta)


def test_label_rows_are_commutators_of_their_defining_pairs():
    """Every non-simple root label acts, on each fundamental rep of every
    catalog type, as the dense commutator of its defining pair scaled by
    fsign / divisor (f side) or 1 / divisor (e side)."""
    for name in rootdata.CATALOG:
        datum = _datum(name)
        ws = grouprep.workspace(datum)
        cb = ws.chev
        for i in range(datum.n):
            rep = ws.fundamental_rep(i)
            for idx, (j, bidx, div, fsign) in cb.defpair.items():
                for kind in 'ef':
                    a = _label_matrix(rep, (kind, cb.simple_index[j]))
                    b = _label_matrix(rep, (kind, bidx))
                    c = F(fsign if kind == 'f' else 1, div)
                    want = [[c * (x - y) for x, y in zip(rab, rba)]
                            for rab, rba in zip(linalg.mat_mul(a, b),
                                                linalg.mat_mul(b, a))]
                    assert _label_matrix(rep, (kind, idx)) == want


def test_adjoint_module_dimension_and_labels():
    datum = _datum("B2")
    cb = liealg.chevalley_basis(datum)
    adj = liealg.adjoint_module(cb)
    assert adj.dimension == 10
    kinds = [l[0] for l in adj.labels]
    assert kinds.count('e') == 4 and kinds.count('f') == 4
    assert kinds.count('h') == 2


def test_adjoint_module_reducible_is_direct_sum():
    datum = _datum("A1xA1")
    cb = liealg.chevalley_basis(datum)
    adj = liealg.adjoint_module(cb)
    assert adj.dimension == 6


def _is_sparse_rows(rows, dim):
    """dim rows, each of (col, value) pairs with ascending columns in range
    and no zero value."""
    return len(rows) == dim and all(
        all(v != 0 for _, v in row)
        and all(0 <= c < dim for c, _ in row)
        and all(a < b for (a, _), (b, _) in zip(row, row[1:]))
        for row in rows)


def test_every_module_is_built_as_sparse_rows():
    """The fundamental, adjoint and power modules of every catalog type
    carry act_e and act_f as sparse rows: ascending columns, no zeros."""
    from petersonlab.verify import POWER_MINOR_TYPES
    for name in sorted(rootdata.CATALOG):
        ws = grouprep.workspace(_datum(name))
        n = ws.datum.n
        reps = [ws.fundamental_rep(i) for i in range(n)] + [ws.adjoint_rep()]
        if name in POWER_MINOR_TYPES:
            reps += [ws.power_rep(i) for i in range(n)]
        for rep in reps:
            mod = rep.module
            for i in range(n):
                assert _is_sparse_rows(mod.act_e[i], mod.dimension), name
                assert _is_sparse_rows(mod.act_f[i], mod.dimension), name


def test_builder_solves_once_per_weight_space(monkeypatch):
    """The Shapovalov form is computed in integers, and each weight space
    takes one linalg.solve_matrix for every action image landing in it:
    building G2 (1, 1) calls neither linalg.inverse nor linalg.mat_vec."""
    calls = {"inverse": 0, "mat_vec": 0, "solve_matrix": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(linalg, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(linalg, name, counted)
    mod = liealg._build_irreducible(_datum("G2"), (1, 1))
    assert mod.dimension == 64
    assert calls == {"inverse": 0, "mat_vec": 0,
                     "solve_matrix": len(set(mod.weights))}
    assert all(type(v) is int for row in mod.gram for v in row)
