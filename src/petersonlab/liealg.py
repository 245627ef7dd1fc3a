"""Chevalley bases and exact finite-dimensional highest-weight modules.

An irreducible module is built level by level on a basis of f-words.
Each candidate f_j v_b has its e-images read off the actions already
stored; one echelon of those images per weight picks the basis vectors
and gives the other candidates' f-images, and the contravariant form
is read off the actions as an integer matrix.

Structure constants are obtained by realizing root vectors, as sparse
integer commutators over one denominator, inside a small faithful
fundamental module per Dynkin component: for each non-simple positive
root gamma the defining pair is (i, gamma - alpha_i) with i the smallest
qualifying node (extraspecial-pair convention), the divisor is p+1 for
the alpha_i-string through gamma - alpha_i, and the f-side sign is fixed
by [e_gamma, f_gamma] = h_{gamma^vee}.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg, rootdata

DIMENSION_CAP = 400

ZERO = Fraction(0)


def weyl_dimension(datum, lam):
    """Weyl dimension formula, evaluated exactly in integers."""
    n = datum.n
    num = den = 1
    d = datum.symmetrizer
    for root in datum.positive_roots:
        num *= sum((lam[j] + 1) * root[j] * d[j] for j in range(n))
        den *= sum(root[j] * d[j] for j in range(n))
    if num % den:
        raise AssertionError("Weyl dimension %d/%d is not an integer"
                             % (num, den))
    return num // den


@dataclass
class WeightModule:
    """Finite-dimensional highest-weight module with exact matrices.

    Action matrices are stored sparsely: act_e[i] / act_f[i] are tuples
    over row index of tuples (col, value), as sparse_rows emits them.
    Weights are in fundamental-weight coordinates; the highest-weight
    vector is basis index 0.  An irreducible module carries its
    contravariant form as an integer matrix, with gram[0][0] = 1; the
    adjoint module carries none.
    """

    datum: object
    highest_weight: tuple
    dimension: int
    weights: tuple            # per basis index
    act_e: tuple              # per node: sparse rows
    act_f: tuple
    gram: tuple = None        # dense integer symmetric matrix, else None
    labels: tuple = None      # adjoint identification, else None

    def act_h_diag(self, i):
        return [Fraction(w[i]) for w in self.weights]

    def sparse_to_dense(self, sp):
        m = [[ZERO] * self.dimension for _ in range(self.dimension)]
        for r, row in enumerate(sp):
            for c, v in row:
                m[r][c] = v
        return m

    def e_dense(self, i):
        return self.sparse_to_dense(self.act_e[i])

    def f_dense(self, i):
        return self.sparse_to_dense(self.act_f[i])


def sparse_rows(acc):
    """One {col: value} dict per row as sparse rows: per row, ascending
    (col, value) pairs with no zeros, so equal matrices give equal
    tuples."""
    return tuple(tuple(sorted((c, v) for c, v in row.items() if v))
                 for row in acc)


class DimensionCapError(ValueError):
    pass


def _build_irreducible(datum, lam):
    """The irreducible module of highest weight lam, built level by level.

    A level's candidates are the f_j v_b, v_b a basis vector of the level
    above, in order of (weight, f-word).  Their e-images are read off the
    stored actions, e_i f_j v_b = f_j (e_i v_b) + delta_ij <wt v_b,
    alpha_i^vee> v_b.  Below lam no nonzero vector is killed by every e_i,
    so candidates of one weight are independent exactly when their
    e-images are: one echelon of the e-image columns per weight picks the
    first independent candidates as basis vectors, and its reduced rows
    give every other candidate's f-image.  The contravariant form follows
    from <f_j v_b, v_c> = <v_b, e_j v_c>."""
    lam = tuple(int(v) for v in lam)
    if any(v < 0 for v in lam):
        raise ValueError("highest weight must be dominant integral")
    dim = weyl_dimension(datum, lam)
    if dim > DIMENSION_CAP:
        raise DimensionCapError("module dimension %d (Weyl formula) exceeds "
                                "cap %d" % (dim, DIMENSION_CAP))
    n = datum.n
    basis, weights = [()], [lam]     # f-words and their weights
    e_img = [{}]     # b -> {(i, a): v_a's coefficient in e_i v_b}
    f_img = {}       # (j, b) -> {a: v_a's coefficient in f_j v_b}
    gram = [[0] * dim for _ in range(dim)]
    gram[0][0] = 1
    level = [0]
    while level:
        cands = sorted(
            (tuple(w - x for w, x in zip(weights[b], datum.pairing[j])),
             (j,) + basis[b], j, b) for b in level for j in range(n))
        groups = {}
        for mu, _, j, b in cands:
            groups.setdefault(mu, []).append((j, b))
        level = []
        for mu in sorted(groups, reverse=True):
            group = groups[mu]
            images = []
            for j, b in group:
                img = {}
                for (i, a), c in e_img[b].items():
                    for x, y in f_img[j, a].items():
                        img[i, x] = img.get((i, x), ZERO) + c * y
                if weights[b][j]:
                    img[j, b] = img.get((j, b), ZERO) + weights[b][j]
                images.append({k: v for k, v in img.items() if v})
            keys = sorted({k for img in images for k in img})
            if not keys:
                f_img.update(((j, b), {}) for j, b in group)
                continue
            m, pivots, d, _ = linalg._echelon(
                [[img.get(k, ZERO) for img in images] for k in keys])
            new = range(len(basis), len(basis) + len(pivots))
            if new.stop > dim:
                raise AssertionError("basis exceeded Weyl dimension")
            for col, (j, b) in enumerate(group):
                f_img[j, b] = {p: Fraction(row[col], d)
                               for p, row in zip(new, m) if row[col]}
            for col in pivots:
                j, b = group[col]
                basis.append((j,) + basis[b])
                weights.append(mu)
                e_img.append(images[col])
            # <v_p, v_q> = <f_j v_b, v_q> = <v_b, e_j v_q>
            for p, col in zip(new, pivots):
                j, b = group[col]
                for q in new:
                    g = sum(c * gram[b][a]
                            for (i, a), c in e_img[q].items() if i == j)
                    if g.denominator != 1 or q < p and gram[q][p] != g:
                        raise AssertionError("contravariant form is not an "
                                             "integer symmetric matrix")
                    gram[p][q] = int(g)
            level += new
    if len(basis) != dim:
        raise AssertionError("module basis has %d vectors, Weyl dimension "
                             "is %d" % (len(basis), dim))

    act_e = [[{} for _ in range(dim)] for _ in range(n)]
    act_f = [[{} for _ in range(dim)] for _ in range(n)]
    for b, img in enumerate(e_img):
        for (i, a), v in img.items():
            act_e[i][a][b] = v
    for (j, b), img in f_img.items():
        for a, v in img.items():
            act_f[j][a][b] = v
    return WeightModule(
        datum=datum,
        highest_weight=lam,
        dimension=dim,
        weights=tuple(weights),
        act_e=tuple(sparse_rows(rows) for rows in act_e),
        act_f=tuple(sparse_rows(rows) for rows in act_f),
        gram=tuple(tuple(row) for row in gram),
    )


# ---------------------------------------------------------------------------
# Chevalley basis


@dataclass
class ChevalleyBasis:
    """Chevalley basis data: labels, defining pairs and a bracket table
    that holds the nonzero brackets of root labels only.

    Labels are ('e', r), ('f', r) with r an index into
    datum.positive_roots, and ('h', i) with i a node index.
    """

    datum: object
    root_index: dict          # root tuple -> index
    simple_index: tuple       # node i -> positive-root index of alpha_i
    defpair: dict             # root idx -> (node i, beta idx, divisor, fsign)
    brackets: dict            # (labelA < labelB) -> {label: Fraction}
    modules: dict             # highest weight -> module built per component

    def bracket(self, a, b):
        """Bracket of two basis labels as a {label: coeff} dict."""
        if a[0] == 'h' and b[0] == 'h':
            return {}
        if a[0] == 'h':
            out = self.bracket(b, a)
            return {k: -v for k, v in out.items()}
        if b[0] == 'h':
            root = self.datum.positive_roots[a[1]]
            sign = 1 if a[0] == 'e' else -1
            c = sign * self.datum.root_pair_coroot(root, b[1])
            return {a: -Fraction(c)} if c else {}
        key = (a, b)
        if key in self.brackets:
            return dict(self.brackets[key])
        rkey = (b, a)
        if rkey in self.brackets:
            return {k: -v for k, v in self.brackets[rkey].items()}
        return {}

    def bracket_elements(self, xa, xb):
        """Bilinear extension of bracket to {label: coeff} elements."""
        out = {}
        for la, ca in xa.items():
            for lb, cb in xb.items():
                for l, c in self.bracket(la, lb).items():
                    v = out.get(l, ZERO) + ca * cb * c
                    if v:
                        out[l] = v
                    elif l in out:
                        del out[l]
        return out


def commutator(a, b):
    """ab - ba for matrices given as sparse rows (see sparse_rows; as in
    WeightModule.act_e), in the same format.  Only nonzero products are
    formed; the entries may be of any number type, and integer rows give
    integer rows."""
    out = []
    for ra, rb in zip(a, b):
        if not (ra or rb):
            out.append(())
            continue
        acc = {}
        for t, x in ra:
            for c, y in b[t]:
                acc[c] = acc.get(c, 0) + x * y
        for t, x in rb:
            for c, y in a[t]:
                acc[c] = acc.get(c, 0) - x * y
        out.append(tuple((c, v) for c, v in sorted(acc.items()) if v))
    return tuple(out)


def combination(terms, dim):
    """sum of c * rows over the (c, rows) pairs of dim x dim sparse rows,
    as sparse rows; the entries may be of any number type."""
    acc = [{} for _ in range(dim)]
    for c, rows in terms:
        for a, row in zip(acc, rows):
            for col, v in row:
                a[col] = a.get(col, 0) + c * v
    return sparse_rows(acc)


def scaled(rows, k):
    """k * rows for sparse rows, as sparse rows."""
    return tuple(tuple((c, k * v) for c, v in row if k) for row in rows)


def integer_rows(mats):
    """Sparse rational matrices as integer sparse rows over the least
    common denominator den of their entries: (the integer rows of each
    matrix, den)."""
    nums, den = linalg.integer_row(
        [v for rows in mats for row in rows for _, v in row])
    values = iter(nums)
    return tuple(tuple(tuple((c, next(values)) for c, _ in row)
                       for row in rows) for rows in mats), den


def lowest_terms(rows, den):
    """Integer sparse rows over a positive den, divided through by the gcd
    of den and every entry."""
    g = gcd(den, *(v for row in rows for _, v in row))
    return tuple(tuple((c, v // g) for c, v in row) for row in rows), den // g


def _smallest_fundamental_module(datum, comp):
    """A faithful fundamental module of a component: its smallest one."""
    best = None
    for i in comp:
        lam = tuple(1 if j == i else 0 for j in range(datum.n))
        d = weyl_dimension(datum, lam)
        if best is None or d < best[0]:
            best = (d, lam)
    return _build_irreducible(datum, best[1])


def chevalley_basis(datum):
    """Root vectors as commutators in a small faithful module per Dynkin
    component, and the bracket table read off them.

    Every root vector is integer sparse rows over one denominator, (rows,
    den): the simple ones share the module's common denominator, and each
    commutator runs in integers and is brought to lowest terms.  Every
    comparison of two such matrices is cross-multiplied."""
    n = datum.n
    roots = datum.positive_roots
    root_index = {r: k for k, r in enumerate(roots)}
    simple_index = tuple(
        root_index[tuple(1 if j == i else 0 for j in range(n))]
        for i in range(n))
    root_set = set(roots)

    def is_root(vec):
        return vec in root_set or tuple(-v for v in vec) in root_set

    def same(a, b):
        """Whether (rows, den) pairs a and b are the same matrix."""
        return scaled(a[0], b[1]) == scaled(b[0], a[1])

    comps = rootdata.dynkin_components(datum)

    defpair = {}
    coroots = {idx: datum.coroot_of(r) for idx, r in enumerate(roots)}
    brackets = {}
    modules = {}

    for comp in comps:
        mod = _smallest_fundamental_module(datum, comp)
        modules[mod.highest_weight] = mod
        dim = mod.dimension
        rows, den = integer_rows([mod.act_e[i] for i in comp]
                                 + [mod.act_f[i] for i in comp])
        emat = {simple_index[i]: (e, den) for i, e in zip(comp, rows)}
        fmat = {simple_index[i]: (f, den)
                for i, f in zip(comp, rows[len(comp):])}

        comp_root_idxs = [root_index[r] for r in
                          rootdata.positive_roots_supported_on(datum, comp)]

        for idx in comp_root_idxs:
            root = roots[idx]
            if sum(root) == 1:
                continue
            i = next(i for i in comp
                     if root[i] > 0 and
                     tuple(root[j] - (1 if j == i else 0) for j in range(n))
                     in root_set)
            beta = tuple(root[j] - (1 if j == i else 0) for j in range(n))
            bidx = root_index[beta]
            p = 0   # the alpha_i-string through beta reaches beta - p alpha_i
            while is_root(tuple(beta[j] - (p + 1) * (j == i)
                                for j in range(n))):
                p += 1
            div = p + 1
            (ea, da), (eb, db) = emat[simple_index[i]], emat[bidx]
            egam, de = lowest_terms(commutator(ea, eb), div * da * db)
            if not any(egam):
                raise AssertionError("root vector %d vanishes" % idx)
            (fa, da), (fb, db) = fmat[simple_index[i]], fmat[bidx]
            fgam, df = lowest_terms(commutator(fa, fb), div * da * db)
            h = (commutator(egam, fgam), de * df)
            cor, cden = linalg.integer_row(coroots[idx])
            expected = tuple(((k, d),) if d else () for k, d in enumerate(
                sum(w[j] * cor[j] for j in range(n)) for w in mod.weights))
            if same(h, (expected, cden)):
                fsign = 1
            elif same(h, (expected, -cden)):
                fsign = -1
                fgam = scaled(fgam, -1)
            else:
                raise AssertionError("coroot normalization failed")
            defpair[idx] = (i, bidx, div, fsign)
            emat[idx] = egam, de
            fmat[idx] = fgam, df

        # read off the nonzero brackets on this component
        labeled = ([(('e', idx), roots[idx], emat[idx]) for idx in comp_root_idxs]
                   + [(('f', idx), tuple(-v for v in roots[idx]), fmat[idx])
                      for idx in comp_root_idxs])
        mats = {lab: m for lab, _, m in labeled}
        hmats = {i: commutator(emat[simple_index[i]][0],
                               fmat[simple_index[i]][0]) for i in comp}
        for la, va, (ma, da) in labeled:
            for lb, vb, (mb, db) in labeled:
                if la >= lb:
                    continue
                c = commutator(ma, mb)
                s = tuple(x + y for x, y in zip(va, vb))
                if all(v == 0 for v in s):
                    idx = la[1]
                    cor = coroots[idx]
                    coeffs = {('h', j): (cor[j] if la[0] == 'e' else -cor[j])
                              for j in comp if cor[j]}
                    nums, cden = linalg.integer_row(list(coeffs.values()))
                    check = combination(
                        [(cj, hmats[lab[1]]) for lab, cj in zip(coeffs, nums)],
                        dim)
                    if not same((c, da * db), (check, den * den * cden)):
                        raise AssertionError("h-part bracket mismatch")
                    brackets[(la, lb)] = coeffs
                elif is_root(s):
                    tgt = (('e', root_index[s]) if s in root_set
                           else ('f', root_index[tuple(-v for v in s)]))
                    tm, dt = mats[tgt]
                    r, (col, v) = next((r, row[0])
                                       for r, row in enumerate(tm) if row)
                    x = dict(c[r]).get(col, 0)
                    # c / (da db) = scal * tm / dt, scal = x dt / (da db v)
                    if scaled(c, v) != scaled(tm, x):
                        raise AssertionError("bracket not a root vector")
                    scal = Fraction(x * dt, da * db * v)
                    if scal.denominator != 1:
                        raise AssertionError("non-integral structure constant")
                    if scal:
                        brackets[(la, lb)] = {tgt: scal}
                elif any(c):
                    raise AssertionError("non-root bracket must vanish")

    return ChevalleyBasis(
        datum=datum,
        root_index=root_index,
        simple_index=simple_index,
        defpair=defpair,
        brackets=brackets,
        modules=modules,
    )


def adjoint_module(basis):
    """The adjoint module realized by the bracket action.

    Basis slots carry Chevalley labels; for reducible data this is the
    direct sum of the per-component adjoint modules in one object.  It
    carries no contravariant form (gram is None).
    """
    datum = basis.datum
    n = datum.n
    roots = datum.positive_roots

    def label_key(lab):
        if lab[0] == 'e':
            return (-sum(roots[lab[1]]), roots[lab[1]])
        if lab[0] == 'h':
            return (0, (lab[1],))
        return (sum(roots[lab[1]]), roots[lab[1]])

    labels = ([('e', idx) for idx in range(len(roots))]
              + [('h', i) for i in range(n)]
              + [('f', idx) for idx in range(len(roots))])
    labels.sort(key=label_key)
    slot = {lab: k for k, lab in enumerate(labels)}
    dim = len(labels)

    def label_weight(lab):
        if lab[0] == 'h':
            return tuple(0 for _ in range(n))
        w = datum.root_to_weight_coords(roots[lab[1]])
        return w if lab[0] == 'e' else tuple(-v for v in w)

    weights = tuple(label_weight(lab) for lab in labels)

    def action_rows(gen_label):
        rows = [{} for _ in range(dim)]
        for col, lab in enumerate(labels):
            for out_lab, c in basis.bracket(gen_label, lab).items():
                rows[slot[out_lab]][col] = c
        return sparse_rows(rows)

    act_e = tuple(action_rows(('e', basis.simple_index[i])) for i in range(n))
    act_f = tuple(action_rows(('f', basis.simple_index[i])) for i in range(n))

    return WeightModule(
        datum=datum,
        highest_weight=weights[0],
        dimension=dim,
        weights=weights,
        act_e=act_e,
        act_f=act_f,
        labels=tuple(labels),
    )
