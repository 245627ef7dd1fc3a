"""Peterson-variety points in normal form x * wdot(w_J), stratum
classification by vanishing minors, the map Psi into Cox coordinates,
component splitting for reducible data, and low-rank numerical
inversion of the minor map.
"""

from dataclasses import dataclass
from fractions import Fraction
import random

from . import grouprep, linalg, rootdata, toric

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class PetersonPoint:
    """Normal form exp(sum coords * centralizer basis) * wdot(w_J)."""

    J: tuple
    coords: tuple


def make_point(ws, J, coords):
    J = tuple(sorted(set(J)))
    coords = tuple(Fraction(c) for c in coords)
    if len(coords) != len(J):
        raise ValueError("need one coordinate per centralizer basis element")
    return PetersonPoint(J=J, coords=coords)


def unipotent_part(ws, p):
    """The element x = exp(sum coords * basis) of the centralizer."""
    basis = ws.centralizer(p.J)
    elem = {}
    for c, b in zip(p.coords, basis):
        for label, v in b.items():
            elem[label] = elem.get(label, ZERO) + c * v
    return grouprep.exp_element(elem)


def element(ws, p):
    return unipotent_part(ws, p) * grouprep.wdot(ws.longest(p.J))


def peterson_membership(g, ws):
    """True iff Ad_{g^{-1}}(e) has no component on f_alpha, ht(alpha) >= 2."""
    rep = ws.adjoint_rep()
    vec = grouprep.ad_conjugate_e(g, ws)
    for slot, label in enumerate(rep.module.labels):
        if label[0] == 'f' and sum(ws.datum.positive_roots[label[1]]) >= 2:
            if vec[slot] != 0:
                return False
    return True


def deltas(ws, p):
    """All fundamental minors of the normal-form element, exact."""
    g = element(ws, p)
    return tuple(grouprep.delta_varpi(i, g, ws)
                 for i in range(ws.datum.n))


def classify_stratum(ws, p, sampled_tnn=False):
    """K from vanishing minors; minors outside J must be exactly 1."""
    vals = deltas(ws, p)
    n = ws.datum.n
    for i in range(n):
        if i not in p.J:
            if vals[i] != 1:
                raise AssertionError("minor outside J must equal 1, got %s "
                                     "at node %d" % (vals[i], i))
    if sampled_tnn and any(v < 0 for v in vals):
        raise AssertionError(
            "negative minor on a TNN-sampled point contradicts minor "
            "nonnegativity")
    K = tuple(i for i in range(n) if vals[i] == 0)
    return (K, p.J)


def minor_vector(ws, p):
    """(Delta values, q values) of the normal-form element, unvalidated."""
    g = element(ws, p)
    xs = tuple(grouprep.delta_varpi(i, g, ws) for i in range(ws.datum.n))
    ys = grouprep.q_vector(g, ws)
    return xs, ys


def psi(ws, p):
    """[Delta_1, ..., Delta_n ; q_1, ..., q_n] as a Cox point."""
    xs, ys = minor_vector(ws, p)
    return toric.cox_point(xs, ys)


@dataclass(frozen=True)
class ComponentPoint:
    nodes: tuple          # nodes of the component in the ambient datum
    datum: object         # component root datum
    point: PetersonPoint


def component_datum(datum, nodes):
    entries = [[datum.cartan.entries[i][j] for j in nodes] for i in nodes]
    return rootdata.build_root_datum(rootdata.cartan_from_entries(entries))


def split_components(ws, p, partition):
    """Per-component Peterson points whose minors concatenate to psi's."""
    blocks = [tuple(sorted(b)) for b in partition]
    expected = [tuple(b) for b in rootdata.dynkin_components(ws.datum)]
    if sorted(blocks) != sorted(expected):
        raise ValueError("partition does not match the Dynkin components")
    basis = ws.centralizer(p.J)
    out = []
    for block in blocks:
        sub = component_datum(ws.datum, block)
        sub_ws = grouprep.workspace(sub)
        sub_j = tuple(block.index(i) for i in p.J if i in block)
        sub_basis = sub_ws.centralizer(sub_j)
        # restrict the ambient Lie element to this block and re-express
        elem = {}
        for c, b in zip(p.coords, basis):
            for (kind, idx), v in b.items():
                root = ws.datum.positive_roots[idx]
                if any(root[i] for i in block):
                    sub_root = tuple(root[i] for i in block)
                    sub_idx = sub_ws.chev.root_index[sub_root]
                    key = (kind, sub_idx)
                    elem[key] = elem.get(key, ZERO) + c * v
        labels = sorted({l for b in sub_basis for l in b} | set(elem))
        a = [[b.get(l, ZERO) for b in sub_basis] for l in labels]
        rhs = [elem.get(l, ZERO) for l in labels]
        coords = linalg.solve(a, rhs) if sub_basis else []
        out.append(ComponentPoint(
            nodes=block, datum=sub,
            point=PetersonPoint(J=sub_j, coords=tuple(coords))))
    return out


def sample_points(ws, J, count, seed=0, tnn_only=False):
    """Deterministic nonnegative-coordinate samples of the J-centralizer.

    With tnn_only, rejection-sample until all fundamental minors of the
    normal-form element are nonnegative.
    """
    rng = random.Random(seed)
    J = tuple(sorted(set(J)))
    out = []
    while len(out) < count:
        coords = []
        for _ in J:
            if rng.random() < 0.25:
                coords.append(ZERO)
            else:
                coords.append(Fraction(rng.randint(1, 12), rng.randint(1, 6)))
        p = make_point(ws, J, coords)
        if tnn_only and any(v < 0 for v in deltas(ws, p)):
            continue
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# Low-rank inversion of the minor map


INVERSION_TOL = 1e-9      # accepted residual of the recovered minors
NEWTON_STEPS = 60         # Newton iterations per start
RANDOM_STARTS = 12        # random starts after the grid starts


class InversionError(RuntimeError):
    pass


def _deltas_float(ws, J, coords):
    """The minors on J at float coordinates: exact at the coordinates'
    exact binary values, rounded once."""
    vals = deltas(ws, make_point(ws, J, coords))
    return [float(vals[i]) for i in J]


def invert_theorem59(ws, target, J=None, seed=0, grid_starts=True):
    """Recover nonnegative centralizer coordinates from target minors.

    Implemented for J whose Dynkin components are of type A1 or A2, where
    the exact type-A minor test certifies the solution; Newton iteration
    polished from a coarse nonnegative grid start.
    """
    datum = ws.datum
    J = tuple(range(datum.n)) if J is None else tuple(sorted(set(J)))
    target = [float(t) for t in target]
    if len(target) != len(J):
        raise ValueError("need one target per index in J")
    if any(t < 0 for t in target):
        raise ValueError("targets must be nonnegative")
    comps = rootdata.dynkin_components(datum, J)
    if any(len(c) > 2 or any(datum.pairing[i][j] < -1 for i in c for j in c)
           for c in comps):
        raise NotImplementedError("inversion implemented for components "
                                  "of type A1 and A2 only")

    pos = {j: k for k, j in enumerate(J)}
    basis = ws.centralizer(J)
    coords = [0.0] * len(J)
    rng = random.Random(seed)

    for comp in comps:
        # the coordinates of the basis elements supported on comp
        slots = [k for k, b in enumerate(basis)
                 if any(datum.positive_roots[idx][comp[0]] for _, idx in b)]
        tgt = [target[pos[j]] for j in comp]
        if len(comp) == 1:
            sol = [tgt[0]]
        else:
            sol = _invert_rank2(ws, J, pos, comp, slots, tgt, rng,
                                grid_starts)
        for k, v in zip(slots, sol):
            coords[k] = v

    got = _deltas_float(ws, J, coords)
    resid = max(abs(g - t) for g, t in zip(got, target))
    if resid >= INVERSION_TOL:
        raise InversionError("Newton inversion residual %.3e >= %.1e"
                             % (resid, INVERSION_TOL))
    return make_point(ws, J, [Fraction(c) for c in coords])


def _invert_rank2(ws, J, pos, comp, slots, tgt, rng, grid_starts):
    def full(c2):
        out = [0.0] * len(J)
        for k, v in zip(slots, c2):
            out[k] = v
        return out

    def f(c2):
        got = _deltas_float(ws, J, full(c2))
        return [got[pos[j]] - t for j, t in zip(comp, tgt)]

    def newton(start):
        c = list(start)
        for _ in range(NEWTON_STEPS):
            r = f(c)
            if max(abs(v) for v in r) < INVERSION_TOL * 1e-2:
                return c
            h = 1e-7
            jac = []
            for k in range(2):
                cp = list(c)
                cp[k] += h
                rp = f(cp)
                jac.append([(rp[m] - r[m]) / h for m in range(2)])
            det = jac[0][0] * jac[1][1] - jac[1][0] * jac[0][1]
            if det == 0:
                return None
            dx = (r[0] * jac[1][1] - r[1] * jac[1][0]) / det
            dy = (r[1] * jac[0][0] - r[0] * jac[0][1]) / det
            c = [c[0] - dx, c[1] - dy]
        return None

    if grid_starts:
        grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0]
        starts = sorted(((a, b) for a in grid for b in grid),
                        key=lambda s: max(abs(v) for v in f(list(s))))[:8]
    else:
        starts = []
    for start in starts + [(rng.uniform(0, 10), rng.uniform(0, 10))
                           for _ in range(RANDOM_STARTS)]:
        sol = newton(list(start))
        if sol is None:
            continue
        # the exact type-A minor test on the fundamental module of the
        # component's first node certifies the solution
        x = unipotent_part(ws, make_point(ws, J, full(sol)))
        mat = x.matrix(ws.fundamental_rep(comp[0]))
        if grouprep.tnn_membership_typeA(mat, tol=INVERSION_TOL):
            return sol
    raise InversionError("no convergent Newton start for targets %r" % (tgt,))
