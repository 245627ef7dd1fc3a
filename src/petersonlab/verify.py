"""Verification suites: each suite re-checks one verified claim across
catalog types with seeded sampling.  A suite is a generator that yields
one (ok, input, expected, got) tuple per case; run_suite turns the cases
into a machine-readable report (deterministic for a fixed suite, type and
seed) and attaches the suite's claim.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import random

from . import grouprep, liealg, linalg, peterson, polytope, rootdata, toric

CATALOG_TYPES = tuple(rootdata.CATALOG)
REDUCIBLE_TYPES = ("A1xA1", "A2xA1")
LOW_RANK_TYPES = ("A1", "A2")
POWER_MINOR_TYPES = ("A1", "A2", "A3", "B2")

SUITE_CLAIMS = {
    "lemma53": "q-coefficients of normal-form points are exactly 0 "
               "outside J and exactly 1 on J",
    "prop44": "fundamental minors are nonnegative on totally nonnegative "
              "elements times Weyl representatives",
    "prop35": "fundamental minors restrict to 1 outside J on the Levi "
              "subgroup and to the subgroup's own minors on J",
    "cube": "the dominant weight polytope is combinatorially an n-cube "
            "and matches the independent hull oracle",
    "normalfan": "the normal fan of the polytope equals the fan Sigma "
                 "under complementation of the cap label",
    "psi-strata": "the minor map sends each TNN stratum into the "
                  "matching toric stratum, injectively",
    "splitting": "minor and q vectors of a reducible datum are the "
                 "concatenations over its Dynkin components",
    "prop76": "adjoint-type minors are the m_i-th powers of fundamental "
              "minors; the contravariant form is Weyl-invariant",
    "theorem59": "the minor map is invertible on nonnegative targets at "
                 "low rank, with unique TNN preimages",
    "moment-cells": "the moment map sends each toric stratum into the "
                    "relative interior of the matching polytope face",
}

SUITE_NAMES = tuple(SUITE_CLAIMS) + ("all",)


@dataclass
class VerificationReport:
    suite: str
    type_name: str
    seed: int
    cases: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, input_rendering, expected, got, claim):
        self.cases += 1
        if not ok:
            self.failures.append({
                "input": str(input_rendering),
                "expected": str(expected),
                "got": str(got),
                "claim": claim,
            })

    def merge(self, other):
        self.cases += other.cases
        self.failures.extend(other.failures)

    def to_dict(self):
        return {
            "suite": self.suite,
            "type_name": self.type_name,
            "seed": self.seed,
            "cases": self.cases,
            "failures": self.failures,
            "ordering": rootdata.ORDERING,
            "claim": SUITE_CLAIMS.get(self.suite, "all verified claims"),
        }


def _ws(type_name):
    return grouprep.workspace(rootdata.datum_from_name(type_name))


def _per_subset(total, n):
    return max(1, -(-total // (2 ** n)))


def _random_levi_word(J, rng):
    word = []
    for _ in range(6):
        j = rng.choice(J)
        kind = rng.choice(("x", "y"))
        t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        word.append((kind, j, t))
    return grouprep.GroupElement(tuple(word))


# ---------------------------------------------------------------------------
# suites


def suite_lemma53(type_name, samples, seed):
    ws = _ws(type_name)
    for J in rootdata.subsets(range(ws.datum.n)):
        pts = peterson.sample_points(ws, J, samples, seed=seed)
        for p in pts:
            g = peterson.element(ws, p)
            got = grouprep.q_vector(g, ws)
            want = tuple(Fraction(1 if i in J else 0)
                         for i in range(ws.datum.n))
            yield (got == want,
                   "%s J=%s coords=%s" % (type_name, J, p.coords),
                   want, got)


def suite_prop44(type_name, samples, seed):
    ws = _ws(type_name)
    rng = random.Random(seed)
    per = _per_subset(samples, ws.datum.n)
    reps = [ws.fundamental_rep(i) for i in range(ws.datum.n)]
    for J in rootdata.subsets(range(ws.datum.n)):
        w = ws.longest(J)
        # Delta_i(s wdot(w)) is the top coordinate of s applied to the
        # stored wdot(w) v_i
        tops = [ws.extremal_vector(rep.module.highest_weight, J)
                for rep in reps]
        for _ in range(per):
            s = grouprep.tnn_sample(w, rng=rng)
            vals = tuple(s.element.apply(rep, top)[0]
                         for rep, top in zip(reps, tops))
            yield (all(v >= 0 for v in vals),
                   "%s w_J J=%s params=%s" % (type_name, J, s.params),
                   "all minors >= 0", vals)


def suite_prop35(type_name, samples, seed):
    ws = _ws(type_name)
    rng = random.Random(seed)
    n = ws.datum.n
    for J in rootdata.subsets(range(n)):
        if not J:
            continue
        sub = peterson.component_datum(ws.datum, J)
        sub_ws = grouprep.workspace(sub)
        for _ in range(samples):
            g = _random_levi_word(J, rng)
            sub_g = grouprep.GroupElement(tuple(
                (kind, J.index(j), t) for kind, j, t in g.word))
            for i in range(n):
                got = grouprep.delta_varpi(i, g, ws)
                if i in J:
                    want = grouprep.delta_varpi(J.index(i), sub_g, sub_ws)
                else:
                    want = Fraction(1)
                yield (got == want,
                       "%s J=%s i=%d word=%s" % (type_name, J, i, g.word),
                       want, got)


def _random_regular_lambdas(datum, count, seed):
    rng = random.Random(seed)
    return [tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4))
                  for _ in range(datum.n))
            for _ in range(count)]


def suite_cube(type_name, samples, seed):
    ws = _ws(type_name)
    datum = ws.datum
    n = datum.n
    lams = [tuple(Fraction(1) for _ in range(n))]
    lams += _random_regular_lambdas(datum, 5, seed)
    for lam in lams:
        poly, lattice = ws.polytope(lam)
        tag = "%s lambda=%s" % (type_name, lam)
        yield (len(lattice.faces) == 3 ** n, tag + " face count",
               3 ** n, len(lattice.faces))
        yield (len(poly.vertices) == 2 ** n, tag + " vertex count",
               2 ** n, len(poly.vertices))
        facets = [f for f in lattice.faces.values() if f.dim == n - 1]
        yield (len(facets) == 2 * n, tag + " facet count", 2 * n, len(facets))
        dims_ok = all(f.dim == len(f.J) - len(f.K)
                      for f in lattice.faces.values())
        yield (dims_ok, tag + " face dims", "dim = |J| - |K|", dims_ok)
        ok, _ = polytope.cube_check(lattice)
        yield (ok, tag + " cube isomorphism", True, ok)
        oracle = polytope.hull_oracle(datum, lam)
        ours = sorted(poly.vertices.values())
        yield (ours == oracle, tag + " hull oracle", oracle, ours)


def suite_normalfan(type_name, samples, seed):
    ws = _ws(type_name)
    datum = ws.datum
    n = datum.n
    poly, lattice = ws.polytope(tuple(Fraction(1) for _ in range(n)))
    nfan = polytope.normal_fan(poly, lattice)
    fan = polytope.build_fan(datum)
    for (K, J), cone in sorted(nfan.cones.items()):
        comp = tuple(i for i in range(n) if i not in J)
        sigma = fan.cones[(K, comp)]
        yield (set(cone.rays) == set(sigma.rays),
               "%s tau_(%s,%s)" % (type_name, K, J),
               sorted(sigma.rays), sorted(cone.rays))


def suite_psi_strata(type_name, samples, seed):
    ws = _ws(type_name)
    datum = ws.datum
    per = min(_per_subset(samples, datum.n), 12)
    for J in rootdata.subsets(range(datum.n)):
        pts = peterson.sample_points(ws, J, per, seed=seed, tnn_only=True)
        pts = list({p.coords: p for p in pts}.values())
        canon = []
        for p in pts:
            c = peterson.psi(ws, p)
            label = peterson.classify_stratum(p.J, c.x)
            cc = toric.canonicalize(datum, c)
            yield (cc.label == label,
                   "%s J=%s coords=%s" % (type_name, J, p.coords),
                   label, cc.label)
            canon.append((p, cc))
        for a in range(len(canon)):
            for b in range(a + 1, len(canon)):
                eq = toric.equivalent(canon[a][1], canon[b][1])
                yield (not eq,
                       "%s J=%s injectivity %s vs %s"
                       % (type_name, J, canon[a][0].coords,
                          canon[b][0].coords),
                       "inequivalent images", "equivalent")


def suite_splitting(type_name, samples, seed):
    ws = _ws(type_name)
    datum = ws.datum
    comps = [tuple(b) for b in rootdata.dynkin_components(datum)]
    rng = random.Random(seed)
    for _ in range(samples):
        J = tuple(sorted(rng.sample(range(datum.n),
                                    rng.randint(0, datum.n)))) \
            if rng.random() < 0.3 else tuple(range(datum.n))
        coords = [Fraction(rng.randint(0, 12), rng.randint(1, 6))
                  for _ in J]
        p = peterson.make_point(ws, J, coords)
        full_x, full_y = peterson.minor_vector(ws, p)
        parts = peterson.split_components(ws, p, comps)
        got_x = [None] * datum.n
        got_y = [None] * datum.n
        for cp in parts:
            sws = grouprep.workspace(cp.datum)
            cx, cy = peterson.minor_vector(sws, cp.point)
            for k, i in enumerate(cp.nodes):
                got_x[i] = cx[k]
                got_y[i] = cy[k]
        ok = tuple(got_x) == full_x and tuple(got_y) == full_y
        yield (ok, "%s J=%s coords=%s" % (type_name, J, coords),
               (full_x, full_y), (tuple(got_x), tuple(got_y)))


def suite_prop76(type_name, samples, seed):
    ws = _ws(type_name)
    datum = ws.datum
    rng = random.Random(seed)
    exps = ws.exponents
    for i in range(datum.n):
        prep = ws.power_rep(i)
        m = prep.module
        want_dim = liealg.weyl_dimension(datum, m.highest_weight)
        yield (m.dimension == want_dim,
               "%s V_{%d w_%d} dimension" % (type_name, exps[i], i),
               want_dim, m.dimension)
        w0mat = grouprep.wdot(ws.w0()).matrix(prep)
        gram = [list(row) for row in m.gram]
        lhs = linalg.mat_mul(linalg.transpose(w0mat),
                             linalg.mat_mul(gram, w0mat))
        yield (lhs == gram,
               "%s contravariant-form invariance i=%d" % (type_name, i),
               "M^T G M = G", lhs == gram)
        full = tuple(range(datum.n))
        w0dot = grouprep.wdot(ws.w0())
        for _ in range(samples):
            coords = [Fraction(rng.randint(0, 9), rng.randint(1, 4))
                      for _ in full]
            x = peterson.unipotent_part(
                ws, peterson.make_point(ws, full, coords))
            fund = grouprep.delta_varpi(i, x * w0dot, ws)
            power = grouprep.delta_adjoint_type(
                i, w0dot.inverse() * x * w0dot, ws)
            yield (power == fund ** exps[i],
                   "%s i=%d coords=%s" % (type_name, i, coords),
                   fund ** exps[i], power)


def suite_theorem59(type_name, samples, seed):
    ws = _ws(type_name)
    if type_name == "A1":
        for k in range(11):
            t = Fraction(k)
            p, _ = peterson.invert_theorem59(ws, [t])
            yield (p.coords == (t,), "A1 target %s" % t, (t,), p.coords)
        return
    vals = [10.0 * k / 9 for k in range(10)]
    for a in vals:
        for b in vals:
            tag = "A2 target (%.4f, %.4f)" % (a, b)
            try:
                p, cert = peterson.invert_theorem59(ws, [a, b], seed=seed)
            except peterson.InversionError as exc:
                yield (False, tag, "convergence", str(exc))
                continue
            yield (cert.residual < 1e-9, tag + " residual", "< 1e-9",
                   cert.residual)
            yield (cert.tnn, tag + " minor test", True, cert.tnn)
            probes = []
            for s in range(1, 11):
                try:
                    q, _ = peterson.invert_theorem59(
                        ws, [a, b], seed=seed + s, grid_starts=False)
                    probes.append([float(c) for c in q.coords])
                except peterson.InversionError:
                    pass
            spread = max((abs(u - v) for pr in probes
                          for u, v in zip(pr, [float(c) for c in p.coords])),
                         default=0.0)
            # near the boundary the map is quadratic in the coordinates,
            # so residual 1e-9 only pins them to ~sqrt of that
            yield (bool(probes) and spread < 1e-4,
                   tag + " uniqueness (%d probes)" % len(probes),
                   "< 1e-4", spread)


def suite_moment_cells(type_name, samples, seed):
    ws = _ws(type_name)
    datum = ws.datum
    n = datum.n
    lam = tuple(Fraction(1) for _ in range(n))
    poly, _ = ws.polytope(lam)
    data = toric.moment_data(poly)
    # alpha = mu C^{-1} is compared with the caps in integers: C^{-1} and
    # the caps over one common denominator L, each mu over the one
    # denominator moment_sums gives it
    flat, _ = linalg.integer_row([v for row in datum.pairing_inverse
                                  for v in row] + list(poly.cap_values))
    pinv = [flat[j * n:(j + 1) * n] for j in range(n)]
    caps = flat[n * n:]
    rng = random.Random(seed)

    def face_of(num, d):
        """The face of mu = num / d, and whether mu is in its relative
        interior."""
        alpha = [sum(num[j] * pinv[j][i] for j in range(n))
                 for i in range(n)]
        K = tuple(i for i in range(n) if num[i] == 0)
        J = tuple(i for i in range(n) if alpha[i] != caps[i] * d)
        strict = all(num[i] > 0 for i in range(n) if i not in K) and \
            all(alpha[i] < caps[i] * d for i in J)
        return (K, J), strict

    for _ in range(samples):
        J = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        K = tuple(sorted(rng.sample(J, rng.randint(0, len(J))))) \
            if J else ()
        x = [0.0 if i in K else rng.uniform(0.3, 3.0) for i in range(n)]
        y = [rng.uniform(0.3, 3.0) if i in J else 0.0 for i in range(n)]
        p = toric.cox_point(x, y)
        got, strict = face_of(*toric.moment_sums(p, data))
        yield (got == (K, J) and strict,
               "%s stratum (%s,%s) x=%s y=%s" % (type_name, K, J, x, y),
               ((K, J), True), (got, strict))

    top = toric.cox_point([1] * n, [0] * n)
    mu = toric.moment_map(top, data)
    yield (mu == lam, "%s point [1;0]" % type_name, lam, mu)
    bot = toric.cox_point([0] * n, [1] * n)
    mu = toric.moment_map(bot, data)
    yield (not any(mu), "%s point [0;1]" % type_name, (0,) * n, mu)


# name: (runner, default sample count or None where the suite takes
# none, the types that `verify all` gives it)
SUITES = {
    "lemma53": (suite_lemma53, 50, CATALOG_TYPES),
    "prop44": (suite_prop44, 200, CATALOG_TYPES),
    "prop35": (suite_prop35, 50, CATALOG_TYPES),
    "cube": (suite_cube, None, CATALOG_TYPES),
    "normalfan": (suite_normalfan, None, CATALOG_TYPES),
    "psi-strata": (suite_psi_strata, 50, CATALOG_TYPES),
    "splitting": (suite_splitting, 50, REDUCIBLE_TYPES),
    "prop76": (suite_prop76, 10, POWER_MINOR_TYPES),
    "theorem59": (suite_theorem59, None, LOW_RANK_TYPES),
    "moment-cells": (suite_moment_cells, 100, CATALOG_TYPES),
}


def _default_types(suite):
    return SUITES[suite][2]


def _cannot_run(name, type_name):
    """Why suite `name` certifies nothing on `type_name`, or None where it
    can run: theorem59 inverts on LOW_RANK_TYPES only, and prop76 builds
    every power module V(m_i w_i), each within the dimension cap.  It
    builds no module."""
    if name == "theorem59" and type_name not in LOW_RANK_TYPES:
        return "theorem59 runs on types A1 and A2 only"
    if name == "prop76":
        datum = rootdata.datum_from_name(type_name)
        for i, m in enumerate(rootdata.fundamental_exponents(datum)):
            dim = liealg.weyl_dimension(
                datum, [m if j == i else 0 for j in range(datum.n)])
            if dim > liealg.DIMENSION_CAP:
                return ("prop76 on %s needs V(%d w_%d) of dimension %d, "
                        "over the cap %d" % (type_name, m, i + 1, dim,
                                             liealg.DIMENSION_CAP))
    return None


def run_suite(name, type_name=None, seed=0, samples=None):
    """Run one suite (or "all") and return a VerificationReport.  This is
    the one place that counts a suite's cases and attaches its claim.
    Given a type, "all" leaves out each suite that cannot run on it, and
    a single suite that cannot raises ValueError before it runs."""
    if samples is not None and samples < 0:
        raise ValueError("sample count %d is negative" % samples)
    if samples == 0:
        raise ValueError("sample count 0 checks nothing")
    if name == "all":
        rep = VerificationReport("all", type_name or "all", seed)
        for sub in SUITE_CLAIMS:
            if not type_name or not _cannot_run(sub, type_name):
                rep.merge(run_suite(sub, type_name, seed, samples))
        return rep
    if name not in SUITES:
        raise ValueError("unknown suite %r" % name)
    runner, default, all_types = SUITES[name]
    reason = type_name and _cannot_run(name, type_name)
    if reason:
        raise ValueError(reason)
    count = default if samples is None else samples
    rep = VerificationReport(name, type_name or "all", seed)
    for t in (type_name,) if type_name else all_types:
        for case in runner(t, count, seed):
            rep.check(*case, SUITE_CLAIMS[name])
    return rep
