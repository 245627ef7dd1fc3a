"""Per-layer tracing from outside the package.

`install()` replaces the entry points of each layer (module functions and
GroupElement methods) with wrappers that record a span per call: its name,
start, end and parent.  Spans are folded into per-name sums as they close
(calls, inclusive seconds, self seconds = duration minus child spans), so
memory stays flat however many calls a pass makes.  Nothing in the package
changes; intra-package calls go through the module attributes, so they are
traced too.
"""

from collections import Counter, defaultdict
import functools
import time

SUITES = ("lemma53", "prop44", "prop35", "cube", "normalfan", "psi-strata",
          "splitting", "prop76", "theorem59", "moment-cells")
LAYERS = ("linalg", "liealg", "grouprep", "peterson", "polytope", "toric")


def _cartan(datum):
    return datum.cartan.entries


class Tracer:
    def __init__(self):
        self.stack = []                 # open spans: [name, child seconds]
        self.active = Counter()         # open spans per name
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.keys = defaultdict(set)    # distinct argument values per name
        self.counts = Counter()         # counters other than calls

    def span(self, name, fn, key=None, on_call=None):
        stack, active = self.stack, self.active
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        keys = self.keys[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if key is not None:
                keys.add(key(*args, **kwargs))
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                active[name] -= 1
                stack.pop()
                total_s[name] += dt
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
        return traced

    def wrap(self, owner, attr, name, **kw):
        setattr(owner, attr, self.span(name, getattr(owner, attr), **kw))

    def install(self):
        from petersonlab import (grouprep, liealg, linalg, peterson,
                                 polytope, toric)
        counts, active = self.counts, self.active

        self.wrap(linalg, "_echelon", "linalg.echelon")
        for attr in ("rank", "solve", "solve_matrix", "inverse", "det",
                     "mat_mul"):
            self.wrap(linalg, attr, "linalg." + attr)

        def candidate(*_):
            if active["polytope.hull_oracle"]:
                counts["polytope.hull_candidates"] += 1
        self.wrap(linalg, "kernel_basis", "linalg.kernel_basis",
                  on_call=candidate)

        self.wrap(liealg, "chevalley_basis", "liealg.chevalley_basis",
                  key=_cartan)
        self.wrap(liealg, "_build_irreducible", "liealg.build_irreducible",
                  key=lambda datum, lam, cap=None:
                  (_cartan(datum), tuple(lam)))
        self.wrap(liealg, "adjoint_module", "liealg.adjoint_module")
        self.wrap(liealg, "weyl_dimension", "liealg.weyl_dimension")

        def tokens(elem, rep, vec):
            counts["grouprep.tokens"] += len(elem.word)
        self.wrap(grouprep.GroupElement, "apply", "grouprep.apply",
                  on_call=tokens)
        self.wrap(grouprep.GroupElement, "row_apply", "grouprep.row_apply")
        self.wrap(grouprep.GroupElement, "matrix", "grouprep.matrix")

        def delta_kind(i, g, ws, as_float=False):
            counts["grouprep.delta_varpi.%s_calls"
                   % ("float" if as_float else "exact")] += 1
        self.wrap(grouprep, "delta_varpi", "grouprep.delta_varpi",
                  on_call=delta_kind)
        self.wrap(grouprep, "delta_adjoint_type",
                  "grouprep.delta_adjoint_type")
        self.wrap(grouprep, "ad_conjugate_e", "grouprep.ad_conjugate_e",
                  key=lambda g, ws: (_cartan(ws.datum), g.word))
        self.wrap(grouprep, "centralizer_basis", "grouprep.centralizer_basis",
                  key=lambda ws, J: (_cartan(ws.datum), tuple(sorted(set(J)))))
        self.wrap(grouprep, "tnn_membership_typeA",
                  "grouprep.tnn_membership_typeA")

        for attr in ("element", "unipotent_part", "deltas", "classify_stratum",
                     "minor_vector", "psi", "split_components",
                     "sample_points", "invert_theorem59"):
            self.wrap(peterson, attr, "peterson." + attr)

        self.wrap(polytope, "build_polytope", "polytope.build_polytope",
                  key=lambda datum, lam: (_cartan(datum), tuple(lam)))
        for attr in ("hull_oracle", "cube_check", "normal_fan", "build_fan"):
            self.wrap(polytope, attr, "polytope." + attr)

        self.wrap(toric, "canonicalize", "toric.canonicalize",
                  key=lambda datum, p: (_cartan(datum), p.x, p.y))
        self.wrap(toric, "equivalent", "toric.equivalent")
        self.wrap(toric, "moment_map", "toric.moment_map")

    # -- results -------------------------------------------------------

    def distinct_ratio(self, name):
        calls = self.calls[name]
        return len(self.keys[name]) / calls if calls else 0.0

    def layer_self_s(self, layer):
        return sum((v for k, v in self.self_s.items()
                    if k.startswith(layer + ".")), 0.0)

    def counts_summary(self):
        """Every count and distinct ratio; two traced passes of one
        workload must give identical summaries."""
        out = {"calls." + k: v for k, v in self.calls.items()}
        out.update(self.counts)
        out.update(("distinct." + k, len(v)) for k, v in self.keys.items())
        return dict(sorted(out.items()))

    def times(self):
        """Per-layer seconds {name: seconds}; 0 where a workload never
        reaches the layer."""
        tot = self.total_s
        t = {
            "grouprep.apply.self_s": self.self_s["grouprep.apply"],
            "peterson.invert_theorem59.s": tot["peterson.invert_theorem59"],
            "peterson.minor_vector.s": tot["peterson.minor_vector"],
            "polytope.hull_oracle.s": tot["polytope.hull_oracle"],
        }
        for layer in LAYERS:
            t[layer + ".self_s"] = self.layer_self_s(layer)
        for suite in SUITES:
            t["verify.%s.s" % suite] = tot["verify." + suite]
        return t

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}: counts, distinct
        ratios, and each of times() as a share of the traced pass.  Shares
        stand in for seconds because a layer that a workload never reaches
        reads 0 on every run, which is no timing."""
        c, n = self.calls, self.counts
        m = {
            "grouprep.apply.calls": (c["grouprep.apply"], "count"),
            "grouprep.tokens": (n["grouprep.tokens"], "count"),
            "grouprep.ad_conjugate_e.calls": (c["grouprep.ad_conjugate_e"],
                                              "count"),
            "grouprep.centralizer_basis.calls": (
                c["grouprep.centralizer_basis"], "count"),
            "grouprep.delta_varpi.float_calls": (
                n["grouprep.delta_varpi.float_calls"], "count"),
            "grouprep.delta_varpi.exact_calls": (
                n["grouprep.delta_varpi.exact_calls"], "count"),
            "peterson.invert_theorem59.calls": (
                c["peterson.invert_theorem59"], "count"),
            "polytope.hull_candidates": (n["polytope.hull_candidates"],
                                         "count"),
            "linalg.echelon.calls": (c["linalg.echelon"], "count"),
            "liealg.chevalley_basis.calls": (c["liealg.chevalley_basis"],
                                             "count"),
            "toric.moment_map.calls": (c["toric.moment_map"], "count"),
        }
        for name in ("grouprep.ad_conjugate_e", "grouprep.centralizer_basis",
                     "polytope.build_polytope", "liealg.chevalley_basis",
                     "liealg.build_irreducible", "toric.canonicalize"):
            m[name + ".distinct_ratio"] = (self.distinct_ratio(name), "ratio")
        times = self.times()
        pass_s = sum(times["verify.%s.s" % suite] for suite in SUITES)
        for name, seconds in times.items():
            share = name[:-len("_s")] + "_share" if name.endswith("_s") \
                else name[:-len(".s")] + ".share"
            m[share] = (seconds / pass_s, "ratio")
        return m
