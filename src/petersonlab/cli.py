"""Command-line front end: catalog inspection, module dumps, group
evaluation, polytope/fan exports, toric coordinates and verification
suites with machine-readable reports.

Exit codes: 0 success, 1 verification failures, 2 usage errors (among
them an output path that cannot be written).
"""

import argparse
import contextlib
import json
import math
import re
import sys
from fractions import Fraction

from . import grouprep, peterson, polytope, rootdata, toric, verify


def _render(v):
    """Deterministic scalar rendering: exact rationals as strings,
    floats decimalized at 12 digits."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return "%.12f" % v
    return str(v)


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_fraction(text):
    """Fraction(text), refusing a decimal exponent e with |e| over
    sys.get_int_max_str_digits(): Fraction would build 10**e first."""
    m = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    limit = sys.get_int_max_str_digits()
    if m and limit and abs(int(m.group(1))) > limit:
        raise ValueError("decimal exponent of %r exceeds the limit %d"
                         % (text, limit))
    return Fraction(text)


def _parse_fractions(text):
    """Comma list -> tuple of Fractions; the empty list is ()."""
    return tuple(map(_parse_fraction, text.split(","))) if text else ()


def _sized(values, n, option):
    """values, checked to hold one coordinate per node."""
    if len(values) != n:
        raise ValueError("%s needs %d coordinates (one per node), got %d"
                         % (option, n, len(values)))
    return values


def _parse_lambda(datum, text):
    return _sized(_parse_fractions(text), datum.n, "--lambda")


def _parse_int_weight(datum, text, option):
    return _sized(tuple(int(v) for v in text.split(",")), datum.n, option)


def _parse_indices(text, n):
    """1-indexed comma list -> 0-indexed tuple."""
    if not text:
        return ()
    out = []
    for part in text.split(","):
        i = int(part)
        if not 1 <= i <= n:
            raise ValueError("index %d out of range 1..%d" % (i, n))
        out.append(i - 1)
    return tuple(sorted(set(out)))


_TOKEN_RE = re.compile(r"^(x|y)(\d+)\(([^()]+)\)$|^(si|s)(\d+)$")


def _parse_word(text, n):
    """Words like "x1(3) s2 y1(1/2)", generators 1-indexed."""
    elem = grouprep.identity_element()
    for chunk in text.split():
        m = _TOKEN_RE.match(chunk)
        if not m:
            raise ValueError("cannot parse token %r" % chunk)
        if m.group(1):
            kind, idx, t = m.group(1), int(m.group(2)), m.group(3)
        else:
            kind, idx, t = m.group(4), int(m.group(5)), None
        if not 1 <= idx <= n:
            raise ValueError("generator index %d out of range 1..%d"
                             % (idx, n))
        i = idx - 1
        if kind == "x":
            elem = elem * grouprep.x_(i, _parse_fraction(t))
        elif kind == "y":
            elem = elem * grouprep.y_(i, _parse_fraction(t))
        elif kind == "s":
            elem = elem * grouprep.sdot(i)
        else:
            elem = elem * grouprep.sdot_inv(i)
    return elem


def _parse_cox_point(text, n):
    halves = text.split(";")
    if len(halves) != 2:
        raise ValueError('point must look like "x1,...,xn;y1,...,yn"')
    x, y = (_sized(_parse_fractions(half), n, "--point") for half in halves)
    return toric.cox_point(x, y)


# ---------------------------------------------------------------------------
# serializers


def _matrix_json(mat):
    return [[_render(v) for v in row] for row in mat]


def _module_matrices(type_name, weight_text):
    ws = grouprep.Workspace(rootdata.datum_from_name(type_name))
    weight = _parse_int_weight(ws.datum, weight_text, "--weight")
    rep = ws.rep(weight)
    mod = rep.module
    n = ws.datum.n
    out = {
        "type": type_name,
        "weight": [int(v) for v in weight],
        "dimension": mod.dimension,
        "weights": [[str(c) for c in w] for w in mod.weights],
        "gram": _matrix_json(mod.gram),
        "e": [_matrix_json(mod.e_dense(i)) for i in range(n)],
        "f": [_matrix_json(mod.f_dense(i)) for i in range(n)],
        "h": [[_render(v) for v in mod.act_h_diag(i)] for i in range(n)],
    }
    return out


def _facelattice_json(type_name, poly, lattice):
    faces = []
    for (K, J) in sorted(lattice.faces):
        f = lattice.faces[(K, J)]
        faces.append({
            "K": [i + 1 for i in K],
            "J": [i + 1 for i in J],
            "dim": f.dim,
            "vertices": [[_render(c) for c in poly.vertices[j2]]
                         for j2 in f.vertex_js],
        })
    return {"type": type_name,
            "lambda": [_render(v) for v in poly.lam],
            "faces": faces}


def _off_text(poly, lattice):
    n = poly.datum.n
    order = sorted(poly.vertices)
    index = {j: k for k, j in enumerate(order)}
    facets = sorted((label for label, f in lattice.faces.items()
                     if f.dim == n - 1))
    edges = [f for f in lattice.faces.values() if f.dim == 1]
    lines = []
    if n == 3:
        lines.append("OFF")
    else:
        lines.append("nOFF")
        lines.append(str(n))
    lines.append("%d %d %d" % (len(order), len(facets), len(edges)))
    for j in order:
        lines.append(" ".join("%.12f" % float(c) for c in poly.vertices[j]))
    for label in facets:
        vjs = lattice.faces[label].vertex_js
        idx = sorted(index[v] for v in vjs)
        lines.append(" ".join([str(len(idx))] + [str(k) for k in idx]))
    return "\n".join(lines) + "\n"


def _output(path):
    """The file at path opened for writing, or stdout if there is none."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _write_or_print(text, path):
    with _output(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_rootdata_show(args):
    datum = rootdata.datum_from_name(args.type)
    entry = rootdata.CATALOG[args.type]
    if args.json:
        sys.stdout.write(_dumps({"name": args.type,
                                 "cartan": [list(r) for r in entry]}))
        return 0
    print("type:", args.type)
    print("rank:", datum.n)
    print("ordering:", rootdata.ORDERING)
    print("cartan:", [list(r) for r in entry])
    print("positive roots (%d):" % len(datum.positive_roots))
    for r in datum.positive_roots:
        print("  ", r)
    print("exponents m_i:", list(rootdata.fundamental_exponents(datum)))
    w0 = rootdata.longest_element(datum, range(datum.n))
    print("longest element word (1-indexed):",
          [i + 1 for i in w0.word])
    return 0


def cmd_liealg_dump(args):
    data = _module_matrices(args.type, args.weight)
    _write_or_print(_dumps(data), getattr(args, "out", None))
    return 0


def cmd_group_eval(args):
    datum = rootdata.datum_from_name(args.type)
    ws = grouprep.Workspace(datum)
    g = _parse_word(args.word, datum.n)
    if args.module == "adjoint":
        rep = ws.adjoint_rep()
        module_name = "adjoint"
    else:
        weight = _parse_int_weight(datum, args.module, "--module")
        rep = ws.rep(weight)
        module_name = ",".join(str(v) for v in weight)
    mat = g.matrix(rep)
    if args.json:
        sys.stdout.write(_dumps({
            "type": args.type,
            "word": args.word,
            "module": module_name,
            "dimension": rep.dim,
            "matrix": _matrix_json(mat),
        }))
        return 0
    print("matrix of %r on module %s (dim %d):"
          % (args.word, module_name, rep.dim))
    for row in mat:
        print("  [" + ", ".join(_render(v) for v in row) + "]")
    return 0


def cmd_psi_map(args):
    datum = rootdata.datum_from_name(args.type)
    ws = grouprep.Workspace(datum)
    J = _parse_indices(args.J, datum.n)
    coords = _parse_fractions(args.coords)
    p = peterson.make_point(ws, J, coords)
    xs, ys = peterson.minor_vector(ws, p)
    K, _ = peterson.classify_stratum(J, xs)
    out = {
        "type": args.type,
        "J": [i + 1 for i in J],
        "coords": [_render(c) for c in p.coords],
        "x": [_render(v) for v in xs],
        "y": [_render(v) for v in ys],
        "stratum": {"K": [i + 1 for i in K], "J": [i + 1 for i in J]},
        "nonnegative": all(v >= 0 for v in xs),
    }
    if args.json:
        sys.stdout.write(_dumps(out))
        return 0
    print("psi = [%s ; %s]" % (", ".join(out["x"]), ", ".join(out["y"])))
    print("stratum (K, J) =", (out["stratum"]["K"], out["stratum"]["J"]))
    if not out["nonnegative"]:
        print("note: some minor is negative; the point is not TNN")
    return 0


def _built_polytope(args):
    """(poly, lattice) of P^lambda for --type and --lambda."""
    datum = rootdata.datum_from_name(args.type)
    return polytope.build_polytope(datum, _parse_lambda(datum, args.lam))


def cmd_polytope_build(args):
    poly, lattice = _built_polytope(args)
    if args.off:
        _write_or_print(_off_text(poly, lattice), args.off)
    if args.json:
        sys.stdout.write(_dumps(_facelattice_json(args.type, poly, lattice)))
        return 0
    if not args.off:
        print("P^lambda for %s, lambda = %s" % (args.type, list(poly.lam)))
        print("vertices (%d):" % len(poly.vertices))
        for J in sorted(poly.vertices):
            print("  J=%s: %s" % ([i + 1 for i in J],
                                  [_render(v) for v in poly.vertices[J]]))
        print("faces: %d (an n-cube has 3^n)" % len(lattice.faces))
        ok, _ = polytope.cube_check(lattice)
        print("cube isomorphism:", ok)
    return 0


def _float_root(v, d):
    """The float nearest v^(1/d), v > 0: the integer root of v 2^(s d), of
    56 bits or more, plus a sticky bit if inexact, rounded once."""
    s = 56 - (v.numerator.bit_length() - v.denominator.bit_length()) // d
    q, rem = divmod(*(v * Fraction(2) ** (s * d)).as_integer_ratio())
    r = 1 << -(-q.bit_length() // d)        # Newton from above the root
    while (nxt := ((d - 1) * r + q // r ** (d - 1)) // d) < r:
        r = nxt
    sticky = bool(rem) or r ** d != q
    return float(Fraction(2 * r + sticky) / Fraction(2) ** (s + 1))


def cmd_toric_canon(args):
    datum = rootdata.datum_from_name(args.type)
    p = _parse_cox_point(args.point, datum.n)
    c = toric.canonicalize(datum, p)
    K, J = c.label
    free = {}
    for i, v in c.free:
        try:
            free[str(i + 1)] = "%.12f" % _float_root(v, c.power)
        except OverflowError:
            log_x = (math.log(v.numerator) - math.log(v.denominator)) / c.power
            raise ValueError("canonical coordinate x_%d = e^%.1f is beyond "
                             "the float range" % (i + 1, log_x)) from None
    out = {
        "type": args.type,
        "K": [i + 1 for i in K],
        "J": [i + 1 for i in J],
        "free": free,
    }
    if args.json:
        sys.stdout.write(_dumps(out))
        return 0
    print("stratum (K, J) = (%s, %s)" % (out["K"], out["J"]))
    print("free coordinates:", out["free"])
    return 0


def cmd_toric_moment(args):
    poly, _ = _built_polytope(args)
    p = _parse_cox_point(args.point, poly.datum.n)
    data = toric.moment_data(poly)
    # each coordinate as the correctly rounded quotient of two integers,
    # with no gcd of the large sums
    sums, den = toric.moment_sums(p, data)
    out = {
        "type": args.type,
        "lambda": [_render(v) for v in poly.lam],
        "dilate": data.dilate,
        "moment": ["%.12f" % (v / den) for v in sums],
    }
    if args.json:
        sys.stdout.write(_dumps(out))
        return 0
    print("moment image:", out["moment"])
    print("lattice dilate N:", data.dilate)
    return 0


def cmd_verify(args):
    # the report is opened first: an unwritable path fails before the run
    with _output(args.report) as fh:
        report = verify.run_suite(args.suite, args.type,
                                  seed=args.seed, samples=args.samples)
        fh.write(_dumps(report.to_dict()))
    if args.report:
        print("suite %s: %d cases, %d failures (seed %d) -> %s"
              % (report.suite, report.cases, len(report.failures),
                 report.seed, args.report))
    return 0 if not report.failures else 1


def cmd_export(args):
    kind = args.kind
    if kind == "off":
        if not (args.type and args.lam):
            raise ValueError("export off needs --type and --lambda")
        _write_or_print(_off_text(*_built_polytope(args)), args.out)
        return 0
    if kind == "facelattice-json":
        if not (args.type and args.lam):
            raise ValueError("export facelattice-json needs --type and "
                             "--lambda")
        _write_or_print(_dumps(_facelattice_json(
            args.type, *_built_polytope(args))), args.out)
        return 0
    if kind == "report-json":
        if not args.suite:
            raise ValueError("export report-json needs --suite")
        with _output(args.out) as fh:
            report = verify.run_suite(args.suite, args.type,
                                      seed=args.seed, samples=args.samples)
            fh.write(_dumps(report.to_dict()))
        return 0 if not report.failures else 1
    if kind == "matrices-json":
        if not (args.type and args.weight):
            raise ValueError("export matrices-json needs --type and "
                             "--weight")
        _write_or_print(_dumps(_module_matrices(args.type, args.weight)),
                        args.out)
        return 0
    raise ValueError("unknown export kind %r" % kind)


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(
        prog="petersonlab",
        description="Verification laboratory for nonnegative Peterson "
                    "cells, weight polytopes and their toric models.")
    sub = p.add_subparsers(dest="command", required=True)

    rd = sub.add_parser("rootdata", help="root-datum catalog")
    rdsub = rd.add_subparsers(dest="subcommand", required=True)
    show = rdsub.add_parser("show", help="show a catalog entry")
    show.add_argument("--type", required=True)
    show.add_argument("--json", action="store_true")
    show.set_defaults(func=cmd_rootdata_show)

    la = sub.add_parser("liealg", help="highest-weight modules")
    lasub = la.add_subparsers(dest="subcommand", required=True)
    dump = lasub.add_parser("dump", help="dump module action matrices")
    dump.add_argument("--type", required=True)
    dump.add_argument("--weight", required=True,
                      help="dominant weight, e.g. 1,0")
    dump.add_argument("--out", default=None)
    dump.set_defaults(func=cmd_liealg_dump)

    gr = sub.add_parser("group", help="group-element evaluation")
    grsub = gr.add_subparsers(dest="subcommand", required=True)
    ev = grsub.add_parser("eval", help="evaluate a word on a module")
    ev.add_argument("--type", required=True)
    ev.add_argument("--word", required=True,
                    help='e.g. "x1(3) s2 y1(1/2)" (1-indexed)')
    ev.add_argument("--module", default="adjoint",
                    help='"adjoint" or a dominant weight like 1,0')
    ev.add_argument("--json", action="store_true")
    ev.set_defaults(func=cmd_group_eval)

    ps = sub.add_parser("psi", help="the minor map on Peterson points")
    pssub = ps.add_subparsers(dest="subcommand", required=True)
    mp = pssub.add_parser("map", help="evaluate the minor map")
    mp.add_argument("--type", required=True)
    mp.add_argument("--J", required=True,
                    help="1-indexed node subset, e.g. 1,2")
    mp.add_argument("--coords", required=True,
                    help="rational coordinates, e.g. 1,1")
    mp.add_argument("--json", action="store_true")
    mp.set_defaults(func=cmd_psi_map)

    po = sub.add_parser("polytope", help="weight polytope and fan")
    posub = po.add_subparsers(dest="subcommand", required=True)
    bd = posub.add_parser("build", help="build P^lambda")
    bd.add_argument("--type", required=True)
    bd.add_argument("--lambda", dest="lam", required=True,
                    help="regular dominant weight, e.g. 1,1")
    bd.add_argument("--off", default=None, help="write OFF file here")
    bd.add_argument("--json", action="store_true")
    bd.set_defaults(func=cmd_polytope_build)

    to = sub.add_parser("toric", help="nonnegative toric coordinates")
    tosub = to.add_subparsers(dest="subcommand", required=True)
    cn = tosub.add_parser("canon", help="canonical orbit representative")
    cn.add_argument("--type", required=True)
    cn.add_argument("--point", required=True,
                    help='Cox point "x1,..,xn;y1,..,yn"')
    cn.add_argument("--json", action="store_true")
    cn.set_defaults(func=cmd_toric_canon)
    mo = tosub.add_parser("moment", help="moment-map image")
    mo.add_argument("--type", required=True)
    mo.add_argument("--lambda", dest="lam", required=True)
    mo.add_argument("--point", required=True)
    mo.add_argument("--json", action="store_true")
    mo.set_defaults(func=cmd_toric_moment)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("suite", choices=list(verify.SUITE_NAMES))
    vf.add_argument("--type", default=None)
    vf.add_argument("--samples", type=int, default=None)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--report", default=None,
                    help="write the JSON report to this path")
    vf.set_defaults(func=cmd_verify)

    ex = sub.add_parser("export", help="machine-readable exports")
    ex.add_argument("kind", choices=["off", "facelattice-json",
                                     "report-json", "matrices-json"])
    ex.add_argument("--type", default=None)
    ex.add_argument("--lambda", dest="lam", default=None)
    ex.add_argument("--weight", default=None)
    ex.add_argument("--suite", default=None)
    ex.add_argument("--samples", type=int, default=None)
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--out", default=None)
    ex.set_defaults(func=cmd_export)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        if "integer string conversion" in str(exc):
            # the interpreter's advice names a setting the CLI does not offer
            exc = ("a number has more than %d digits, the most this command "
                   "reads or prints" % sys.get_int_max_str_digits())
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
