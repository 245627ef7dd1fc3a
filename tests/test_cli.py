from fractions import Fraction
import hashlib
import json
import os
import subprocess
import sys

import pytest

import petersonlab
from petersonlab import cli

F = Fraction


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rootdata_show_json(capsys):
    code, out, _ = run(capsys, "rootdata", "show", "--type", "B2", "--json")
    assert code == 0
    assert json.loads(out) == {"name": "B2", "cartan": [[2, -1], [-2, 2]]}


def test_rootdata_show_unknown_type(capsys):
    code, _, err = run(capsys, "rootdata", "show", "--type", "E8")
    assert code == 2
    assert "unknown type" in err


def test_liealg_dump(capsys):
    code, out, _ = run(capsys, "liealg", "dump", "--type", "A2",
                       "--weight", "1,0")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 3
    assert len(data["e"]) == 2
    assert data["e"][0][0][1] == "1"


def test_group_eval(capsys):
    code, out, _ = run(capsys, "group", "eval", "--type", "A2",
                       "--word", "x1(3) s2 y1(1/2)",
                       "--module", "adjoint", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 8
    assert len(data["matrix"]) == 8


def test_group_eval_bad_word(capsys):
    code, _, err = run(capsys, "group", "eval", "--type", "A2",
                       "--word", "z1(3)")
    assert code == 2
    assert "cannot parse" in err


def test_group_eval_sl2_reflection(capsys):
    code, out, _ = run(capsys, "group", "eval", "--type", "A1",
                       "--word", "s1", "--module", "1", "--json")
    assert code == 0
    assert json.loads(out)["matrix"] == [["0", "-1"], ["1", "0"]]


def test_psi_map(capsys):
    code, out, _ = run(capsys, "psi", "map", "--type", "A1",
                       "--J", "1", "--coords", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["x"] == ["3"] and data["y"] == ["1"]
    assert data["stratum"] == {"K": [], "J": [1]}


def test_psi_map_empty_J(capsys):
    """J = () takes the empty coordinate list: its one point is the
    identity, with every Delta_i = 1 and every q_i = 0."""
    code, out, _ = run(capsys, "psi", "map", "--type", "A2", "--J", "",
                       "--coords", "")
    assert code == 0
    assert out.splitlines() == ["psi = [1, 1 ; 0, 0]",
                                "stratum (K, J) = ([], [])"]


@pytest.mark.parametrize("argv", [
    ["group", "eval", "--type", "A2", "--word", "x1(1e999999999)"],
    ["psi", "map", "--type", "A2", "--J", "1", "--coords", "1e-999999999"],
    ["toric", "canon", "--type", "A2", "--point", "1,1;1E999999999,1"],
    ["polytope", "build", "--type", "A2", "--lambda", "1,1e999999999"],
])
def test_huge_decimal_exponent_usage_error(argv):
    """A literal whose decimal exponent exceeds the interpreter's integer
    string limit exits 2 with one line at once; Fraction alone would build
    10**999999999 first.  The subprocess's timeout fails a hang here."""
    src = os.path.dirname(os.path.dirname(petersonlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "petersonlab.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "exponent" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("psi", "map", "--type", "A2", "--J", "1", "--coords", "1e4300"),
    ("polytope", "build", "--type", "A2", "--lambda", "1,1e4300"),
])
def test_result_over_the_digit_limit_usage_error(capsys, argv):
    """A valid input whose result has more digits than the interpreter
    prints exits 2 with one line that names the limit, not the advice to
    change an interpreter setting."""
    code, out, err = run(capsys, *argv)
    limit = sys.get_int_max_str_digits()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and str(limit) in err
    assert "set_int_max_str_digits" not in err


def test_large_decimal_exponents_stay_valid(capsys):
    """Exponents within the limit still parse exactly, in a word as in a
    coordinate list."""
    texts = ("1e400", "1e-400", "3000001e-326")
    want = (F(10) ** 400, F(10) ** -400, F(3000001, 10 ** 326))
    assert cli._parse_fractions(",".join(texts)) == want
    for text, value in zip(texts, want):
        code, out, _ = run(capsys, "group", "eval", "--type", "A1",
                           "--word", "x1(%s)" % text, "--module", "1",
                           "--json")
        assert code == 0
        assert json.loads(out)["matrix"][0][1] == str(value)


def test_polytope_build_off_and_json(tmp_path, capsys):
    off = tmp_path / "out.off"
    code, _, _ = run(capsys, "polytope", "build", "--type", "G2",
                     "--lambda", "1,1", "--off", str(off))
    assert code == 0
    text = off.read_text()
    assert text.startswith("nOFF\n2\n4 4 4\n")
    code, out, _ = run(capsys, "polytope", "build", "--type", "G2",
                       "--lambda", "1,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["faces"]) == 9


@pytest.mark.parametrize("argv", [
    ("polytope", "build", "--type", "B2", "--lambda", "1,1", "--off", "F",
     "--json"),
    ("export", "off", "--type", "B2", "--lambda", "1,1", "--out", "F"),
    ("export", "facelattice-json", "--type", "B2", "--lambda", "1,1",
     "--out", "F"),
])
def test_polytope_built_once_per_command(tmp_path, capsys, monkeypatch,
                                         argv):
    calls = []
    build = cli.polytope.build_polytope

    def counted(datum, lam):
        calls.append(lam)
        return build(datum, lam)
    monkeypatch.setattr(cli.polytope, "build_polytope", counted)
    argv = [str(tmp_path / a) if a == "F" else a for a in argv]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_toric_canon(capsys):
    code, out, _ = run(capsys, "toric", "canon", "--type", "A2",
                       "--point", "0,3;2,5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["K"] == [1] and data["J"] == [1, 2]


def test_toric_moment(capsys):
    code, out, _ = run(capsys, "toric", "moment", "--type", "B2",
                       "--lambda", "1,1", "--point", "1,1;1,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dilate"] == 2
    assert len(data["moment"]) == 2


def test_toric_moment_extreme_coordinate(capsys):
    """A coordinate near the float range weighs the characters without
    overflow; the image tends to the face where x_1 dominates."""
    code, out, err = run(capsys, "toric", "moment", "--type", "A2",
                         "--lambda", "1,1", "--point", "1e300,1;1,1",
                         "--json")
    assert code == 0, err
    assert json.loads(out)["moment"] == ["1.500000000000", "0.000000000000"]


def test_toric_moment_huge_lambda_usage_error(capsys):
    """lambda = (1, 1e300) needs character exponents near 10^300: exit 2
    with one line naming the cap, not a run without end."""
    code, out, err = run(capsys, "toric", "moment", "--type", "A2",
                         "--lambda", "1,1e300", "--point", "1,1;1,1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "cap %d" % cli.toric.EXPONENT_CAP in err


def test_toric_canon_extreme_coordinates(capsys):
    """Rescaling y_2 = 1e300 by x_1 = 1e300 passes 1e600: the torus action
    is exact, so x_2 = 1e300 * 1e-300 = 1 comes out exactly where a float
    product would overflow to inf and give x_2 = 0."""
    code, out, err = run(capsys, "toric", "canon", "--type", "A2",
                         "--point", "1e300,1e300;0,1e300", "--json")
    assert code == 0, err
    data = json.loads(out)
    assert data["K"] == [] and data["J"] == [2]
    assert data["free"] == {"2": "1.000000000000"}


def test_toric_canon_coordinate_beyond_float_range(capsys):
    """x_1 = e^736.8 has a finite logarithm but no float: exit 2 with one
    line, not an OverflowError traceback."""
    code, out, err = run(capsys, "toric", "canon", "--type", "A2",
                         "--point", "1,1;1e-320,1e-320")
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert "float range" in err


def test_toric_canon_rescales_tiny_points_in_logarithms(capsys):
    """e^744.4 alone overflows, but x_1 = 1e-300 * e^744.4 = 2e23 fits:
    the canonical coordinate is printed from the logarithms of its exact
    cube 8e69, not from the float 5e-324, which is 4.94e-324."""
    code, out, err = run(capsys, "toric", "canon", "--type", "A2",
                         "--point", "1e-300,1e-300;5e-324,5e-324", "--json")
    assert code == 0, err
    free = json.loads(out)["free"]
    assert free.keys() == {"1", "2"}
    for v in free.values():
        assert float(v) == pytest.approx(2e23, rel=1e-12)


def test_toric_canon_prints_the_nearest_float(capsys):
    """The free coordinate is the float nearest its exact value 10^300,
    read off an integer root, not exp of a logarithm whose rounding error
    grows with its size."""
    code, out, err = run(capsys, "toric", "canon", "--type", "A2",
                         "--point", "1e300,1;1,1", "--json")
    assert code == 0, err
    free = json.loads(out)["free"]
    assert float(free["1"]) == 1e300 and free["2"] == "1.000000000000"


@pytest.mark.parametrize("argv, coordinate", [
    pytest.param(("toric", "canon", "--type", "A2", "--point", "1e400,1;1,1"),
                 "x_1", id="argv1-x_1"),
])
def test_toric_input_beyond_float_range_usage_error(capsys, argv,
                                                    coordinate):
    """A canonical coordinate with no float exits 2 with one line naming
    it, not an OverflowError traceback."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and coordinate in err
    assert "float range" in err


@pytest.mark.parametrize("argv, key, want", [
    (("toric", "moment", "--type", "A1", "--lambda", "1",
      "--point", "1e400;1"), "moment", ["1.000000000000"]),
    (("toric", "canon", "--type", "A2", "--point", "1,1;1e400,1"), "free",
     {"1": "0.000000000000", "2": "0.000000000000"}),
], ids=["moment-x_1", "canon-y_1"])
def test_toric_input_beyond_float_range_is_exact(capsys, argv, key, want):
    """A Cox coordinate with no float is read exactly: the moment image
    of [1e400; 1] is the vertex lambda, and y_1 = 1e400 gives canonical
    coordinates near 1e-267 and 1e-133, which print as 0."""
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    assert json.loads(out)[key] == want


def test_verify_pass_and_report_file(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out, _ = run(capsys, "verify", "lemma53", "--type", "A1",
                       "--samples", "5", "--seed", "7",
                       "--report", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["suite"] == "lemma53"
    assert data["seed"] == 7
    assert data["failures"] == []
    assert "seed 7" in out


def test_verify_stdout_default_seed(capsys):
    code, out, _ = run(capsys, "verify", "theorem59", "--type", "A1")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 0
    assert data["ordering"] == "bourbaki"


def test_verify_report_same_under_python_O(tmp_path, capsys):
    """`python -O` strips asserts; the explicit checks still run there
    and the report is unchanged."""
    args = ["verify", "lemma53", "--type", "A2", "--samples", "3"]
    normal = tmp_path / "normal.json"
    code, _, _ = run(capsys, *args, "--report", str(normal))
    assert code == 0
    optimized = tmp_path / "optimized.json"
    src = os.path.dirname(os.path.dirname(petersonlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "petersonlab.cli", *args,
         "--report", str(optimized)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(optimized.read_text()) == json.loads(normal.read_text())


def test_verify_theorem59_outside_a1_a2_usage_error(capsys):
    """theorem59 certifies nothing on G2, so it runs no case there."""
    code, out, err = run(capsys, "verify", "theorem59", "--type", "G2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "A1" in err and "A2" in err


def test_verify_prop76_over_the_dimension_cap_usage_error(capsys,
                                                         monkeypatch):
    """prop76 on A4 needs V(5 w_2), of dimension 1176: it exits 2 with one
    line before it builds any module."""
    calls = []
    monkeypatch.setattr(cli.verify.liealg, "_build_irreducible",
                        lambda *a: calls.append(a))
    code, out, err = run(capsys, "verify", "prop76", "--type", "A4")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "A4" in err and "1176" in err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["verify", "lemma53", "--type", "A2"],
    ["verify", "splitting"],
    ["verify", "prop44", "--type", "A2"],
    ["export", "report-json", "--suite", "moment-cells", "--type", "A1"],
])
def test_negative_samples_usage_error(capsys, argv):
    """A negative sample count runs no suite: it exits 2 with one line."""
    code, out, err = run(capsys, *argv, "--samples", "-3")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "negative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "lemma53", "--type", "A2"],
    ["export", "report-json", "--suite", "splitting"],
])
def test_zero_samples_usage_error(capsys, argv):
    """A zero sample count would check nothing and pass: it runs no suite
    and exits 2 with one line."""
    code, out, err = run(capsys, *argv, "--samples", "0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuchsuite"])
    assert exc.value.code == 2


def test_export_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.off", tmp_path / "b.off"
    for path in (a, b):
        code, _, _ = run(capsys, "export", "off", "--type", "B2",
                         "--lambda", "1,1", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.json", tmp_path / "d.json"
    for path in (c, d):
        code, _, _ = run(capsys, "export", "report-json", "--suite",
                         "theorem59", "--type", "A1", "--out", str(path))
        assert code == 0
    assert c.read_bytes() == d.read_bytes()


def test_export_facelattice_and_matrices(tmp_path, capsys):
    fl = tmp_path / "fl.json"
    code, _, _ = run(capsys, "export", "facelattice-json", "--type", "A2",
                     "--lambda", "2,1", "--out", str(fl))
    assert code == 0
    data = json.loads(fl.read_text())
    assert len(data["faces"]) == 9
    mj = tmp_path / "m.json"
    code, _, _ = run(capsys, "export", "matrices-json", "--type", "A1",
                     "--weight", "2", "--out", str(mj))
    assert code == 0
    assert json.loads(mj.read_text())["dimension"] == 3


def test_module_exports_are_pinned(capsys):
    """The `export matrices-json` bytes of six modules, pinned: a change to
    a module's basis, actions or contravariant form shows here, in
    tier-1."""
    pinned = {
        ("A1", "2"): "33d3c0742d70add5af75102581813805"
                     "79035877a477cc3f58e2dd250a633f81",
        ("B2", "1,1"): "30254365bdc692431b91af40f39fa437"
                       "dbd9ce1348d150ac52e2b01e942e138c",
        ("G2", "1,0"): "7b08970bbcd87c4c348e934468f32de6"
                       "f6280782b6c644c7163d47c2877531d8",
        ("C3", "0,0,1"): "04cced1b6d84b620a9762c93e88cca21"
                         "6c966d98bccfa984dbd2b86cd4af96dd",
        ("D4", "0,1,0,0"): "fc8469adcc506d4f2bd4af972c4be853"
                           "b8b5fba6f9e21ce1f2c2573282098c2c",
        ("A2", "2,1"): "3c94ed97852898d735572cf58af7b651"
                       "440a58be41c5867e9acdd1a49414c0c4",
    }
    got = {}
    for typ, weight in pinned:
        code, out, _ = run(capsys, "export", "matrices-json", "--type", typ,
                           "--weight", weight)
        assert code == 0
        got[typ, weight] = hashlib.sha256(out.encode()).hexdigest()
    assert got == pinned


def test_export_missing_args_usage_error(capsys):
    code, _, err = run(capsys, "export", "off", "--type", "B2")
    assert code == 2
    assert "needs" in err


@pytest.mark.parametrize("argv", [
    ("polytope", "build", "--type", "A2", "--lambda", "1"),
    ("toric", "moment", "--type", "A2", "--lambda", "1,1", "--point", "1;1"),
    ("liealg", "dump", "--type", "A2", "--weight", "1"),
    ("group", "eval", "--type", "A2", "--word", "x1(1)", "--module", "1"),
    ("export", "off", "--type", "A2", "--lambda", "1"),
])
def test_coordinate_count_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "needs 2 coordinates" in err


@pytest.mark.parametrize("argv", [
    ("export", "off", "--type", "A2", "--lambda", "1,1", "--out", "F"),
    ("verify", "lemma53", "--type", "A1", "--samples", "1", "--report", "F"),
    ("liealg", "dump", "--type", "A1", "--weight", "1", "--out", "F"),
    ("polytope", "build", "--type", "A1", "--lambda", "1", "--off", "F"),
])
def test_unwritable_output_path_usage_error(tmp_path, capsys, argv):
    """An output path in a missing directory is a usage error (exit 2, one
    line), not a traceback under the code kept for verification
    failures."""
    path = str(tmp_path / "missing" / "x")
    code, _, err = run(capsys, *[path if a == "F" else a for a in argv])
    assert code == 2
    assert err.count("\n") == 1 and "missing" in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ("verify", "prop35", "--report", "F"),
    ("export", "report-json", "--suite", "prop35", "--out", "F"),
])
def test_unwritable_report_path_fails_before_the_suite_runs(
        tmp_path, capsys, monkeypatch, argv):
    """The report path is opened first: an unwritable one exits 2 with one
    line and runs no suite."""
    calls = []
    monkeypatch.setattr(cli.verify, "run_suite",
                        lambda *a, **k: calls.append(a))
    path = str(tmp_path / "missing" / "x")
    code, out, err = run(capsys, *[path if a == "F" else a for a in argv])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "missing" in err
    assert calls == []


def test_verify_psi_strata_does_not_load_numpy():
    """psi-strata canonicalizes Cox points with the exact linalg.solve: a
    fresh interpreter runs it without importing numpy."""
    script = ("import sys\n"
              "from petersonlab import cli\n"
              "code = cli.main(['verify', 'psi-strata', '--type', 'A2'])\n"
              "print(code, 'numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(petersonlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_verify_cube_loads_neither_numpy_nor_scipy():
    """The hull oracle enumerates facets and vertices exactly in integers:
    a fresh interpreter certifies the cube claim on the standard library
    alone."""
    script = ("import sys\n"
              "from petersonlab import cli\n"
              "code = cli.main(['verify', 'cube', '--type', 'A2'])\n"
              "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(petersonlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "False", "False"]
