from fractions import Fraction
import functools
import hashlib
import json
import os
import runpy

import pytest

from petersonlab import (grouprep, peterson, polytope, rootdata, toric,
                         verify)


def test_unknown_suite_and_type():
    with pytest.raises(ValueError):
        verify.run_suite("nosuchsuite", "A1")
    with pytest.raises(ValueError):
        verify.run_suite("lemma53", "E8")


@pytest.mark.parametrize("args", [
    ("nosuchsuite", "A1", None), ("lemma53", "E8", None),
    ("all", "E8", 1), ("theorem59", "A3", None), ("theorem59", "A1", 3),
    ("prop76", "A4", None), ("lemma53", "A1", 0), ("all", None, -1),
])
def test_check_suite_refuses_as_run_suite_does(args, monkeypatch):
    """check_suite raises the error that run_suite refuses with, and runs
    no suite to find it."""
    name, type_name, samples = args
    with pytest.raises(ValueError) as want:
        verify.run_suite(name, type_name, samples=samples)
    monkeypatch.setattr(verify, "SUITES", {
        k: (None, d, types) for k, (_, d, types) in verify.SUITES.items()})
    with pytest.raises(ValueError) as got:
        verify.check_suite(name, type_name, samples)
    assert str(got.value) == str(want.value)
    assert verify.check_suite("lemma53", "A1", 2) is None


def test_report_fields_and_determinism():
    a = verify.run_suite("lemma53", "A2", seed=7, samples=5)
    b = verify.run_suite("lemma53", "A2", seed=7, samples=5)
    assert a.to_dict() == b.to_dict()
    d = a.to_dict()
    assert d["suite"] == "lemma53"
    assert d["type_name"] == "A2"
    assert d["seed"] == 7
    assert d["cases"] == a.cases > 0
    assert d["failures"] == []
    assert d["ordering"] == "bourbaki"


def test_failures_recorded_with_context():
    rep = verify.VerificationReport("demo", "A1", 0)
    rep.check(False, "input-x", "want", "got", "claim text")
    assert rep.cases == 1
    assert rep.failures == [{"input": "input-x", "expected": "want",
                             "got": "got", "claim": "claim text"}]


def _samples(suite, count):
    """count for a suite that samples, None for one that takes none."""
    return None if verify.SUITES[suite][1] is None else count


def test_each_suite_passes_on_a_small_type():
    picks = {
        "lemma53": "A2", "prop44": "A2", "prop35": "B2", "cube": "A2",
        "normalfan": "B2", "psi-strata": "A2", "splitting": "A1xA1",
        "prop76": "A1", "theorem59": "A1", "moment-cells": "G2",
    }
    for suite, typ in picks.items():
        rep = verify.run_suite(suite, typ, seed=3,
                               samples=_samples(suite, 4))
        assert rep.failures == [], (suite, rep.failures[:2])
        assert rep.cases > 0


def test_all_suite_merges():
    rep = verify.run_suite("all", "A1", seed=1, samples=3)
    assert rep.suite == "all"
    assert rep.failures == []
    assert rep.cases > 50


def test_all_hands_samples_only_to_suites_that_sample(monkeypatch):
    """`all` with a sample count runs each suite that samples nothing
    (cube, normalfan, theorem59) at its fixed cases: its runner is given
    no count, so the report is the one it gives alone."""
    counts = {}
    for suite, (runner, default, types) in verify.SUITES.items():
        def recorded(type_name, samples, seed, suite=suite, runner=runner):
            counts[suite] = samples
            return runner(type_name, samples, seed)
        monkeypatch.setitem(verify.SUITES, suite, (recorded, default, types))
    rep = verify.run_suite("all", "A1", seed=1, samples=3)
    assert rep.failures == []
    assert counts == {suite: None if default is None else 3
                      for suite, (_, default, _) in verify.SUITES.items()}


def test_all_leaves_theorem59_out_where_it_cannot_certify(monkeypatch):
    """`all` on a type leaves out each suite that cannot run there, and
    the suite alone refuses that type before it runs."""
    cases = [("theorem59", "G2", "A1"),
             ("prop76", "A4", "A1")]    # V(5 w_2) exceeds DIMENSION_CAP
    for suite, left_out, kept in cases:
        ran = []
        runner, count, types = verify.SUITES[suite]

        def recorded(type_name, samples, seed):
            ran.append(type_name)
            return runner(type_name, samples, seed)
        with monkeypatch.context() as m:
            m.setitem(verify.SUITES, suite, (recorded, count, types))
            rep = verify.run_suite("all", left_out, seed=1, samples=1)
            assert rep.failures == [] and ran == []
            with pytest.raises(ValueError):
                verify.run_suite(suite, left_out, seed=1, samples=1)
            assert ran == []
            verify.run_suite("all", kept, seed=1, samples=1)
            assert ran == [kept]


def test_psi_strata_canonicalizes_each_point_once(monkeypatch):
    """Each sampled point is canonicalized once, and the injectivity
    check compares the canonical forms already at hand."""
    calls = {"psi": 0, "canonicalize": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)
    counted(verify.peterson, "psi")
    counted(verify.toric, "canonicalize")
    rep = verify.run_suite("psi-strata", "A2", seed=0)
    assert rep.failures == [] and rep.cases > calls["psi"] > 0
    assert calls["canonicalize"] == calls["psi"]


def test_small_unit_reports_are_pinned():
    """The report bytes of each suite on its small type, pinned: a change
    to any report shows here, in tier-1.  A change that alters reports on
    purpose records the new digests."""
    pinned = {
        ("lemma53", "A2"): "92594ceb94633da8f7ff3edf59f04b2d"
                           "187dd25ea41ecf1827cf50bb012e35b0",
        ("prop44", "A2"): "758387ada9aecf8d4bbc2bc853d5bd65"
                          "d49337225d5171a62bf1a898b31eee43",
        ("prop35", "B2"): "082ebe7c5355aa482a93e2f61b028ca9"
                          "d9ffa98923da02a33d048565bddde440",
        ("cube", "A2"): "ba1ae317e89c4bd02f5c34bcb6c55094"
                        "6188550f3369f8860dc7787f26855014",
        ("normalfan", "B2"): "646bf5627f1d90e79e39e76f5594c29d"
                             "c7079438078c72d32e47adca8b168b3e",
        ("psi-strata", "A2"): "55485d49337e2fa733aa99bc98d96a29"
                              "9e510bab6a41bfc9aeee834500756375",
        ("splitting", "A1xA1"): "94d879d9d928e33eaa79674f67d082df"
                                "a26ec9bcee6f7909572615f945c93e42",
        ("prop76", "A1"): "21149d50998d0ca3e7c45d496a71f502"
                          "2bc717d3c357e7c5567325721ac92425",
        ("theorem59", "A1"): "6f415a1a8bdad4491d1b826312d902cd"
                             "d4c53395ea26f466b1a580a92c0a2bb6",
        ("theorem59", "A2"): "8b094f2bc3204e512e8833d438a535e5"
                             "44fe3b2b3cd9b95c42f57f921721f53d",
        ("moment-cells", "G2"): "6f97dde227607c38a99cf44405c9155c"
                                "72d3d57bde50a15589300c3284580aed",
        ("normalfan", "D4"): "9372629df5c2a941fcfe322bf846fa13"
                             "8523854b4768ac3d58971014cb2426b9",
        ("moment-cells", "B3"): "deab785d6a7a376a1368a902dfca12dd"
                                "63098e4146486609f2f9823d4c894e1e",
    }
    got = {}
    for suite, typ in pinned:
        rep = verify.run_suite(suite, typ, seed=3,
                               samples=_samples(suite, 4))
        text = json.dumps(rep.to_dict(), sort_keys=True)
        got[suite, typ] = hashlib.sha256(text.encode()).hexdigest()
    assert got == pinned


def test_moment_cells_reports_a_swapped_face(monkeypatch):
    """moment-cells compares each point's stratum (K, J) with the face its
    moment image reads: with that face read back swapped, as (J, K), every
    case whose K and J differ is a failure, and only those."""
    cases = list(verify.suite_moment_cells("B2", 20, 0))
    differ = sum(1 for case in cases[:-2] if case[2][0] != case[2][1])
    assert all(case[0] for case in cases) and differ
    face = toric.moment_face
    monkeypatch.setattr(toric, "moment_face", lambda sums: face(sums)[::-1])
    rep = verify.run_suite("moment-cells", "B2", seed=0, samples=20)
    assert rep.cases == len(cases) and len(rep.failures) == differ


def test_prop44_applies_only_the_sample(monkeypatch):
    """prop44 reads wdot(w_J) v_i from the Workspace entry
    extremal_vector and applies only the sample x_{i_1}(a_1)...
    x_{i_m}(a_m) to it: once those entries are built, each sample applies
    one word per fundamental rep, and no word holds an s token."""
    ws = grouprep.workspace(rootdata.datum_from_name("A2"))
    for J in rootdata.subsets(range(2)):
        for i in range(2):
            ws.extremal_vector(ws.fundamental_rep(i).module.highest_weight,
                               J)
    words = []
    apply_word = grouprep.Rep.apply_word

    def counted(rep, word, nums, den):
        words.append(word)
        return apply_word(rep, word, nums, den)
    monkeypatch.setattr(grouprep.Rep, "apply_word", counted)
    cases = list(verify.suite_prop44("A2", 8, 0))   # 2 samples per J
    assert len(cases) == 8 and all(case[0] for case in cases)
    assert len(words) == 8 * 2
    assert not [tok for word in words for tok in word if tok[0] != 'x']


def test_minor_readers_build_no_fraction_vector(monkeypatch):
    """The minor readers read the one coordinate they report off the
    kernel's integer vector: on a fresh Workspace cache, with
    GroupElement.apply made to raise, the suites that read minors and
    extremal vectors still run, and pass."""
    monkeypatch.setattr(grouprep, "workspace",
                        functools.lru_cache(maxsize=32)(grouprep.Workspace))

    def refused(g, rep, vec):
        raise AssertionError("GroupElement.apply called")
    monkeypatch.setattr(grouprep.GroupElement, "apply", refused)
    units = [(suite, typ) for suite in ("lemma53", "prop44", "prop35")
             for typ in ("A2", "B2")]
    units += [("psi-strata", "B2"), ("prop76", "B2")]
    for suite, typ in units:
        rep = verify.run_suite(suite, typ, seed=0, samples=2)
        assert rep.cases > 0 and rep.failures == [], (suite, typ)


def test_verify_all_builds_each_polytope_once(monkeypatch):
    """cube, normalfan and moment-cells read P^lambda from the Workspace:
    `verify all --type A2` builds it once per distinct lambda, on a fresh
    Workspace cache."""
    monkeypatch.setattr(grouprep, "workspace",
                        functools.lru_cache(maxsize=32)(grouprep.Workspace))
    lams = []
    build = polytope.build_polytope

    def counted(datum, lam):
        lams.append(tuple(lam))
        return build(datum, lam)
    monkeypatch.setattr(polytope, "build_polytope", counted)
    rep = verify.run_suite("all", "A2", seed=0, samples=1)
    assert rep.failures == []
    rho = (Fraction(1), Fraction(1))
    want = {rho} | set(verify._random_regular_lambdas(
        rootdata.datum_from_name("A2"), 5, 0))
    assert len(lams) == len(set(lams))
    assert set(lams) == want


def test_q_suites_read_the_stored_q_forms(monkeypatch):
    """lemma53, psi-strata and splitting read q off `ws.q_polynomials`:
    on A2 and B2 they make no ad-conjugation of e, and each q form is
    built once per (type, J), on a fresh Workspace cache."""
    monkeypatch.setattr(grouprep, "workspace",
                        functools.lru_cache(maxsize=32)(grouprep.Workspace))
    conjugations, builds = [], []
    conjugate, series = grouprep.ad_conjugate_e, grouprep._exp_series

    def counted_conjugate(g, ws):
        conjugations.append(g)
        return conjugate(g, ws)

    def counted_series(ws, J, rep, u, den, rows=None):
        if rep is ws.adjoint_rep():
            builds.append((ws.datum, J))
        return series(ws, J, rep, u, den, rows)
    monkeypatch.setattr(grouprep, "ad_conjugate_e", counted_conjugate)
    monkeypatch.setattr(grouprep, "_exp_series", counted_series)
    for suite in ("lemma53", "psi-strata", "splitting"):
        for typ in ("A2", "B2"):
            rep = verify.run_suite(suite, typ, seed=0, samples=8)
            assert rep.failures == [] and rep.cases > 0
    assert conjugations == []
    assert len(builds) == len(set(builds)) == 2 * 4


def test_psi_strata_evaluates_each_point_once(monkeypatch):
    """psi-strata hands the minors that sample_points computed on to psi:
    every `peterson.deltas` call is one of the sampler's."""
    calls = {"deltas": 0, "sampler": 0}
    deltas, sample_points = peterson.deltas, peterson.sample_points

    def counted_deltas(ws, p):
        calls["deltas"] += 1
        return deltas(ws, p)

    def counted_sampler(*args, **kwargs):
        before = calls["deltas"]
        out = sample_points(*args, **kwargs)
        calls["sampler"] += calls["deltas"] - before
        return out
    monkeypatch.setattr(peterson, "deltas", counted_deltas)
    monkeypatch.setattr(peterson, "sample_points", counted_sampler)
    rep = verify.run_suite("psi-strata", "A2", seed=0)
    assert rep.failures == [] and calls["deltas"] > 0
    assert calls["deltas"] == calls["sampler"]


def test_exact_minors_units_match_the_benchmark_reference():
    """Every unit of the benchmark's exact-minors workload, run in-process
    at reference seed 0, gives the (cases, report sha256) that
    perfbench/reference.json records: a change that alters one of these
    reports shows here, in tier-1.  The benchmark files are only read."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = os.path.join(root, "perfbench")
    samples = runpy.run_path(os.path.join(bench, "workloads.py"))[
        "WORKLOADS"]["exact-minors"]
    with open(os.path.join(bench, "reference.json")) as fh:
        want = json.load(fh)["units"]["exact-minors"]["0"]
    got = {}
    for suite, count in samples.items():
        for typ in verify._default_types(suite):
            rep = verify.run_suite(suite, typ, 0, count)
            text = json.dumps(rep.to_dict(), sort_keys=True)
            got["%s/%s" % (suite, typ)] = [
                rep.cases, hashlib.sha256(text.encode()).hexdigest()]
    assert got == want
