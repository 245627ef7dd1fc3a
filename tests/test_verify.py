from fractions import Fraction
import functools
import hashlib
import json

import pytest

from petersonlab import grouprep, polytope, rootdata, verify


def test_unknown_suite_and_type():
    with pytest.raises(ValueError):
        verify.run_suite("nosuchsuite", "A1")
    with pytest.raises(ValueError):
        verify.run_suite("lemma53", "E8")


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


def test_each_suite_passes_on_a_small_type():
    picks = {
        "lemma53": "A2", "prop44": "A2", "prop35": "B2", "cube": "A2",
        "normalfan": "B2", "psi-strata": "A2", "splitting": "A1xA1",
        "prop76": "A1", "theorem59": "A1", "moment-cells": "G2",
    }
    for suite, typ in picks.items():
        rep = verify.run_suite(suite, typ, seed=3, samples=4)
        assert rep.failures == [], (suite, rep.failures[:2])
        assert rep.cases > 0


def test_all_suite_merges():
    rep = verify.run_suite("all", "A1", seed=1, samples=3)
    assert rep.suite == "all"
    assert rep.failures == []
    assert rep.cases > 50


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
    }
    got = {}
    for suite, typ in pinned:
        rep = verify.run_suite(suite, typ, seed=3, samples=4)
        text = json.dumps(rep.to_dict(), sort_keys=True)
        got[suite, typ] = hashlib.sha256(text.encode()).hexdigest()
    assert got == pinned


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

    def counted(rep, word, vecs):
        words.append(word)
        return apply_word(rep, word, vecs)
    monkeypatch.setattr(grouprep.Rep, "apply_word", counted)
    cases = list(verify.suite_prop44("A2", 8, 0))   # 2 samples per J
    assert len(cases) == 8 and all(case[0] for case in cases)
    assert len(words) == 8 * 2
    assert not [tok for word in words for tok in word if tok[0] != 'x']


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
