import pytest

from petersonlab import verify


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
    ran = []
    suite = verify._SUITE_FUNCS["theorem59"]

    def recorded(type_name, samples, seed):
        ran.append(type_name)
        return suite(type_name, samples, seed)
    monkeypatch.setitem(verify._SUITE_FUNCS, "theorem59", recorded)
    rep = verify.run_suite("all", "G2", seed=1, samples=1)
    assert rep.failures == [] and ran == []
    verify.run_suite("all", "A1", seed=1, samples=1)
    assert ran == ["A1"]
