"""The three benchmark workloads: which suites of `petersonlab verify all`
each one runs, and at what per-pass sample count (None: the suite's
default, or a suite that takes none).

A unit is one (suite, type) pair, that is one `run_suite(suite, type, seed,
samples)` call.  The types of a suite are the ones `verify all` gives it
(`verify._default_types`), so the workloads together cover the units of
`verify all`, minus the two named in SKIPPED_UNITS.

This module imports nothing from the package, so that the parent process of
the benchmark stays small and can run where the package is absent.
"""

WORKLOADS = {
    # Exact Fraction token application (GroupElement.apply) dominates; no
    # polytope calls.  Samples are the `verify all` defaults divided by ten
    # (at least 1), so one pass takes a few seconds and keeps the suite mix.
    "exact-minors": {
        "lemma53": 5,
        "prop44": 20,
        "prop35": 5,
        "psi-strata": 5,
        "splitting": 5,
        "prop76": 1,
    },
    # Hull certification plus linalg elimination dominates; grouprep and
    # liealg do nothing.  cube and normalfan take no sample count;
    # moment-cells keeps its default.
    "hull-polytope": {
        "cube": None,
        "normalfan": None,
        "moment-cells": None,
    },
    # The float Newton path: theorem59 inverts a fixed 10 x 10 target grid
    # on A2 and takes no sample count, so the pass is the full suite.
    "newton-inversion": {
        "theorem59": None,
    },
}

# One cube unit on these types takes 11 s (A4) and 26 s (D4) on a 2-core
# host with Python 3.11, and cube has no sample count to shrink it.  A pass
# holding them could run once per measured run, so no median would form.
# The hull mechanism they exercise runs on the nine other types.
SKIPPED_UNITS = (("cube", "A4"), ("cube", "D4"))
