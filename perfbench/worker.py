"""One fresh-interpreter job of the benchmark, started by run.py.

    python3 perfbench/worker.py pass --workload W --seed S [--trace]
    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py exports --dir D

`pass` runs every unit of a workload through `verify.run_suite`, as the
CLI does, and times the pass from the first call to the last return.
`setup` imports `petersonlab.cli` and builds the Workspace modules of the
workload's types.  `exports` writes the four export kinds through
`petersonlab.cli.main`.  Each prints one JSON object on its last stdout
line.  The package is imported from the `src` directory beside this one.

`pass` and `setup` read the host's speed while they run (HostClock), so
that run.py can scale their times to a fixed reference speed.
"""

import argparse
from fractions import Fraction
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# The four byte-stable export kinds, as `petersonlab export` arguments.
EXPORTS = {
    "off": ["off", "--type", "B2", "--lambda", "1,1"],
    "facelattice-json": ["facelattice-json", "--type", "A2",
                         "--lambda", "2,1"],
    "report-json": ["report-json", "--suite", "theorem59", "--type", "A1"],
    "matrices-json": ["matrices-json", "--type", "A1", "--weight", "2"],
}


class HostClock:
    """Reads the host's speed while a job runs.

    A shared host runs this process at a few speeds, the slowest up to 1.9
    times slower than the fastest, switching every few seconds, so a wall
    time alone mostly measures how long the host spent in its slow phases.  Every INTERVAL_S of wall time a
    SIGALRM handler times a fixed loop of Fraction arithmetic (about 1 ms),
    in this thread, between the job's own bytecodes; one more probe runs
    at start and at stop.  `normalise(wall)` takes the probes' own time out
    of `wall` and scales the rest by the mean of REF_PROBE_S / probe, that
    is to the speed at which a probe takes REF_PROBE_S (the fast phase of a
    2-core x86-64 KVM guest, Python 3.11).  The probe uses only the
    standard library, so a change to the package cannot move it.
    """

    INTERVAL_S = 0.05
    REF_PROBE_S = 0.0007
    ITERATIONS = 150

    def __init__(self):
        self.probes = []

    def _probe(self, *_):
        start = time.perf_counter()
        for i in range(1, self.ITERATIONS):
            x = Fraction(i % 97, i % 13 + 1)
            x * x + x / 3
        self.probes.append(time.perf_counter() - start)

    def start(self):
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def speed(self):
        """Mean host speed while the clock ran, as a share of the
        reference speed."""
        return sum(self.REF_PROBE_S / p for p in self.probes) \
            / len(self.probes)

    def normalise(self, wall):
        """`wall` seconds, timed between start() and stop(), less the
        probes inside it, at the reference speed."""
        return (wall - sum(self.probes[1:-1])) * self.speed()

    def summary(self):
        return {"speed": self.speed(), "probes": len(self.probes),
                "probe_s": sum(self.probes)}


def _import_package():
    import petersonlab
    where = os.path.realpath(petersonlab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("petersonlab imported from %s, not from %s"
                         % (where, SRC))


def units(workload):
    """(suite, type, samples) for every unit of the workload, in order."""
    from petersonlab import verify
    return [(suite, t, samples)
            for suite, samples in workloads.WORKLOADS[workload].items()
            for t in verify._default_types(suite)
            if (suite, t) not in workloads.SKIPPED_UNITS]


def report_digest(report):
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(workload, seed, trace):
    from petersonlab import verify
    todo = units(workload)
    calls = {suite: verify.run_suite for suite, _, _ in todo}
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        calls = {s: tracer.span("verify." + s, fn) for s, fn in calls.items()}
    reports = {}
    clock = HostClock()
    clock.start()
    start = time.perf_counter()
    for suite, t, samples in todo:
        try:
            reports[suite, t] = calls[suite](suite, t, seed, samples)
        except Exception:  # a crashed unit is reported, not fatal
            reports[suite, t] = traceback.format_exc()
    wall_s = time.perf_counter() - start
    clock.stop()
    out = {}
    for (suite, t), rep in reports.items():
        if isinstance(rep, str):
            out["%s/%s" % (suite, t)] = {"error": rep}
        else:
            out["%s/%s" % (suite, t)] = {"cases": rep.cases,
                                         "failures": len(rep.failures),
                                         "sha256": report_digest(rep)}
    result = {
        "verdict_s": clock.normalise(wall_s),
        "wall_s": wall_s,
        "host": clock.summary(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "units": out,
    }
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(),
            "times": tracer.times(),
            "counts": tracer.counts_summary(),
        }
    return result


def run_setup(workload):
    import petersonlab.cli  # noqa: F401  (the import a CLI user pays)
    from petersonlab import grouprep, rootdata, verify
    types = sorted({t for _, t, _ in units(workload)},
                   key=tuple(rootdata.CATALOG).index)
    for t in types:
        ws = grouprep.Workspace(rootdata.datum_from_name(t))
        ws.chev
        for i in range(ws.datum.n):
            ws.fundamental_rep(i)
            # power reps only where prop76 uses them; elsewhere some
            # exceed the module cap or take seconds to build
            if t in verify.POWER_MINOR_TYPES:
                ws.power_rep(i)
        ws.adjoint_rep()
    return {"types": types}


def run_exports(directory):
    from petersonlab import cli
    out = {}
    for kind, args in EXPORTS.items():
        path = os.path.join(directory, kind)
        code = cli.main(["export"] + args + ["--out", path])
        with open(path, "rb") as fh:
            out[kind] = {"exit": code,
                         "sha256": hashlib.sha256(fh.read()).hexdigest()}
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("job", choices=("pass", "setup", "exports"))
    p.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--dir")
    args = p.parse_args()
    if args.job == "setup":
        # run.py times the whole job from outside and scales that wall
        # time by the speed read here
        clock = HostClock()
        clock.start()
    _import_package()
    if args.job == "pass":
        result = run_pass(args.workload, args.seed, args.trace)
    elif args.job == "setup":
        result = run_setup(args.workload)
        clock.stop()
        result["host"] = clock.summary()
    else:
        result = run_exports(args.dir)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
