"""Benchmark of `petersonlab verify`: three workloads, each dominated by one
layer, timed end to end and traced per layer from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the `src` tree of the checkout that holds
this file.  Load is a closed loop with one client: one pass at a time, each
in a fresh interpreter (perfbench/worker.py), so every pass pays the lazy
module builds and no module-level cache carries over.

--trace 0 times passes for --seconds (at least three), each after about
a second of timed set-up jobs, and reports the end-to-end metrics.  Times
are scaled to a reference host speed read inside each job (see HostClock
in worker.py).  --trace 1 runs an untraced pass, then traced passes (and
more untraced/traced pairs while --seconds allows), and reports the
per-layer metrics.  Every pass is
checked against reference.json, recorded from the unchanged code; the four
exports are checked once per run.

The last stdout line is the result object; the line before it holds the
details (per-pass times, quartiles, machine, mismatches).
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
MIN_PASSES = 3
# Before each untraced pass, set-up jobs run until this much wall time has
# gone (at least one), so that a workload with a short set-up still gives
# enough of them for a steady median.
SETUP_BUDGET_S = 1.0
CHILD_TIMEOUT_S = 120
# Children may cache bytecode, as an installed package does, so that only
# the first job of a checkout compiles the sources.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}


class BenchError(RuntimeError):
    pass


def child(args):
    """Run one worker job; return (wall seconds, its JSON result)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker %s exited %d: %s"
                         % (" ".join(args), proc.returncode,
                            proc.stderr.strip()[-2000:]))
    return wall, json.loads(lines[-1])


def spread(values):
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else values * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "values": values}


def score(units, reference):
    """(attempted, failed, mismatched unit names) of one pass.  A unit that
    crashed, or whose case count or report digest differs from the
    reference, counts all its reference cases as failed."""
    attempted = failed = 0
    mismatched = []
    for name, (cases, digest) in sorted(reference.items()):
        got = units.get(name, {})
        attempted += cases
        if got.get("cases") == cases and got.get("sha256") == digest:
            failed += got["failures"]
        else:
            failed += cases
            mismatched.append(name)
    for name in sorted(set(units) - set(reference)):
        attempted += units[name].get("cases", 1)
        failed += units[name].get("cases", 1)
        mismatched.append(name)
    return attempted, failed, mismatched


def check_exports(expected):
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as d:
        _, got = child(["exports", "--dir", d])
    return sorted(kind for kind, digest in expected.items()
                  if got.get(kind) != {"exit": 0, "sha256": digest})


def _git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "git_sha": _git_sha(), "src_sha256": _src_sha(),
            "loadavg_start": _loadavg()}


def run_passes(workload, seed, seconds, trace):
    """Run passes while the next one should end within `seconds`: at least
    MIN_PASSES untraced ones, each after timed set-ups, or else one
    untraced and two traced ones, then untraced/traced pairs.  Returns the
    untraced and traced (wall, worker result) lists and the set-up
    (wall, worker result) list."""
    base = ["pass", "--workload", workload, "--seed", str(seed)]
    plan = ["u", "t", "t"] if trace else ["u"] * MIN_PASSES
    runs = {"u": [], "t": []}
    setups = []
    start = time.perf_counter()
    last = 0.0
    while plan or time.perf_counter() - start + last <= seconds:
        kind = plan.pop(0) if plan else \
            ("u" if not trace or len(runs["u"]) < len(runs["t"]) else "t")
        begin = time.perf_counter()
        while not trace and time.perf_counter() - begin < SETUP_BUDGET_S:
            setups.append(child(["setup", "--workload", workload]))
        wall, result = child(base + (["--trace"] if kind == "t" else []))
        runs[kind].append((wall, result))
        last = time.perf_counter() - begin
    return runs["u"], runs["t"], setups


def measure(workload, seed, seconds, trace):
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    recorded = reference["units"][workload]
    ref_seed = seed % len(recorded)
    expected = {k: tuple(v) for k, v in recorded[str(ref_seed)].items()}
    detail = {"workload": workload, "seed": seed, "reference_seed": ref_seed,
              "machine": machine()}

    bad_exports = check_exports(reference["exports"])
    detail["export_mismatches"] = bad_exports

    untraced, traced, setups = run_passes(workload, ref_seed, seconds, trace)
    attempted = failed = 0
    mismatched = set()
    errors = {}
    for _, result in untraced + traced:
        a, f, m = score(result["units"], expected)
        attempted += a
        failed += f
        mismatched.update(m)
        errors.update((k, v["error"]) for k, v in result["units"].items()
                      if "error" in v)
    verdicts = [r["verdict_s"] for _, r in untraced]
    detail["verdict_s"] = spread(verdicts)
    detail["wall_verdict_s"] = spread([r["wall_s"] for _, r in untraced])
    detail["host_speed"] = spread([r["host"]["speed"]
                                   for _, r in untraced + traced])
    detail["unit_mismatches"] = sorted(mismatched)
    detail["unit_errors"] = errors
    ok = failed == 0 and not bad_exports and not mismatched

    if not trace:
        # the set-up job is timed from outside, all its probes inside
        setup_s = [(wall - r["host"]["probe_s"]) * r["host"]["speed"]
                   for wall, r in setups]
        detail["setup_s"] = spread(setup_s)
        detail["wall_setup_s"] = spread([wall for wall, _ in setups])
        rss = [r["maxrss_kb"] / 1024 for _, r in untraced]
        detail["peak_rss_mb"] = spread(rss)
        metrics = {
            "verdict_s": (statistics.median(verdicts), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "passed_frac": (1 - failed / attempted, "ratio"),
        }
    else:
        counts = [r["trace"]["counts"] for _, r in traced]
        repeat = all(c == counts[0] for c in counts)
        detail["counts_repeat"] = repeat
        ok = ok and repeat
        traced_s = statistics.median(r["verdict_s"] for _, r in traced)
        detail["traced_verdict_s"] = spread([r["verdict_s"]
                                             for _, r in traced])
        # median_low keeps a measured value (and an int count as an int)
        per = [r["trace"]["metrics"] for _, r in traced]
        metrics = {name: (statistics.median_low(p[name][0] for p in per),
                          unit) for name, (_, unit) in per[0].items()}
        metrics["trace.overhead_ratio"] = (
            traced_s / statistics.median(verdicts), "ratio")
        times = [r["trace"]["times"] for _, r in traced]
        detail["layer_times_s"] = {
            name: statistics.median(t[name] for t in times)
            for name in times[0]}
    detail["machine"]["loadavg_end"] = _loadavg()
    return ok, attempted, failed, metrics, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "petersonlab",
                                       "verify.py")):
        print("error: no petersonlab source under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        ok, attempted, failed, metrics, detail = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
