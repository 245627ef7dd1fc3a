"""Record perfbench/reference.json from the code as it stands.

    python3 perfbench/record.py

For each workload and each seed in 0..SEEDS-1 it runs one untraced pass
and stores, per unit, the case count and the sha256 of the report's
sorted-key JSON; it also stores the digests of the four exports.  The
benchmark maps its --seed to seed % SEEDS.  Run it only on a commit whose
reports are known good: every later run is checked against this file.
"""

import json
import sys
import tempfile

import run
import workloads

SEEDS = 24


def main():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as d:
        _, exports = run.child(["exports", "--dir", d])
    if any(v["exit"] != 0 for v in exports.values()):
        sys.exit("an export failed: %r" % exports)
    units = {}
    for workload in workloads.WORKLOADS:
        units[workload] = {}
        for seed in range(SEEDS):
            _, result = run.child(["pass", "--workload", workload,
                                   "--seed", str(seed)])
            got = result["units"]
            bad = sorted(k for k, v in got.items()
                         if "error" in v or v["failures"])
            if bad:
                sys.exit("%s seed %d has failing units: %s"
                         % (workload, seed, bad))
            units[workload][str(seed)] = {
                k: [v["cases"], v["sha256"]] for k, v in sorted(got.items())}
            print(workload, seed, sum(v["cases"] for v in got.values()),
                  "cases", round(result["verdict_s"], 3), "s", flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump({"exports": {k: v["sha256"] for k, v in exports.items()},
                   "units": units}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
