"""Record perfbench/reference.json from the current code.

    python3 perfbench/record_reference.py

Runs one pass of each workload with no reference and stores what the
output checks compare against: the nls-torus verdict and eps trace, the
verdict of every synthetic-sweep problem (an entry ``{"error":
"OverflowError"}`` records the known b = 2 schedule overflow), and the
measure-ladder fractions and bounds per gamma rung.  Re-record only for a
change that is meant to alter these outputs, and say so in that change.
"""

import json
import os
import sys

import run

run._import_package()
import workloads  # noqa: E402  (needs kamzero on the path)

reference = {}
for name, workload in workloads.WORKLOADS.items():
    out = os.path.join(run.ROOT, ".perfbench_out", "record-" + name)
    os.makedirs(out, exist_ok=True)
    res = workload(workloads.Context(run.ROOT, out, 0, 0.0, {}))
    unexpected = [f for f in res.failures if not f[2]]
    if unexpected:
        sys.exit("not recording, %s failed its checks: %s" % (name, unexpected))
    reference[name] = res.observed
    print("%s: %d observations" % (name, len(res.observed)))
with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
    json.dump(reference, fh, indent=1, sort_keys=True)
    fh.write("\n")
