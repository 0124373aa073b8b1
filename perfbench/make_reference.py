"""Write reference.json: every workload variant's checked outputs.

Run from the root of a checkout, single-threaded like the benchmark:

    python3 perfbench/make_reference.py

Each variant is run twice untraced and once traced; the script refuses to
write unless every operation passes its claim and the three passes agree bit
for bit.  Besides each operation's outputs, a variant's record holds the
Picard counts of the traced pass under ``trace`` (``workloads.TRACE_CHECKED``).
Regenerate only when a change is meant to alter numerical results, and say so.
"""

import json
import os
import sys

import run
import workloads
from tracer import Tracer


def main():
    for var in run.THREAD_VARS:
        os.environ.setdefault(var, "1")
    reference = {}
    for workload in workloads.OPERATIONS:
        reference[workload] = {}
        out_dir = os.path.join(run.OUT, "reference", workload)
        for var in range(workloads.N_VARIANTS):
            cli, configs = run.setup(workload, var)
            passes = [run.call_pass(cli, run.fresh_configs(configs), out_dir) for _ in range(2)]
            tracer = Tracer()
            with tracer:
                passes.append(run.call_pass(cli, run.fresh_configs(configs), out_dir))
            passes = [run.checked_outputs(configs, p) for p in passes]
            record = {}
            for (op, _), first, *others in zip(configs, *passes):
                if first is None or not first[0] or any(o != first for o in others):
                    sys.exit("%s variant %d: %s did not pass reproducibly" % (workload, var, op[0]))
                record[op[0]] = first[1]
            metrics = run.layer_metrics(tracer.summary(), tracer.counts)
            record["trace"] = {k: metrics[k] for k in workloads.TRACE_CHECKED}
            reference[workload][str(var)] = record
            print(workload, var, json.dumps(record), flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
