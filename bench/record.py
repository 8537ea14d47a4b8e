"""Record the reference outputs the workload checks compare against.

    python3 bench/record.py

Runs one pass of each workload with its checks off and writes
bench/expected.json: the exit code, verdict, residual and witnesses of
every `report` call, and the SHA-256 of every `construct` output.  These
values do not depend on the seed.  Re-record only when the mathematics is
meant to change, never to make a failing check pass.
"""
import json
import os
import sys
import tempfile

import run  # pins the BLAS threads before numpy loads

import numpy as np  # noqa: E402

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402


def main():
    expected = {}
    with tempfile.TemporaryDirectory(prefix=".bench-record-", dir=run.ROOT) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            ctx = workloads.Context(os.path.join(tmp, name), expected)
            os.mkdir(ctx.workdir)
            workloads.construct_inputs(ctx, workload.inputs)
            workload.prepare(ctx)
            for group in workload.calls(ctx, np.random.default_rng(0)):
                for call in group:
                    out = call.run()
                    if call.label.startswith("report "):
                        expected[call.label] = workloads.report_fields(out)
                    elif call.label.startswith("construct "):
                        expected[call.label] = workloads.sha256_of(out[1])
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(dict(sorted(expected.items())), fh, indent=1)
        fh.write("\n")
    print("wrote %d entries to %s" % (len(expected), workloads.EXPECTED_PATH))


if __name__ == "__main__":
    main()
