"""Self-test of the benchmark's span tracer.

    python3 bench/selftest.py

Checks that (1) a traced call returns output identical to the untraced
call, (2) uninstalling the tracer restores every original binding, and
(3) the module self times plus the untraced remainder add up to the wall
time of the traced calls.  Exits 0 when all checks pass.
"""
import sys
import tempfile
import time

import run

sys.path.insert(0, run.SRC)
import tracealg  # noqa: E402
from tracealg import cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def bindings():
    """Every (owner, name) -> object the tracer may patch."""
    owners = [tracealg] + [getattr(tracealg, m) for m in spans.MODULES]
    owners += [getattr(getattr(tracealg, m), c)
               for m, classes in spans.CLASSES.items() for c in classes]
    return {(id(o), name): obj for o in owners for name, obj in vars(o).items()}


def run_calls(ctx, calls, tag):
    """Run each CLI call into <name>-<tag>.json; returns (wall, outputs)."""
    wall, outputs = 0.0, []
    for argv, name in calls:
        out = ctx.path("%s-%s" % (name, tag))
        t0 = time.perf_counter()
        cli.main(argv + ["-o", out])
        wall += time.perf_counter() - t0
        with open(out, "rb") as fh:
            outputs.append(fh.read())
    return wall, outputs


def main():
    failures = []

    def check(ok, what):
        print("%s %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=run.ROOT) as tmp:
        ctx = workloads.Context(tmp, {})
        workloads.construct_inputs(ctx, ["ealg2", "ealg3", "herm0_3_1"])
        dsum = ["construct", "dsum", "--base", ctx.path("herm0_3_1"),
                "--base2", ctx.path("ealg2")]
        cli.main(dsum + ["-o", ctx.path("dsum")])
        calls = [
            (dsum, "dsum"),
            (["report", "--in", ctx.path("herm0_3_1"), "--suite", "einstein"], "einstein"),
            (["report", "--in", ctx.path("herm0_3_1"), "--suite", "const-sect"], "sect"),
            (["decompose", "--in", ctx.path("dsum"), "--seed", "3", "--trials", "2"],
             "decompose"),
            (["idempotents", "--in", ctx.path("ealg3"), "--trials", "20"], "idem"),
        ]
        _, plain = run_calls(ctx, calls, "plain")

        before = bindings()
        tracer = spans.Tracer(tracealg)
        tracer.install()
        try:
            wall, traced = run_calls(ctx, calls, "traced")
        finally:
            tracer.uninstall()
        check(traced == plain, "traced CLI outputs are byte-identical to untraced")
        after = bindings()
        check(all(after.get(k) is v for k, v in before.items()) and after.keys() == before.keys(),
              "uninstall restores every binding")

        summary = tracer.summary(wall)
        self_total = sum(m["self_s"] for m in summary["modules"].values())
        gap = abs(self_total + summary["remainder_s"] - wall)
        print("  wall %.6f s = module self %.6f s + remainder %.6f s (gap %.2e s, %d spans)"
              % (wall, self_total, summary["remainder_s"], gap, len(tracer.spans)))
        check(gap <= 1e-9 * max(1, len(tracer.spans)),
              "module self times plus remainder add up to the traced wall time")
        check(summary["remainder_s"] >= 0
              and all(m["self_s"] >= -1e-9 for m in summary["modules"].values()),
              "remainder and self times are nonnegative")
        check({"cli", "core", "linalg", "analysis"} <= summary["modules"].keys(),
              "spans recorded in cli, core, linalg and analysis")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
