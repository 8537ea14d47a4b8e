"""Benchmark of the tracealg CLI on the catalogue ladder.

Usage, from the repository root:

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1

One workload runs in one process, single-client and closed-loop: calls are
made one after another, OpenBLAS/OMP/MKL are pinned to one thread.  Before
every pass a set-up imports tracealg in a fresh interpreter and writes the
input algebras with `tracealg construct` into a fresh directory; passes
repeat until --seconds is used up.  Pass k draws its inputs and call order
from a generator seeded by (--seed, k).  Every output is checked; a call
that raises, fails its check or hits the per-call cap counts as failed.

--trace 0 reports the end-to-end metrics: wall_s and top_rung_s are means
over passes, setup_s the median set-up, all three in calibrated seconds
(see Calibrator).  --trace 1 alternates untraced passes with passes traced
by bench/spans.py, all on the pass-0 inputs, and reports the per-layer
metrics (raw medians over traced passes) and the tracing overhead.  The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See bench/README.md.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("verify-exact", "numeric-search", "build-decompose")
CALL_CAP_S = 60.0     # per-call wall-clock cap
DEADLINE_S = 150.0    # no call runs past this point of the run; keeps a run under 180 s
MIN_SETUPS = 3        # setup_s takes the median of at least this many set-ups
# Times `import tracealg` in a fresh interpreter, so every set-up pays a cold import.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import tracealg; print(time.perf_counter() - t)")


class CallTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that the
    `except Exception` blocks inside tracealg cannot swallow it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


def timed_call(fn, cap):
    """Run fn() under a wall-clock cap.  Returns (status, seconds, output)
    with status "ok", "error" or "timeout"."""
    if cap <= 0:
        return "timeout", 0.0, None
    signal.setitimer(signal.ITIMER_REAL, cap)
    t0 = time.perf_counter()
    try:
        out = fn()
        status = "ok"
    except CallTimeout:
        out, status = None, "timeout"
    except (Exception, SystemExit):
        traceback.print_exc(file=sys.stderr)
        out, status = None, "error"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, time.perf_counter() - t0, out


class Calibrator:
    """Tracks the host's speed with a fixed exact-arithmetic kernel.

    The kernel multiplies 24x24 numpy object matrices of Fractions: the
    Python-level Fraction arithmetic that tracealg's exact paths spend their
    time in, but none of tracealg's code, so a change to the program cannot
    move it.  On a shared host the speed of both flips between states for
    seconds at a time and drifts by a third over minutes.  A measured
    interval is scaled by REF_S over the mean kernel time of the samples
    taken within WINDOW_S of it: seconds on a host where the kernel takes
    REF_S.
    """

    REF_S = 0.1
    EVERY_S = 1.0     # a sample about once per second of workload
    BRACKET = 3       # samples on each side of a top-rung call
    WINDOW_S = 1.5

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.matrix = np.array(
            [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
              for _ in range(24)] for _ in range(24)], dtype=object)
        self.samples = []     # (end time, kernel seconds)

    def sample(self, count=1):
        for _ in range(count):
            t0 = time.perf_counter()
            self.matrix.dot(self.matrix).dot(self.matrix)
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))

    def maybe_sample(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.EVERY_S:
            self.sample()

    def scale(self, t0, t1):
        near = [d for t, d in self.samples
                if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return self.REF_S / statistics.mean(near)


def run_pass(workload, ctx, pass_seed, deadline, tracer=None, calibrator=None):
    """One pass over the call list.  Returns the time and the (start, end)
    window of each call keyed by its place in the unpermuted list, the keys
    of the top-rung calls, the wall time (sum of call times), per-call
    statuses and the search yield.  With a calibrator, Calibrator.BRACKET
    kernel samples precede and follow every top-rung call, and one follows
    the other calls about once a second."""
    import numpy as np
    rng = np.random.default_rng(pass_seed)
    groups = workload.calls(ctx, rng)
    order = rng.permutation(len(groups))
    times, windows, top_keys = {}, {}, []
    statuses, found = [], 0
    for gi in order:
        broken = False
        for j, call in enumerate(groups[gi]):
            if call.top:
                top_keys.append((gi, j))
            if broken:     # its input was not produced
                statuses.append((call.label, "error"))
                continue
            if tracer is not None:
                tracer.call_id = len(statuses)
            if calibrator is not None and call.top:
                calibrator.sample(Calibrator.BRACKET)
            t0 = time.perf_counter()
            status, secs, out = timed_call(
                call.run, min(CALL_CAP_S, deadline - t0))
            times[gi, j], windows[gi, j] = secs, (t0, time.perf_counter())
            if calibrator is not None:
                if call.top:
                    calibrator.sample(Calibrator.BRACKET)
                else:
                    calibrator.maybe_sample()
            if status == "ok":
                try:
                    status = "ok" if call.check(out) else "wrong"
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    status = "wrong"
            if status == "ok" and call.yield_of is not None:
                found += call.yield_of(out)
            if status != "ok":
                print("call %s: %s" % (call.label, status), file=sys.stderr)
                broken = True
            statuses.append((call.label, status))
    return {"times": times, "windows": windows, "top_keys": top_keys,
            "wall": sum(times.values()), "statuses": statuses, "yield": found}


def mean_pass(passes, keys=None, calibrator=None):
    """Mean over passes of the summed time of the calls in keys (all calls
    by default), each call scaled by the calibrator if one is given.  On a
    shared host whose speed flips between states for seconds at a time,
    the mean of a few passes spreads less between runs than their median."""
    keys = passes[0]["times"].keys() if keys is None else keys

    def total(p):
        return sum(p["times"][k] * (calibrator.scale(*p["windows"][k]) if calibrator else 1)
                   for k in keys if k in p["times"])
    return statistics.mean(total(p) for p in passes)


def provenance():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def declared_metrics(key):
    """Names of the metrics BENCHMARK.json declares under key."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


def listing(values):
    return "[%s]" % ", ".join("%.4f" % v for v in values)


def run_workload(args):
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    if not os.path.isdir(os.path.join(SRC, "tracealg")):
        print("error: %s/tracealg not found; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracealg
    import workloads
    from spans import Tracer, layer_metrics

    workload = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    setup_times = []

    def set_up():
        """One set-up: a cold import of tracealg, then the inputs written
        into a fresh directory.  Its time joins setup_times."""
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                               stdout=subprocess.PIPE, text=True, check=True,
                               timeout=CALL_CAP_S)
        ctx = workloads.Context(os.path.join(workdir, "setup%d" % len(setup_times)),
                                expected)
        os.mkdir(ctx.workdir)
        t0 = time.perf_counter()
        workloads.construct_inputs(ctx, workload.inputs)
        t1 = time.perf_counter()
        setup_times.append((float(probe.stdout) + t1 - t0, t0, t1))
        workload.prepare(ctx)
        return ctx

    try:
        print(json.dumps({"provenance": provenance(), "workload": args.workload,
                          "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace}))
        passes, traced, summaries = [], [], []
        tracer = Tracer(tracealg) if args.trace else None
        calibrator = Calibrator()
        t_measure = time.perf_counter()
        while True:
            # a set-up before every pass spreads the set-up samples over the run
            calibrator.sample()
            ctx = set_up()
            calibrator.sample()
            pass_seed = [args.seed, 0 if args.trace else len(passes)]
            passes.append(run_pass(workload, ctx, pass_seed, deadline,
                                   calibrator=calibrator))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(run_pass(workload, ctx, pass_seed, deadline, tracer,
                                           calibrator))
                finally:
                    tracer.uninstall()
                summaries.append(layer_metrics(tracer.summary(traced[-1]["wall"])))
                tracer.reset()
            now = time.perf_counter()
            per_pass = (now - t_measure) / len(passes)
            if (now - t_measure) + per_pass > args.seconds or now + per_pass > deadline:
                break
        while len(setup_times) < MIN_SETUPS:
            set_up()
            calibrator.sample()
        setup_s = statistics.median(secs * calibrator.scale(t0, t1)
                                    for secs, t0, t1 in setup_times)

        statuses = [s for p in passes + traced for _, s in p["statuses"]]
        attempted = len(statuses)
        failed = sum(s != "ok" for s in statuses)
        wall_s = mean_pass(passes, calibrator=calibrator)
        top_rung_s = mean_pass(passes, passes[0]["top_keys"], calibrator)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("workload %s, seed %d: %d pass(es), %d calls per pass"
              % (args.workload, args.seed, len(passes), len(passes[0]["statuses"])))
        print("  calibration   kernel %s s" % listing([d for _, d in calibrator.samples]))
        print("  wall_s        %.4f s calibrated; raw pass totals %s"
              % (wall_s, listing([p["wall"] for p in passes])))
        print("  top_rung_s    %.4f s calibrated; raw pass shares %s" % (top_rung_s, listing(
            [sum(p["times"][k] for k in p["top_keys"]) for p in passes])))
        print("  setup_s       %.4f s calibrated; raw set-ups %s"
              % (setup_s, listing([secs for secs, _, _ in setup_times])))
        print("  failed_frac   %.4f ratio (%d of %d calls)"
              % (failed / attempted, failed, attempted))
        print("  search_yield  %d count (pass 0)" % passes[0]["yield"])
        print("  peak_rss_mb   %.1f MB" % rss_mb)
        for label, status in sorted({x for p in passes + traced
                                     for x in p["statuses"] if x[1] != "ok"}):
            print("  FAILED %s: %s" % (label, status))

        if tracer is None:
            declared = "end_to_end"
            metrics = {"wall_s": (wall_s, "s"),
                       "top_rung_s": (top_rung_s, "s"),
                       "setup_s": (setup_s, "s"),
                       "peak_rss_mb": (rss_mb, "MB")}
        else:
            declared = "per_layer"
            metrics = {name: (statistics.median(s[name][0] for s in summaries), unit)
                       for name, (_, unit) in summaries[0].items()}
            metrics["trace.overhead_frac"] = (
                mean_pass(traced, calibrator=calibrator) / wall_s - 1, "ratio")
            metrics["search_yield"] = (traced[0]["yield"], "count")
            print("  traced pass totals %s" % listing([p["wall"] for p in traced]))
            for name, (value, unit) in metrics.items():
                print("  %-44s %.6g %s" % (name, value, unit))
        # the result line carries exactly the metrics BENCHMARK.json declares
        metrics = {name: metrics[name] for name in declared_metrics(declared)}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is per workload."""
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
