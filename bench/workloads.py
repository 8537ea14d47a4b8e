"""Call lists, inputs and output checks of the three benchmark workloads.

Every call goes through ``tracealg.cli.main`` where a CLI command exists
and through the library's public function where none does.  Modules are
looked up at call time (``cli.main``, not a saved reference), so the
tracer's wrappers are seen when it is installed.

Checks compare only the fields that carry the mathematics (verdict,
residual, witnesses, component dimensions, file bytes of a construction)
and hold for any seed, so extra report keys do not count as failures.
"""
import hashlib
import json
import os
from fractions import Fraction

import numpy as np

import tracealg
from tracealg import cli, inequalities

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# Input algebras, written by `tracealg construct` during set-up.  "@stem"
# names an input written earlier.
INPUTS = {
    "ealg2": ["ealg", "--n", "2"],
    "ealg3": ["ealg", "--n", "3"],
    "ealg4": ["ealg", "--n", "4"],
    "ealg6": ["ealg", "--n", "6"],
    "ealg8": ["ealg", "--n", "8"],
    "herm0_3_1": ["herm0", "--n", "3", "--level", "r"],
    "herm0_3_2": ["herm0", "--n", "3", "--level", "c"],
    "herm0_3_4": ["herm0", "--n", "3", "--level", "h"],
    "herm0_3_8": ["herm0", "--n", "3", "--level", "o"],
    "lie_su3": ["lie-su", "--n", "3"],
    "ealg10_float": ["ealg", "--n", "10", "--scalar", "float"],
    "confext_ealg6": ["confext", "--base", "@ealg6"],
}

EXACT_SUITES = ("exact", "killing-invariant", "ricci-invariant",
                "nondegenerate", "einstein")
FLOAT_SUITES = ("killing-invariant", "einstein", "const-sect", "conf-assoc",
                "norton")

CDK_PAIRS = 8          # random octonionic Hermitian pairs per pass
IDEMPOTENT_TRIALS = 200
SECT_TRIALS = 8
BW_SAMPLES, BW_ASCENT = 600, 40
DECOMPOSE_TRIALS = 8   # random starts per search; indecomposable cost is linear in it

IDEMPOTENT_TOL = 1e-10
SZERO_TOL = 1e-9
SECT_TOL = 1e-6
# Closed-form sectional ranges: ealg(n) has constant value -1/(n-1).
SECT_RANGES = {"ealg6": (-0.2, -0.2), "herm0_3_2": (-1.0, 0.5)}
BW_SU3_SUP = 1.0 / 3
DECOMPOSE_DIMS = {"dsum_ealg3_ealg3": [3, 3], "dsum_herm0_3_1_ealg2": [2, 5],
                  "tensor_ealg2_ealg3": [6]}


class Call:
    """One top-level call: ``run()`` returns its output, ``check(output)``
    says whether the output is right, ``yield_of(output)`` counts search
    results.  ``top`` marks calls on the workload's largest algebra."""

    def __init__(self, label, run, check, top=False, yield_of=None):
        self.label = label
        self.run = run
        self.check = check
        self.top = top
        self.yield_of = yield_of


class Context:
    """Paths of one set-up's inputs and the data the checks need."""

    def __init__(self, workdir, expected):
        self.workdir = workdir
        self.expected = expected
        self.float_structures = {}
        self.objects = {}

    def path(self, stem):
        return os.path.join(self.workdir, stem + ".json")

    def resolve(self, argv):
        return [self.path(a[1:]) if a.startswith("@") else a for a in argv]

    def cli(self, argv, out_stem):
        """A callable running ``tracealg <argv> -o <out_stem>.json``;
        returns (exit code, output path)."""
        out = self.path(out_stem)
        argv = self.resolve(argv) + ["-o", out]

        def run():
            return cli.main(argv), out
        return run


def construct_inputs(ctx, stems):
    """Write the named inputs (and the inputs they build on) into ctx."""
    done = set()

    def build(stem):
        if stem in done:
            return
        argv = INPUTS[stem]
        for a in argv:
            if a.startswith("@"):
                build(a[1:])
        rc = cli.main(["construct"] + ctx.resolve(argv) + ["-o", ctx.path(stem)])
        if rc != 0:
            raise RuntimeError("set-up construct %s exited %s" % (stem, rc))
        done.add(stem)

    for stem in stems:
        build(stem)


def float_structure(path):
    """Structure tensor m[i,j,k] as floats, read from the JSON file alone."""
    with open(path) as fh:
        doc = json.load(fh)
    n = doc["dim"]
    sign = 1.0 if doc["symmetry"] == "commutative" else -1.0
    m = np.zeros((n, n, n))
    for i, j, k, v in doc["structure"]:
        x = float(Fraction(v)) if isinstance(v, str) else float(v)
        m[i, j, k] = x
        m[j, i, k] = sign * x if i != j else x
    return m


def load_doc(path):
    with open(path) as fh:
        return json.load(fh)


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_fields(out):
    """The mathematical fields of a report: exit code, verdict, residual,
    witnesses."""
    rc, path = out
    doc = load_doc(path)
    return {"rc": rc, "verdict": doc["verdict"], "residual": doc["residual"],
            "witnesses": doc["witnesses"]}


# -- verify-exact ------------------------------------------------------

def random_herm_octonion(rng):
    """Random rational 3x3 octonionic Hermitian matrix, entries p/q with
    |p| <= 3, 1 <= q <= 2."""
    X = np.empty((3, 3, 8), dtype=object)
    X[...] = Fraction(0)

    def draw():
        return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
    for i in range(3):
        X[i, i, 0] = draw()
        for j in range(i + 1, 3):
            for a in range(8):
                v = draw()
                X[i, j, a] = v
                X[j, i, a] = v if a == 0 else -v
    return X


def verify_exact_calls(ctx, rng):
    exp = ctx.expected

    def report(stem, suite, top=False):
        label = "report %s %s" % (stem, suite)
        return Call(label,
                    ctx.cli(["report", "--in", "@" + stem, "--suite", suite],
                            "out"),
                    lambda out: report_fields(out) == exp[label], top=top)

    def cdk(X, Y):
        return Call("cdk_residual",
                    lambda: inequalities.cdk_residual(X, Y, 8),
                    lambda r: r >= 0)

    calls = [report(stem, suite)
             for stem in ("ealg8", "herm0_3_2", "herm0_3_4", "lie_su3")
             for suite in EXACT_SUITES]
    calls += [report("ealg8", "conf-assoc"), report("herm0_3_2", "conf-assoc"),
              report("ealg6", "const-sect"), report("herm0_3_1", "const-sect"),
              report("ealg4", "proj-assoc"), report("herm0_3_1", "proj-assoc"),
              report("herm0_3_8", "einstein", top=True)]
    calls += [cdk(random_herm_octonion(rng), random_herm_octonion(rng))
              for _ in range(CDK_PAIRS)]
    return [[c] for c in calls]


# -- numeric-search ----------------------------------------------------

def numeric_search_calls(ctx, rng):
    exp = ctx.expected

    def seed():
        return str(int(rng.integers(0, 2 ** 31)))

    def idempotents(stem, top=False):
        m = ctx.float_structures[stem]

        def check(out):
            rc, path = out
            doc = load_doc(path)
            for v in doc["idempotents"]:
                x = np.array(v)
                if np.max(np.abs(x @ np.tensordot(x, m, axes=(0, 0)) - x)) > IDEMPOTENT_TOL:
                    return False
            for v in doc["szero_rays"]:
                x = np.array(v)
                if (abs(x @ x - 1.0) > SZERO_TOL
                        or np.max(np.abs(x @ np.tensordot(x, m, axes=(0, 0)))) > SZERO_TOL):
                    return False
            return rc == 0

        def count(out):
            doc = load_doc(out[1])
            return len(doc["idempotents"]) + len(doc["szero_rays"])
        return Call("idempotents " + stem,
                    ctx.cli(["idempotents", "--in", "@" + stem, "--trials",
                             str(IDEMPOTENT_TRIALS), "--seed", seed()], "out"),
                    check, top=top, yield_of=count)

    def sect(stem):
        lo, hi = SECT_RANGES[stem]

        def check(out):
            rc, path = out
            doc = load_doc(path)
            return (rc == 0 and abs(doc["lower"] - lo) <= SECT_TOL
                    and abs(doc["upper"] - hi) <= SECT_TOL)
        return Call("sect " + stem,
                    ctx.cli(["sect", "--in", "@" + stem, "--trials",
                             str(SECT_TRIALS), "--seed", seed()], "out"),
                    check)

    def report(stem, suite):
        label = "report %s %s" % (stem, suite)

        def check(out):
            fields = report_fields(out)
            return (fields["rc"], fields["verdict"]) == (exp[label]["rc"],
                                                         exp[label]["verdict"])
        return Call(label,
                    ctx.cli(["report", "--in", "@" + stem, "--suite", suite,
                             "--seed", seed()], "out"),
                    check)

    def bw():
        lie, s = ctx.objects["lie_su3"], int(seed())
        return Call("bw_lie_estimate lie_su3",
                    lambda: inequalities.bw_lie_estimate(
                        lie, samples=BW_SAMPLES, ascent=BW_ASCENT, seed=s),
                    lambda est: 0 < est["value"] <= BW_SU3_SUP + SECT_TOL)

    calls = [idempotents("ealg6"), idempotents("herm0_3_4"),
             idempotents("herm0_3_8", top=True), sect("ealg6"), sect("herm0_3_2")]
    calls += [report(stem, suite) for stem in ("ealg10_float", "confext_ealg6")
              for suite in FLOAT_SUITES]
    calls.append(bw())
    return [[c] for c in calls]


# -- build-decompose ---------------------------------------------------

def build_decompose_calls(ctx, rng):
    exp = ctx.expected

    def construct(argv, out_stem, top=False):
        label = "construct " + out_stem
        return Call(label, ctx.cli(["construct"] + argv, out_stem),
                    lambda out: out[0] == 0 and sha256_of(out[1]) == exp[label],
                    top=top)

    def decompose(stem):
        s = str(int(rng.integers(0, 2 ** 31)))

        def check(out):
            rc, path = out
            return rc == 0 and sorted(load_doc(path)["component_dims"]) == DECOMPOSE_DIMS[stem]
        return Call("decompose " + stem,
                    ctx.cli(["decompose", "--in", "@" + stem, "--seed", s,
                             "--trials", str(DECOMPOSE_TRIALS)], "out"),
                    check)

    def pair(op, a, b):
        stem = "%s_%s_%s" % (op, a, b)
        return [construct([op, "--base", "@" + a, "--base2", "@" + b], stem),
                decompose(stem)]

    return [
        [construct(["herm0", "--n", "4", "--level", "h"], "herm0_4_4", top=True)],
        [construct(["lie-su", "--n", "4"], "lie_su4")],
        [construct(["nahm", "--base", "@lie_su3"], "nahm_lie_su3")],
        [construct(["unitalize", "--base", "@herm0_3_2"], "unit_herm0_3_2"),
         construct(["deunitalize", "--base", "@unit_herm0_3_2"],
                   "deunit_herm0_3_2")],
        pair("dsum", "ealg3", "ealg3"),
        pair("dsum", "herm0_3_1", "ealg2"),
        pair("tensor", "ealg2", "ealg3"),
    ]


class Workload:
    """Input stems to construct, a call-list builder ``calls(ctx, rng)``,
    and the inputs the checks read as floats or load as algebra objects."""

    def __init__(self, inputs, calls, float_inputs=(), objects=()):
        self.inputs = inputs
        self.calls = calls
        self.float_inputs = float_inputs
        self.objects = objects

    def prepare(self, ctx):
        """Load what the checks and library calls need (not timed)."""
        for stem in self.float_inputs:
            ctx.float_structures[stem] = float_structure(ctx.path(stem))
        for stem in self.objects:
            ctx.objects[stem] = tracealg.core.load_json(ctx.path(stem))


WORKLOADS = {
    "verify-exact": Workload(
        ["ealg4", "ealg6", "ealg8", "herm0_3_1", "herm0_3_2", "herm0_3_4",
         "herm0_3_8", "lie_su3"],
        verify_exact_calls),
    "numeric-search": Workload(
        ["ealg6", "herm0_3_2", "herm0_3_4", "herm0_3_8", "ealg10_float",
         "confext_ealg6", "lie_su3"],
        numeric_search_calls,
        float_inputs=("ealg6", "herm0_3_4", "herm0_3_8"),
        objects=("lie_su3",)),
    "build-decompose": Workload(
        ["ealg2", "ealg3", "herm0_3_1", "herm0_3_2", "lie_su3"],
        build_decompose_calls),
}


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
