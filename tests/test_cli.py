"""Command line interface: construction, reports, exit codes."""
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tracealg
from tracealg.cli import main, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_and_report_exact(tmp_path, capsys):
    path = str(tmp_path / "e3.json")
    code, _ = run(capsys, "construct", "ealg", "--n", "3", "-o", path)
    assert code == 0
    doc = json.load(open(path))
    assert doc["dim"] == 3
    code, out = run(capsys, "report", "--in", path, "--suite", "exact")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] is True and rep["schema"] == 1


def test_report_failure_exit_code(tmp_path, capsys):
    path = str(tmp_path / "t.json")
    assert run(capsys, "construct", "talg", "--n", "3", "--alpha", "1/2",
               "-o", path)[0] == 0
    code, out = run(capsys, "report", "--in", path, "--suite", "exact")
    assert code == 1
    assert json.loads(out)["verdict"] is False
    # but the killing form is invariant at alpha = 1/2
    code, out = run(capsys, "report", "--in", path, "--suite",
                    "killing-invariant")
    assert code == 0


def test_einstein_suite_reports_kappa(tmp_path, capsys):
    path = str(tmp_path / "h.json")
    assert run(capsys, "construct", "herm0", "--n", "3", "--level", "c",
               "-o", path)[0] == 0
    code, out = run(capsys, "report", "--in", path, "--suite", "einstein")
    assert code == 0
    assert "5/2" in json.loads(out)["witnesses"]


def test_const_sect_suite(tmp_path, capsys):
    path = str(tmp_path / "e4.json")
    run(capsys, "construct", "ealg", "--n", "4", "-o", path)
    code, out = run(capsys, "report", "--in", path, "--suite", "const-sect")
    assert code == 0
    assert "-1/3" in json.loads(out)["witnesses"]


def test_idempotents_command(tmp_path, capsys):
    path = str(tmp_path / "e3.json")
    run(capsys, "construct", "ealg", "--n", "3", "-o", path)
    code, out = run(capsys, "idempotents", "--in", path, "--trials", "400")
    assert code == 0
    assert json.loads(out)["count"] == 7


def test_decompose_command(tmp_path, capsys):
    base = str(tmp_path / "e2.json")
    prod = str(tmp_path / "t22.json")
    run(capsys, "construct", "ealg", "--n", "2", "-o", base)
    code, _ = run(capsys, "construct", "tensor", "--base", base,
                  "--base2", base, "-o", prod)
    assert code == 0
    code, out = run(capsys, "decompose", "--in", prod, "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "decomposed"
    assert sorted(doc["component_dims"]) == [2, 2]
    # the decomposition is deterministic: --seed and --trials change nothing
    assert run(capsys, "decompose", "--in", prod, "--seed", "0",
               "--trials", "3") == (0, out)


def test_decompose_refuses_degenerate_killing_form(tmp_path, capsys):
    path = str(tmp_path / "t.json")
    run(capsys, "construct", "talg", "--n", "3", "--alpha", "1/2", "-o", path)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--in", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "Killing form is degenerate" in err and "(1, 0, 2)" in err


def test_ideals_suite_reports_certified_split(tmp_path, capsys):
    base = str(tmp_path / "e3.json")
    both = str(tmp_path / "e3e3.json")
    run(capsys, "construct", "ealg", "--n", "3", "-o", base)
    run(capsys, "construct", "dsum", "--base", base, "--base2", base, "-o", both)
    code, out = run(capsys, "report", "--in", both, "--suite", "ideals")
    assert code == 0
    assert json.loads(out)["witnesses"] == ["decomposed", 3, 3]
    code, out = run(capsys, "report", "--in", base, "--suite", "ideals")
    assert code == 0
    assert json.loads(out)["witnesses"] == ["indecomposable", 3]


def test_check_command(tmp_path, capsys):
    path = str(tmp_path / "e3.json")
    run(capsys, "construct", "ealg", "--n", "3", "-o", path)
    code, out = run(capsys, "check", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["reports"]) == {"exact", "killing-invariant",
                                   "ricci-invariant"}
    assert all(r["verdict"] for r in doc["reports"].values())


def test_check_command_fails_on_false_verdict(tmp_path, capsys):
    path = str(tmp_path / "t.json")
    run(capsys, "construct", "talg", "--n", "3", "--alpha", "1/2", "-o", path)
    code, out = run(capsys, "check", "--in", path)
    assert code == 1
    reports = json.loads(out)["reports"]
    assert reports["exact"]["verdict"] is False
    assert reports["killing-invariant"]["verdict"] is True


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert main(["construct", "nope"]) == 2
    assert main(["report", "--in", str(tmp_path / "missing.json"),
                 "--suite", "exact"]) == 2


@pytest.mark.parametrize("cmd", ["report", "check", "decompose", "idempotents", "sect"])
def test_no_command_takes_a_tolerance(tmp_path, capsys, cmd):
    """The zero tolerance is a module constant, so --tol is a usage error."""
    path = str(tmp_path / "e3.json")
    assert main(["construct", "ealg", "--n", "3", "-o", path]) == 0
    suite = ["--suite", "exact"] if cmd == "report" else []
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--in", path, "--tol", "1e-3"] + suite)
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_json_round_trip_via_cli(tmp_path, capsys):
    p1 = str(tmp_path / "a.json")
    run(capsys, "construct", "talg", "--n", "4", "--alpha=-1/3", "-o", p1)
    doc = json.load(open(p1))
    assert doc["scalar"] == "rational"
    assert doc["symmetry"] == "commutative"
    # structure rows are [i, j, k, value] with i <= j
    assert all(row[0] <= row[1] for row in doc["structure"])


MALFORMED = {
    "not-json": "{dim: 3",
    "no-structure": json.dumps({"dim": 2, "scalar": "rational"}),
    "index-out-of-range": json.dumps({"dim": 2, "structure": [[0, 1, 2, "1"]]}),
    "negative-index": json.dumps({"dim": 2, "structure": [[0, -1, 0, "1"]]}),
    "short-row": json.dumps({"dim": 2, "structure": [[0, 1, "1"]]}),
    "bad-value": json.dumps({"dim": 2, "structure": [[0, 1, 1, "one"]]}),
    "dim-not-int": json.dumps({"dim": "2", "structure": []}),
    "unknown-scalar": json.dumps({"dim": 1, "scalar": "complex", "structure": []}),
    "unknown-symmetry": json.dumps({"dim": 1, "symmetry": "jordan", "structure": []}),
    "wrong-symmetry": json.dumps({"dim": 1, "symmetry": "anticommutative",
                                  "structure": [[0, 0, 0, "1"]]}),
    "gram-wrong-dim": json.dumps({"dim": 1, "structure": [[0, 0, 0, "1"]],
                                  "metric": {"gram": [["1", "0"], ["0", "1"]]}}),
    "gram-asymmetric": json.dumps({"dim": 2, "structure": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
                                   "metric": {"gram": [["1", "2"], ["0", "1"]]}}),
    "zero-denominator": json.dumps({"dim": 1, "structure": [[0, 0, 0, "1/0"]]}),
    "float-in-rational": json.dumps({"dim": 1, "scalar": "rational",
                                     "structure": [[0, 0, 0, 0.1]]}),
    "float-index": json.dumps({"dim": 2, "structure": [[0, 1.0, 0, "1"]]}),
    "string-index": json.dumps({"dim": 2, "structure": [[0, "1", 0, "1"]]}),
    "bool-index": json.dumps({"dim": 2, "structure": [[True, 0, 0, "1"]]}),
}

COMMANDS = {
    "report": ["report", "--suite", "exact", "--in", "{}"],
    "check": ["check", "--in", "{}"],
    "decompose": ["decompose", "--in", "{}"],
    "idempotents": ["idempotents", "--trials", "50", "--in", "{}"],
    "sect": ["sect", "--trials", "2", "--in", "{}"],
    "construct": ["construct", "unitalize", "--base", "{}"],
}

# (command, input, expected exit code): 0 pass, 1 false verdict, 2 bad input
EXIT_CODES = ([(cmd, "ealg3", 0) for cmd in COMMANDS]
              + [("report", "talg-half", 1), ("check", "talg-half", 1)]
              + [(cmd, bad, 2) for cmd in COMMANDS for bad in sorted(MALFORMED)])


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("cmd, source, code", EXIT_CODES)
def test_exit_codes(tmp_path, capsys, cmd, source, code):
    path = str(tmp_path / "in.json")
    if source in MALFORMED:
        with open(path, "w") as fh:
            fh.write(MALFORMED[source])
    elif source == "ealg3":
        main(["construct", "ealg", "--n", "3", "-o", path])
    else:
        main(["construct", "talg", "--n", "3", "--alpha", "1/2", "-o", path])
    capsys.readouterr()
    argv = [a.format(path) for a in COMMANDS[cmd]] + ["-o", str(tmp_path / "out.json")]
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: ")
    else:
        assert err == ""


# construct arguments: --alpha is read exactly ("0.5" is 1/2), and a bad
# value or size is a usage error
CONSTRUCT_ARGS = {
    "alpha-decimal": (["talg", "--n", "3", "--alpha", "0.5"], 0),
    "alpha-zero-denominator": (["talg", "--n", "3", "--alpha", "1/0"], 2),
    "ealg-n1": (["ealg", "--n", "1"], 2),
    # no 0-dimensional algebras: herm0 needs n >= 2, herm and talg n >= 1
    "herm0-n1": (["herm0", "--n", "1", "--level", "r"], 2),
    "herm0-n2": (["herm0", "--n", "2", "--level", "r"], 0),
    "herm-n0": (["herm", "--n", "0", "--level", "c"], 2),
    "herm-n1": (["herm", "--n", "1", "--level", "c"], 0),
    "talg-n0": (["talg", "--n", "0", "--alpha", "1"], 2),
    "talg-n1": (["talg", "--n", "1", "--alpha", "1"], 0),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCT_ARGS))
def test_construct_exit_codes(tmp_path, capsys, case):
    argv, code = CONSTRUCT_ARGS[case]
    out = str(tmp_path / "out.json")
    assert exit_code(["construct"] + argv + ["-o", out]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not os.path.exists(out)
    else:
        assert err == ""


# each family run without an option it needs, and the option to name
MISSING_OPTIONS = [
    (["talg", "--n", "3"], "--alpha"), (["talg", "--alpha", "1"], "--n"),
    (["ealg"], "--n"), (["herm", "--level", "c"], "--n"), (["herm", "--n", "3"], "--level"),
    (["herm0", "--level", "r"], "--n"), (["herm0", "--n", "3"], "--level"),
    (["su-circle"], "--n"), (["lie-so"], "--n"), (["lie-su"], "--n"),
    (["triple"], "--base"), (["nahm"], "--base"), (["unitalize"], "--base"),
    (["deunitalize"], "--base"), (["confext"], "--base"),
    (["dsum"], "--base and --base2"), (["tensor"], "--base and --base2"),
    (["dsum", "--base", "@e2"], "--base2"), (["tensor", "--base", "@e2"], "--base2"),
]


@pytest.mark.parametrize("argv, option", MISSING_OPTIONS,
                         ids=["%s-%s" % (a[0], o.replace(" and ", "").replace("--", "-")[1:])
                              for a, o in MISSING_OPTIONS])
def test_construct_names_the_missing_option(tmp_path, capsys, argv, option):
    base = str(tmp_path / "e2.json")
    main(["construct", "ealg", "--n", "2", "-o", base])
    capsys.readouterr()
    argv = [base if a == "@e2" else a for a in argv]
    assert exit_code(["construct"] + argv + ["-o", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == "error: %s needs %s\n" % (argv[0], option)


def test_main_dispatches_through_the_module_at_call_time(tmp_path, capsys, monkeypatch):
    """The parser is built once; a command function replaced after that
    (as a tracer does) is the one main runs."""
    main(["construct", "ealg", "--n", "2", "-o", str(tmp_path / "e2.json")])
    calls = []
    monkeypatch.setattr(tracealg.cli, "cmd_construct", lambda args: calls.append(args) or 0)
    assert main(["construct", "ealg", "--n", "2"]) == 0
    assert [a.family for a in calls] == ["ealg"]


def test_confext_is_float_and_refuses_scalar_rational(tmp_path, capsys):
    """The conformal extension scales by 1/sqrt(n(n+1)), irrational for
    every n >= 1: it is built on floats, and asking for it exact is a usage
    error that names the construction."""
    base, out = str(tmp_path / "e3.json"), str(tmp_path / "c.json")
    main(["construct", "ealg", "--n", "3", "-o", base])
    assert main(["construct", "confext", "--base", base, "-o", out]) == 0
    assert json.load(open(out))["scalar"] == "float"
    capsys.readouterr()
    assert main(["construct", "confext", "--base", base, "--scalar", "rational"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "confext" in captured.err and "float" in captured.err


def test_alpha_decimal_is_exact(tmp_path, capsys):
    half, dec = str(tmp_path / "half.json"), str(tmp_path / "dec.json")
    assert main(["construct", "talg", "--n", "3", "--alpha", "1/2", "-o", half]) == 0
    assert main(["construct", "talg", "--n", "3", "--alpha", "0.5", "-o", dec]) == 0
    assert open(half).read() == open(dec).read()


def test_scalar_float_converts_any_construction(tmp_path, capsys):
    """--scalar float is the float copy of the exact build, for every family."""
    exact, flt = str(tmp_path / "exact.json"), str(tmp_path / "float.json")
    argv = ["construct", "herm0", "--n", "3", "--level", "c"]
    assert main(argv + ["-o", exact]) == 0
    assert main(argv + ["--scalar", "float", "-o", flt]) == 0
    a, b = tracealg.load_json(exact), tracealg.load_json(flt)
    assert json.load(open(flt))["scalar"] == "float" and b.backend == "float"
    assert np.array_equal(b.structure, a.structure.astype(float))
    assert np.array_equal(b.gram, a.gram.astype(float))


def test_construct_validation_survives_optimized_python():
    """Catalogue preconditions raise ValueError, which -O does not strip."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracealg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "tracealg.cli", "construct",
                           "herm0", "--n", "4", "--level", "o"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "octonionic" in proc.stderr


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite: no-such-suite"):
        run_suite(tracealg.simplicial(3), "no-such-suite")


def test_exact_commands_do_not_import_scipy(tmp_path):
    """scipy.optimize serves only the numeric searches; importing the
    package and running an exact report leave it unloaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracealg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    alg, rep = str(tmp_path / "a.json"), str(tmp_path / "r.json")
    code = ("import sys, tracealg\n"
            "from tracealg.cli import main\n"
            "assert main(['construct', 'herm0', '--n', '3', '--level', 'c', '-o', %r]) == 0\n"
            "assert main(['report', '--in', %r, '--suite', 'einstein', '-o', %r]) == 0\n"
            "assert 'scipy.optimize' not in sys.modules\n" % (alg, alg, rep))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.load(open(rep))["verdict"] is True


def fraction_shapes(monkeypatch):
    """The shapes of the arrays every module turns into Fractions, from now on."""
    shapes = []
    real = tracealg.linalg._fractions

    def spy(N, D):
        shapes.append(np.shape(N))
        return real(N, D)
    for module in (tracealg.linalg, tracealg.core, tracealg.catalog, tracealg.analysis):
        monkeypatch.setattr(module, "_fractions", spy)
    return shapes


@pytest.mark.parametrize("suite", ["exact", "killing-invariant", "ricci-invariant",
                                   "nondegenerate", "einstein", "proj-assoc", "conf-assoc"])
@pytest.mark.parametrize("family", [["herm0", "--n", "3", "--level", "c"],
                                    ["talg", "--n", "4", "--alpha=-1/3"]],
                         ids=["metrized", "killing-metric"])
def test_exact_reports_build_no_fraction_tensor(tmp_path, capsys, monkeypatch, suite, family):
    """A report on a loaded exact algebra computes on its numerators: no
    n^3 tensor of Fractions is made, with a metric in the file or without."""
    path, out = str(tmp_path / "a.json"), str(tmp_path / "r.json")
    assert main(["construct"] + family + ["-o", path]) == 0
    n = json.load(open(path))["dim"]
    shapes = fraction_shapes(monkeypatch)
    assert exit_code(["report", "--in", path, "--suite", suite, "-o", out]) in (0, 1)
    assert json.load(open(out))["schema"] == 1
    # no 3-D tensor, nor n^3 values in another shape
    assert [s for s in shapes if len(s) == 3 or math.prod(s) >= n ** 3] == []


@pytest.mark.parametrize("argv", [["herm0", "--n", "3", "--level", "o"], ["lie-su", "--n", "3"],
                                  ["nahm", "--base", "@su3"],
                                  ["dsum", "--base", "@e3", "--base2", "@h3"],
                                  ["tensor", "--base", "@e2", "--base2", "@e3"]],
                         ids=["herm0", "lie-su", "nahm", "dsum", "tensor"])
def test_constructions_build_no_fraction_tensor(tmp_path, capsys, monkeypatch, argv):
    """Catalogue builds and derived builds assemble numerators, and the
    file is written from them: no n^3 tensor of Fractions is made."""
    inputs = {"@su3": ["lie-su", "--n", "3"], "@e2": ["ealg", "--n", "2"],
              "@e3": ["ealg", "--n", "3"], "@h3": ["herm0", "--n", "3", "--level", "r"]}
    for stem, family in inputs.items():
        assert main(["construct"] + family + ["-o", str(tmp_path / stem[1:])]) == 0
    out = str(tmp_path / "out.json")
    shapes = fraction_shapes(monkeypatch)
    argv = [str(tmp_path / a[1:]) if a in inputs else a for a in argv]
    assert main(["construct"] + argv + ["-o", out]) == 0
    n = json.load(open(out))["dim"]
    # no 3-D tensor, the inputs' of a derived build included, nor n^3 values
    assert [s for s in shapes if len(s) == 3 or math.prod(s) >= n ** 3] == []


@pytest.mark.parametrize("argv", [["report", "--suite", "norton"],
                                  ["report", "--suite", "const-sect"],
                                  ["idempotents", "--trials", "8"],
                                  ["sect", "--trials", "8"]],
                         ids=["norton", "const-sect", "idempotents", "sect"])
@pytest.mark.parametrize("family", [["ealg", "--n", "3"],
                                    ["talg", "--n", "4", "--alpha=-1/3"]],
                         ids=["metrized", "killing-metric"])
def test_numeric_commands_build_no_fraction_tensor(tmp_path, capsys, monkeypatch, argv, family):
    """The numeric searches and the constant-sect report read the float
    view and the numerators: no n^3 tensor of Fractions is made."""
    path, out = str(tmp_path / "a.json"), str(tmp_path / "r.json")
    assert main(["construct"] + family + ["-o", path]) == 0
    n = json.load(open(path))["dim"]
    shapes = fraction_shapes(monkeypatch)
    assert exit_code(argv + ["--in", path, "-o", out]) in (0, 1)
    assert json.load(open(out))["schema"] == 1
    assert [s for s in shapes if len(s) == 3 or math.prod(s) >= n ** 3] == []


@pytest.mark.parametrize("argv", [["herm0", "--n", "3", "--level", "c", "--scalar", "float"],
                                  ["confext", "--base", "@e3"]],
                         ids=["scalar-float", "confext"])
def test_float_constructions_build_no_fraction_tensor(tmp_path, capsys, monkeypatch, argv):
    """A float build converts the numerators once, as Python int quotients:
    no n^3 tensor of Fractions is made, the exact input's included."""
    base = str(tmp_path / "e3.json")
    assert main(["construct", "ealg", "--n", "3", "-o", base]) == 0
    out = str(tmp_path / "out.json")
    shapes = fraction_shapes(monkeypatch)
    assert main(["construct"] + [base if a == "@e3" else a for a in argv] + ["-o", out]) == 0
    doc = json.load(open(out))
    assert doc["scalar"] == "float"
    assert [s for s in shapes if len(s) == 3 or math.prod(s) >= doc["dim"] ** 3] == []


@pytest.mark.parametrize("family", [["herm0", "--n", "3", "--level", "c"],
                                    ["talg", "--n", "4", "--alpha=-1/3"]],
                         ids=["metrized", "killing-metric"])
def test_nondegenerate_report_computes_the_inertia_once(tmp_path, capsys, monkeypatch, family):
    """With a metric in the file or the Killing form in its place, the
    report computes one inertia."""
    path, out = str(tmp_path / "a.json"), str(tmp_path / "r.json")
    assert main(["construct"] + family + ["-o", path]) == 0
    calls = []
    real = tracealg.linalg.inertia

    def spy(gram):
        calls.append(np.shape(gram))
        return real(gram)
    monkeypatch.setattr(tracealg.linalg, "inertia", spy)
    assert main(["report", "--in", path, "--suite", "nondegenerate", "-o", out]) == 0
    assert json.load(open(out))["verdict"] is True
    assert len(calls) == 1


def test_exact_report_computes_the_trace_once(monkeypatch):
    calls = []
    real = tracealg.core.Algebra.trace_linear

    def spy(alg):
        calls.append(alg.dim)
        return real(alg)
    monkeypatch.setattr(tracealg.core.Algebra, "trace_linear", spy)
    for alg, verdict in ((tracealg.simplicial(3), True), (tracealg.talg(3, "1/2"), False)):
        calls.clear()
        assert run_suite(alg, "exact")["verdict"] is verdict
        assert calls == [alg.dim]


# SHA-256 of the `construct` output of the matrix catalogue algebras, as
# recorded when their Cayley-Dickson products were one einsum over (j, b)
CONSTRUCT_SHA256 = {
    "herm0 --n 4 --level h": "77b3067a8c205da9e498c93525d16addaebf3a66ececad6608d4464daa121831",
    "herm0 --n 3 --level o": "b29e1dd6877a3144466be0b79d6cc82034a70c70609594e4de2aa06cfd0dcdb4",
    "herm --n 3 --level o": "fff88c49bfc0827825e20eab830b743e68e72e734180a502055b12bd664af34a",
    "lie-su --n 4": "2c720b373848b798583265be3e5b9700b09f5f80694dc44d4c99193d1561ba97",
    "su-circle --n 3": "caac75e7a952ca7f0576d75cd999de29cf7251fa36c91ace4d7b02bb373b318a",
}


@pytest.mark.parametrize("argv", sorted(CONSTRUCT_SHA256))
def test_matrix_constructions_are_byte_identical(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main(["construct"] + argv.split() + ["-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_SHA256[argv]


def test_sect_with_only_degenerate_starts_is_an_input_error(tmp_path, capsys):
    """When every start ends on a degenerate plane, sect exits 2 with one
    error line, as a degenerate Killing form does."""
    from test_core import big_coprime_algebra
    path = str(tmp_path / "a.json")
    with open(path, "w") as fh:
        json.dump(tracealg.core.to_json(big_coprime_algebra()), fh)
    assert exit_code(["sect", "--in", path, "--seed", "2", "--trials", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "every one of the 8 starts" in captured.err and "degenerate plane" in captured.err
