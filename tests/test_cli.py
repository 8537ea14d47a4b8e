"""Command line interface: construction, reports, exit codes."""
import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tracealg
from tracealg.cli import _dumps, main, run_suite


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
    # a degenerate Killing form, read in place of a metric, is a false verdict
    code, out = run(capsys, "report", "--in", path, "--suite", "nondegenerate")
    rep = json.loads(out)
    assert code == 1 and capsys.readouterr().err == ""
    assert rep["verdict"] is False and rep["residual"] == 2 and rep["witnesses"] == [[1, 0, 2]]


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


def test_idempotents_needs_no_metric(tmp_path, capsys):
    """The searches read only products and the Euclidean norm, so a file
    without a metric whose Killing form is degenerate is searched as it is."""
    path = str(tmp_path / "t.json")
    run(capsys, "construct", "talg", "--n", "3", "--alpha", "1/2", "-o", path)
    code, out = run(capsys, "idempotents", "--in", path, "--trials", "60")
    assert code == 0 and capsys.readouterr().err == ""
    A = tracealg.load_json(path)
    doc = json.loads(out)
    assert doc["idempotents"] == [list(map(float, v))
                                  for v in tracealg.newton_idempotents(A, 60, 0)]
    assert doc["szero_rays"] == [list(map(float, v))
                                 for v in tracealg.square_zero_rays(A, 50, 0)]


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
    assert exit_code(["decompose", "--in", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "Killing form is degenerate" in err and "(1, 0, 2)" in err


# files the loader reads but the command cannot use; each ended in a
# traceback (exit 1) instead of one error line and exit 2, except the float
# dim-one const-sect, which reported a NaN residual: proj-assoc and
# const-sect divide by dim - 1
UNUSABLE = {
    "dim-zero": {"dim": 0, "structure": []},
    "dim-one": {"dim": 1, "structure": [[0, 0, 0, "1"]]},
    "dim-one-float": {"dim": 1, "scalar": "float", "structure": [[0, 0, 0, 1.0]]},
    "null-diagonal": {"dim": 2, "structure": [],
                      "metric": {"gram": [["0", "1"], ["1", "0"]]}},
    "degenerate-metric": {"dim": 2, "structure": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
                          "metric": {"gram": [["1", "0"], ["0", "0"]]}},
    # JSON true and false are not the numbers 1 and 0; this file once
    # passed the einstein suite
    "bool-values": {"dim": 1, "structure": [[0, 0, 0, True]], "metric": {"gram": [[True]]}},
}


UNUSABLE_RUNS = ([("dim-zero", ["decompose"])]
                 + [("dim-zero", ["report", "--suite", s])
                    for s in ("ideals", "const-sect", "einstein")]
                 + [("null-diagonal", ["report", "--suite", s]) for s in ("einstein", "const-sect")]
                 + [(source, ["report", "--suite", s]) for source in ("dim-one", "dim-one-float")
                    for s in ("proj-assoc", "const-sect")]
                 + [("degenerate-metric", ["decompose"]),
                    ("degenerate-metric", ["report", "--suite", "ideals"]),
                    ("bool-values", ["report", "--suite", "einstein"])])


@pytest.mark.parametrize("source, argv", UNUSABLE_RUNS,
                         ids=["%s-%s" % (source, argv[-1]) for source, argv in UNUSABLE_RUNS])
def test_unusable_input_exits_2(tmp_path, capsys, source, argv):
    path = str(tmp_path / "in.json")
    with open(path, "w") as fh:
        json.dump(UNUSABLE[source], fh)
    assert exit_code(argv + ["--in", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


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
    # a dim that is not a JSON integer is refused before any arithmetic:
    # 1e400 reads as inf, whose index arithmetic once warned on stderr
    "dim-bool": json.dumps({"dim": True, "structure": [[0, 0, 0, "1"]]}),
    "dim-float": json.dumps({"dim": 2.0, "structure": [[0, 0, 0, "1"]]}),
    "dim-inf": '{"dim": 1e400, "structure": [[0, 0, 0, "1"]]}',
    "dim-null": json.dumps({"dim": None, "structure": [[0, 0, 0, "1"]]}),
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
    "gram-ragged": json.dumps({"dim": 2, "structure": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
                               "metric": {"gram": [["1", "0"], ["0"]]}}),
    # values beyond the float range in a float file
    "float-int-overflow": json.dumps({"dim": 1, "scalar": "float",
                                      "structure": [[0, 0, 0, 10 ** 400]]}),
    "float-ratio-overflow": json.dumps({"dim": 1, "scalar": "float",
                                        "structure": [[0, 0, 0, "%d/3" % 10 ** 400]]}),
}

COMMANDS = {
    "report": ["report", "--suite", "exact", "--in", "{}"],
    "check": ["check", "--in", "{}"],
    "decompose": ["decompose", "--in", "{}"],
    "idempotents": ["idempotents", "--trials", "50", "--in", "{}"],
    "sect": ["sect", "--trials", "2", "--in", "{}"],
    "construct": ["construct", "unitalize", "--base", "{}"],
}

# (command, input, expected exit code): 0 pass, 1 false verdict, 2 bad input;
# a directory given as the input file cannot be read
EXIT_CODES = ([(cmd, "ealg3", 0) for cmd in COMMANDS]
              + [("report", "talg-half", 1), ("check", "talg-half", 1)]
              + [(cmd, bad, 2) for cmd in COMMANDS for bad in sorted(MALFORMED) + ["directory"]])


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
    elif source == "directory":
        os.mkdir(path)
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


@pytest.mark.parametrize("cmd", ["idempotents", "sect", "decompose"])
def test_negative_trials_is_a_usage_error(tmp_path, capsys, cmd):
    """--trials below 0 exits 2 before the command runs; idempotents once
    ran 0 Newton trials and 50 square-zero ones, and sect 8 starts."""
    path, out = str(tmp_path / "in.json"), tmp_path / "out.json"
    main(["construct", "ealg", "--n", "3", "-o", path])
    capsys.readouterr()
    assert exit_code([cmd, "--in", path, "--trials", "-1", "-o", str(out)]) == 2
    assert "--trials" in capsys.readouterr().err and not out.exists()
    assert exit_code([cmd, "--in", path, "--trials", "0", "-o", str(out)]) == 0


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
    # octonions only at size 3; lie-so needs n >= 3, lie-su and su-circle n >= 2
    "herm-octonion-n2": (["herm", "--n", "2", "--level", "o"], 2),
    "herm0-octonion-n4": (["herm0", "--n", "4", "--level", "o"], 2),
    "lie-so-n2": (["lie-so", "--n", "2"], 2),
    "lie-so-n3": (["lie-so", "--n", "3"], 0),
    "lie-su-n1": (["lie-su", "--n", "1"], 2),
    "lie-su-n2": (["lie-su", "--n", "2"], 0),
    "su-circle-n1": (["su-circle", "--n", "1"], 2),
    "su-circle-n2": (["su-circle", "--n", "2"], 0),
    # derived builds from the base files of test_construct_exit_codes:
    # nahm needs a Lie algebra, dsum and tensor two operands of one kind,
    # deunitalize a unit that is not null
    "nahm-commutative": (["nahm", "--base", "@e3"], 2),
    "dsum-exact-float": (["dsum", "--base", "@e3", "--base2", "@e3f"], 2),
    "tensor-exact-float": (["tensor", "--base", "@e3", "--base2", "@e3f"], 2),
    "deunitalize-no-unit": (["deunitalize", "--base", "@e3"], 2),
    "deunitalize-null-unit": (["deunitalize", "--base", "@null"], 2),
    # a base without a metric is metrized by its Killing form, and
    # talg(3, 1/2)'s is degenerate; each of these ended in a traceback
    "dsum-degenerate-killing": (["dsum", "--base", "@t", "--base2", "@t"], 2),
    "tensor-degenerate-killing": (["tensor", "--base", "@t", "--base2", "@t"], 2),
    "unitalize-degenerate-killing": (["unitalize", "--base", "@t"], 2),
    "triple-degenerate-killing": (["triple", "--base", "@t"], 2),
    "confext-degenerate-killing": (["confext", "--base", "@t"], 2),
    # the rational basis divides by (n+2)(n-1), which is 0 at dim 1
    "confext-dim-one": (["confext", "--base", "@t1"], 2),
}

# base files: ealg(3), its float copy, talg(3, 1/2) (no metric), talg(1, 0)
# (e e = e, no metric), and R + R with the metric diag(1, -1), whose unit
# e_1 + e_2 is null
BASES = {"@e3": ["ealg", "--n", "3"], "@e3f": ["ealg", "--n", "3", "--scalar", "float"],
         "@t": ["talg", "--n", "3", "--alpha", "1/2"], "@t1": ["talg", "--n", "1", "--alpha", "0"]}
NULL_UNIT = {"dim": 2, "structure": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
             "metric": {"gram": [["1", "0"], ["0", "-1"]]}}


@pytest.mark.parametrize("case", sorted(CONSTRUCT_ARGS))
def test_construct_exit_codes(tmp_path, capsys, case):
    argv, code = CONSTRUCT_ARGS[case]
    for stem, family in BASES.items():
        if stem in argv:
            assert main(["construct"] + family + ["-o", str(tmp_path / stem[1:])]) == 0
    if "@null" in argv:
        (tmp_path / "null").write_text(json.dumps(NULL_UNIT))
    capsys.readouterr()
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    out = str(tmp_path / "out.json")
    assert exit_code(["construct"] + argv + ["-o", out]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not os.path.exists(out)
    else:
        assert err == ""


@pytest.mark.parametrize("build, message", [
    ("unitalize", "unitalization needs a commutative algebra"),
    ("confext", "the conformal extension needs a commutative algebra")])
@pytest.mark.parametrize("family", ["lie-so", "lie-su"])
def test_construct_names_what_an_anticommutative_base_lacks(tmp_path, capsys, family, build,
                                                            message):
    base, out = str(tmp_path / "lie.json"), str(tmp_path / "out.json")
    assert main(["construct", family, "--n", "3", "-o", base]) == 0
    capsys.readouterr()
    assert exit_code(["construct", build, "--base", base, "-o", out]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not os.path.exists(out)


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


def test_construct_base_without_metric_uses_its_killing_form(tmp_path, capsys):
    """ealg(3)'s metric is its Killing form, so dsum writes the same file
    whether or not the base carries it."""
    with_metric, bare = tmp_path / "e3.json", tmp_path / "bare.json"
    main(["construct", "ealg", "--n", "3", "-o", str(with_metric)])
    doc = json.loads(with_metric.read_text())
    del doc["metric"]
    bare.write_text(json.dumps(doc))
    for base in (with_metric, bare):
        out = str(tmp_path / ("dsum-" + base.name))
        assert main(["construct", "dsum", "--base", str(base), "--base2", str(base), "-o", out]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "dsum-e3.json").read_bytes() == (tmp_path / "dsum-bare.json").read_bytes()


def test_main_dispatches_through_the_module_at_call_time(tmp_path, capsys, monkeypatch):
    """The parser is built once; a command function replaced after that
    (as a tracer does) is the one main runs."""
    main(["construct", "ealg", "--n", "2", "-o", str(tmp_path / "e2.json")])
    calls = []
    monkeypatch.setattr(tracealg.cli, "cmd_construct", lambda args: calls.append(args) or ({}, True))
    assert main(["construct", "ealg", "--n", "2"]) == 0
    assert [a.family for a in calls] == ["ealg"]


def test_confext_scalar_rational_writes_a_rational_file(tmp_path, capsys):
    """The conformal extension of an exact base is built exactly, so
    --scalar rational asks for what it builds anyway."""
    base, out, plain = (str(tmp_path / name) for name in ("e3.json", "c.json", "plain.json"))
    main(["construct", "ealg", "--n", "3", "-o", base])
    assert main(["construct", "confext", "--base", base, "--scalar", "rational", "-o", out]) == 0
    assert main(["construct", "confext", "--base", base, "-o", plain]) == 0
    assert json.load(open(out))["scalar"] == "rational"
    assert open(out).read() == open(plain).read()


@pytest.mark.parametrize("argv", [["confext", "--base", "@e3f"],
                                  ["dsum", "--base", "@e3", "--base2", "@e3f"]],
                         ids=["confext", "dsum-second-base"])
def test_scalar_rational_on_a_float_base_names_the_file(tmp_path, capsys, argv):
    """A float base has no exact form: --scalar rational on it is one error
    line that names the float file."""
    for stem in ("@e3", "@e3f"):
        main(["construct"] + BASES[stem] + ["-o", str(tmp_path / stem[1:])])
    capsys.readouterr()
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    out = str(tmp_path / "out.json")
    assert exit_code(["construct"] + argv + ["--scalar", "rational", "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: %s is a float algebra" % (tmp_path / "e3f"))
    assert not os.path.exists(out)


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


def construct_text(family, **kw):
    """json.dumps(doc, indent=1) + newline for the document construct writes."""
    doc = tracealg.core.to_json(tracealg.catalog.build_by_name(family, **kw))
    return json.dumps(doc, indent=1) + "\n"


def test_out_over_a_longer_or_shorter_file_holds_the_new_document(tmp_path, capsys):
    """-o overwrites a file in place and cuts it to the new length: a
    shorter document leaves no tail of the old one, a longer one all of it."""
    out = tmp_path / "out.json"
    for n in (8, 2, 8):
        assert main(["construct", "ealg", "--n", str(n), "-o", str(out)]) == 0
        assert out.read_text() == construct_text("ealg", n=n)
    assert main(["report", "--in", str(out), "--suite", "exact", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] is True
    assert out.read_text() == json.dumps(rep, indent=1) + "\n"


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 10000)
    link.symlink_to(target)
    assert main(["construct", "ealg", "--n", "3", "-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == construct_text("ealg", n=3)


def test_out_keeps_the_mode_of_an_existing_file(tmp_path, capsys):
    out = tmp_path / "out.json"
    out.write_text("old")
    out.chmod(0o640)
    assert main(["construct", "ealg", "--n", "3", "-o", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o640
    assert out.read_text() == construct_text("ealg", n=3)


def test_out_to_a_device_is_written_as_a_stream(capsys):
    """A device cannot be truncated; /dev/null is written, with no cut."""
    assert main(["construct", "ealg", "--n", "3", "-o", os.devnull]) == 0
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""


def test_out_to_a_directory_exits_2(tmp_path, capsys):
    assert main(["construct", "ealg", "--n", "3", "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "Is a directory" in err


def test_out_is_opened_without_truncating(tmp_path, capsys, monkeypatch):
    """-o opens its file with no O_TRUNC: ext4 flushes a file truncated to
    zero and rewritten when it is closed, inside the writer's close()."""
    flags, real = [], os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real(path, flag, *args, **kwargs)
    monkeypatch.setattr(tracealg.cli.os, "open", spy)
    out = tmp_path / "out.json"
    for n in (4, 3):
        assert main(["construct", "ealg", "--n", str(n), "-o", str(out)]) == 0
    assert len(flags) == 2 and not any(f & os.O_TRUNC for f in flags)
    assert all(f & os.O_WRONLY and f & os.O_CREAT for f in flags)
    assert out.read_text() == construct_text("ealg", n=3)


def test_rerunning_a_command_into_the_same_file(tmp_path):
    """Two runs of python -m tracealg.cli into one file, the second
    shorter, as a user re-running a command leaves it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tracealg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "out.json"
    for n in (6, 3):
        proc = subprocess.run([sys.executable, "-m", "tracealg.cli", "construct", "ealg",
                               "--n", str(n), "-o", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stdout == proc.stderr == ""
        assert out.read_text() == construct_text("ealg", n=n)


def fraction_shapes(monkeypatch):
    """The shapes of the arrays every module turns into Fractions, from now on."""
    shapes = []
    real = tracealg.linalg._fractions

    def spy(N, D):
        shapes.append(np.shape(N))
        return real(N, D)
    for module in (tracealg.linalg, tracealg.core, tracealg.analysis):
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
                                  ["confext", "--base", "@e3", "--scalar", "float"]],
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
# recorded when their Cayley-Dickson products were one einsum over (j, b),
# and lie-so's when so(3) had its own epsilon-table basis
CONSTRUCT_SHA256 = {
    "herm0 --n 4 --level h": "77b3067a8c205da9e498c93525d16addaebf3a66ececad6608d4464daa121831",
    "herm0 --n 3 --level o": "b29e1dd6877a3144466be0b79d6cc82034a70c70609594e4de2aa06cfd0dcdb4",
    "herm --n 3 --level o": "fff88c49bfc0827825e20eab830b743e68e72e734180a502055b12bd664af34a",
    "lie-su --n 4": "2c720b373848b798583265be3e5b9700b09f5f80694dc44d4c99193d1561ba97",
    "su-circle --n 2": "ee0ad1e32ef41a265ef77ecff348b9b7c7d2afd09feb6a4fdecb79642937f057",
    "su-circle --n 3": "caac75e7a952ca7f0576d75cd999de29cf7251fa36c91ace4d7b02bb373b318a",
    "su-circle --n 4": "a94d1c2206b26c4393305b521becd714aa09f04979f712bf0c7c42de0afad4ed",
    "lie-so --n 3": "35119a5e9142c5ca8cc82b1f920ab3a694d418afa349aa07a0fa577df9d15a79",
    "lie-so --n 4": "aa38a7f1941dfa61db337e24828d2002c404753f55fc802c04c166dc706b7ad0",
    "lie-so --n 5": "bcb3d73102abcf187fe8cd8ac7f899385eb69eae264b31d682c6cc81ded4599a",
}


@pytest.mark.parametrize("argv", sorted(CONSTRUCT_SHA256))
def test_matrix_constructions_are_byte_identical(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main(["construct"] + argv.split() + ["-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_SHA256[argv]


@pytest.mark.parametrize("argv", sorted(CONSTRUCT_SHA256))
def test_construct_files_rewrite_byte_identical(tmp_path, monkeypatch, argv):
    """construct writes with no indented json.dumps, and each file, read
    back and rewritten by _dumps, keeps its SHA-256."""
    dumps = json.dumps

    def no_indent(obj, **kw):
        assert kw.get("indent") is None
        return dumps(obj, **kw)
    monkeypatch.setattr(json, "dumps", no_indent)
    out = tmp_path / "out.json"
    assert main(["construct"] + argv.split() + ["-o", str(out)]) == 0
    text = _dumps(json.loads(out.read_text())) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCT_SHA256[argv]


# every leaf json.dumps writes: non-ASCII and control characters, text that
# looks like a row boundary, ints beyond 2**63, nan, infinities, -0.0 and a
# float subclass, bools and None
JSON_LEAVES = st.one_of(
    st.text(max_size=6), st.sampled_from(["],\n   [", "]", "[", ",\n ", "\u00e9\u2028\x00"]),
    st.integers(), st.integers(2 ** 63, 2 ** 80), st.integers(-2 ** 80, -2 ** 63),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.floats().map(np.float64), st.booleans(), st.none())


def json_documents(children):
    """Lists, tuples and str-keyed dicts of children, empty ones among them,
    and lists of rows of leaves, some of them empty."""
    return st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.lists(st.lists(JSON_LEAVES, max_size=4), max_size=4),
        st.lists(st.lists(JSON_LEAVES, min_size=1, max_size=4).map(tuple), max_size=4))


@settings(max_examples=400, deadline=None)
@given(st.recursive(JSON_LEAVES, json_documents, max_leaves=40))
def test_dumps_equals_indented_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=1)


def test_a_huge_decimal_exponent_exits_2_at_once(tmp_path, capsys):
    """A 14-byte value whose exponent is past the int-string digit limit is
    an input error, raised before any power of ten is built."""
    path = str(tmp_path / "a.json")
    with open(path, "w") as fh:
        json.dump({"dim": 1, "structure": [[0, 0, 0, "1e100000000"]]}, fh)
    start = time.perf_counter()
    assert exit_code(["report", "--in", path, "--suite", "exact"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exponent" in err


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


def _parser_words(parser):
    """Every subcommand, option string and --suite choice of parser and its
    subcommands."""
    words = set()
    for action in parser._actions:
        words.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            words.update(action.choices)
            for sub in action.choices.values():
                words |= _parser_words(sub)
        elif action.dest == "suite":
            words.update(action.choices)
    return words


def test_readme_names_every_cli_word():
    """README.md names every subcommand, option and suite of the CLI, each
    as a whole word."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = sorted(w for w in _parser_words(tracealg.cli._parser())
                     if not re.search(r"(?<![\w-])%s(?![\w-])" % re.escape(w), readme))
    assert missing == []
