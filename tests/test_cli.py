import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import biasbound
from biasbound import (DiscreteJoint, ExponentialIID, FixedIndex, GaussianIID,
                       ArgMax, HeavyTailIID, SoftMax, TopKUniform, gaussian_bound,
                       run_experiment, save_probability_vector)
from biasbound._csv import Table
from biasbound.cli import (_FAMILIES, _MODELS, _PSIS, _RULES, ConfigError, RunConfig,
                           _build_model, _build_parser, _parse_rule, main)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def bound_map(got):
    """Index a report's bounds list by name."""
    return {entry["name"]: entry for entry in got["bounds"]}


# ---------------------------------------------------------------- config file


def test_runconfig_round_trip_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        cfg = RunConfig(
            seed=int(rng.integers(0, 10**6)),
            family=str(rng.choice(["gaussian", "pnorm"])),
            sigma=[float(x) for x in rng.uniform(0.1, 4.0, rng.integers(1, 4))],
            beta=float(rng.uniform(2.0, 5.0)),
            info=float(rng.uniform(0.0, 3.0)),
            n=int(rng.integers(1, 100)),
            uniform=bool(rng.integers(0, 2)),
            trials=int(rng.integers(10, 1000)),
            alphas=[float(x) for x in rng.uniform(1.0, 3.0, 2)],
            n_list=[int(x) for x in rng.integers(1, 50, 3)],
            rule="softmax:0.5",
        )
        back = RunConfig.from_text(cfg.to_text())
        assert back == cfg


def test_config_comments_and_blanks():
    cfg = RunConfig.from_text("""
# full-line comment
seed = 3   # trailing comment

trials = 250
""")
    assert cfg.seed == 3
    assert cfg.trials == 250
    assert cfg.family is None


def test_config_errors_are_line_anchored(tmp_path):
    with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
        RunConfig.from_text("seed = 1\nbogus = 2\n")
    with pytest.raises(ConfigError, match="line 1: invalid value for 'trials'"):
        RunConfig.from_text("trials = many\n")
    with pytest.raises(ConfigError, match="line 3: expected 'key = value'"):
        RunConfig.from_text("seed = 1\n\njust words\n")
    p = tmp_path / "cfg.txt"
    p.write_text("seed = 1\nbogus = 2\n")
    with pytest.raises(ConfigError, match=rf"{p}: line 2"):
        RunConfig.from_file(str(p))
    with pytest.raises(ConfigError, match="cannot read config file"):
        RunConfig.from_file(str(tmp_path / "missing.txt"))


def test_merged_under_precedence():
    base = RunConfig(seed=1, trials=500, n=10)
    override = RunConfig(trials=800)
    merged = base.merged_under(override)
    assert merged.trials == 800
    assert merged.seed == 1
    assert merged.n == 10


def test_cli_flags_override_config_file(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("family = gaussian\nsigma = 1.0\ninfo = 0.5\n")
    got = run_json(capsys, ["bound", "--config", str(p), "--I", "2.0"])
    assert bound_map(got)["gaussian"]["value"] == pytest.approx(
        math.sqrt(2 * 2.0))
    got = run_json(capsys, ["bound", "--config", str(p)])
    assert bound_map(got)["gaussian"]["value"] == pytest.approx(1.0)


# ---------------------------------------------------------------- parser surface

_COMMON = {"help": (["-h", "--help"], None), "seed": (["--seed"], None),
           "out": (["--out"], None), "format": (["--format"], ["json", "csv"]),
           "config": (["--config"], None)}
_MODEL_FLAGS = {"model": (["--model"], ["gaussian", "exponential", "heavytail"]),
                "mu": (["--mu"], None), "sigma": (["--sigma"], None),
                "rate": (["--rate"], None), "beta": (["--beta"], None),
                "c": (["--c"], None), "x0": (["--x0"], None)}
# dest -> (option strings, choices) per subcommand, as first released
PARSER_SURFACE = {
    "bound": {**_COMMON,
              "family": (["--family"], ["gaussian", "subgamma", "subexponential",
                                        "pnorm", "tabulated"]),
              "sigma": (["--sigma"], None), "sigma2": (["--sigma2"], None),
              "c": (["--c"], None), "b": (["--b"], None), "beta": (["--beta"], None),
              "info": (["--I", "--info"], None), "i_alpha": (["--i-alpha"], None),
              "n": (["--n"], None), "uniform": (["--uniform"], None),
              "p_t": (["--p-t"], None), "joint": (["--joint"], None),
              "envelope": (["--envelope"], None)},
    "simulate": {**_COMMON, **_MODEL_FLAGS, "n": (["--n"], None),
                 "rule": (["--rule"], None), "trials": (["--trials"], None),
                 "alphas": (["--alphas"], None), "workers": (["--workers"], None)},
    "sweep": {**_COMMON, **_MODEL_FLAGS, "n_list": (["--n-list"], None),
              "trials": (["--trials"], None), "workers": (["--workers"], None)},
    "estimate": {**_COMMON, "joint": (["--joint"], None),
                 "alphas": (["--alphas"], None)},
    "norms": {**_COMMON, "data": (["--data"], None), "psi": (["--psi"], None)},
}


def test_parser_surface_frozen():
    ap = _build_parser()
    subparsers = next(a for a in ap._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subparsers) == list(PARSER_SURFACE)
    dests = set()
    for command, p in subparsers.items():
        got = {a.dest: (a.option_strings, None if a.choices is None else list(a.choices))
               for a in p._actions}
        assert got == PARSER_SURFACE[command], command
        dests |= set(got)
    names = {f.name for f in fields(RunConfig)}
    assert names == dests - {"help", "config"}
    # the config keys are exactly the fields
    cfg = RunConfig.from_text("".join(f"{name} = 1\n" for name in sorted(names)))
    assert all(getattr(cfg, name) is not None for name in names)
    with pytest.raises(ConfigError, match="unknown key 'config'"):
        RunConfig.from_text("config = other.cfg\n")
    assert _build_parser().parse_args(["bound", "--uniform"]).uniform is True


def test_rule_and_model_defaults():
    assert _parse_rule("fixed:") == FixedIndex(0)
    assert _parse_rule("topk:") == TopKUniform(2)
    assert _parse_rule("softmax:") == SoftMax(1.0)
    assert _parse_rule("argmax:7") == ArgMax()
    assert _parse_rule("TopK:3") == TopKUniform(3)
    assert _build_model(RunConfig()) == GaussianIID(mu=0.0, sigma=1.0, n=10)
    assert _build_model(RunConfig(model="heavytail")) == HeavyTailIID(
        beta=3.0, c=2.0, x0=math.e, n=10)
    # options of other models are ignored; a model takes one --sigma value
    assert _build_model(RunConfig(model="exponential", sigma=[5.0, 6.0], rate=2.0, n=3)) \
        == ExponentialIID(rate=2.0, n=3)
    assert _build_model(RunConfig(sigma=[2.0], rate=9.0)) == GaussianIID(sigma=2.0)
    with pytest.raises(ConfigError, match="option 'sigma' takes one value here, got 2"):
        _build_model(RunConfig(sigma=[2.0, 3.0]))
    with pytest.raises(ConfigError, match="unknown model 'bogus'"):
        _build_model(RunConfig(model="bogus"))


# ---------------------------------------------------------------- bound


def test_bound_pnorm_uniform_frozen(capsys):
    got = run_json(capsys, ["bound", "--family", "pnorm", "--beta", "2",
                            "--uniform", "--n", "5", "--sigma", "1"])
    assert bound_map(got)["pnorm_uniform"]["value"] == pytest.approx(2.0, rel=1e-12)
    assert bound_map(got)["pnorm_uniform_loose"]["value"] >= 2.0
    assert got["meta"]["alpha"] == pytest.approx(2.0)


def test_bound_gaussian_frozen(capsys):
    got = run_json(capsys, ["bound", "--family", "gaussian", "--sigma", "1",
                            "--I", str(math.log(2))])
    assert bound_map(got)["gaussian"]["value"] == pytest.approx(
        1.1774100225154747, rel=1e-12)
    assert bound_map(got)["gaussian"]["side"] == "upper"
    assert got["dependence"]["I"] == pytest.approx(math.log(2))


def test_bound_subgamma(capsys):
    got = run_json(capsys, ["bound", "--family", "subgamma", "--sigma2", "1",
                            "--c", "0.5", "--I", "1.0"])
    want = math.sqrt(2.0) + 0.5  # sqrt(2 sigma2 I) + c I
    assert bound_map(got)["subgamma"]["value"] == pytest.approx(want, rel=1e-12)


def test_bound_subexponential_reports_both_forms(capsys):
    got = run_json(capsys, ["bound", "--family", "subexponential", "--sigma", "1",
                            "--b", "2", "--I", "2"])
    assert bound_map(got)["subexponential"]["value"] == pytest.approx(4.25)
    assert bound_map(got)["subexponential_piecewise"]["value"] == pytest.approx(4.125)
    # below the bound for b > 1, so it is not labelled one
    assert bound_map(got)["subexponential"]["side"] == "upper"
    assert bound_map(got)["subexponential_piecewise"]["side"] == "printed_form"
    # the CSV does not call the printed form a bound either
    code, out, err = run_cli(capsys, ["bound", "--family", "subexponential", "--sigma", "1",
                                      "--b", "2", "--I", "2", "--format", "csv"])
    assert code == 0, err
    assert out.split("\n")[0] == (
        "command,family,seed,bias,stderr,I,bound_subexponential,ratio_subexponential,"
        "printed_subexponential_piecewise,ratio_subexponential_piecewise")
    # the two printed forms coincide only at b = 1
    got = run_json(capsys, ["bound", "--family", "subexponential", "--sigma", "1",
                            "--b", "1", "--I", "2"])
    assert bound_map(got)["subexponential"]["value"] == pytest.approx(
        bound_map(got)["subexponential_piecewise"]["value"], rel=1e-12)


def test_bound_subexponential_at_tiny_b(capsys):
    # sigma^2 / (2 b^2) overflows; b * b underflowing to 0 used to raise
    # ZeroDivisionError, which escaped main as a traceback
    got = run_json(capsys, ["bound", "--family", "subexponential", "--sigma", "1",
                            "--b", "1e-200", "--I", "1"])
    assert bound_map(got)["subexponential"]["value"] == math.sqrt(2.0)
    assert bound_map(got)["subexponential_piecewise"]["value"] == math.sqrt(2.0)
    assert bound_map(got)["subexponential_piecewise"]["side"] == "printed_form"


def test_bound_tabulated_from_csv(tmp_path, capsys):
    lams = np.linspace(0.0, 4.0, 81)
    path = tmp_path / "env.csv"
    path.write_text("lambda,psi\n" + "".join(
        f"{float(l)!r},{float(l * l / 2)!r}\n" for l in lams))
    got = run_json(capsys, ["bound", "--family", "tabulated",
                            "--envelope", str(path), "--I", "50"])
    # budget large enough that the optimum sits at the grid's right edge
    assert bound_map(got)["mgf_tabulated"]["value"] == pytest.approx(
        (8.0 + 50.0) / 4.0, rel=1e-9)


def test_bound_pnorm_from_joint(tmp_path, capsys):
    path = tmp_path / "joint.csv"
    DiscreteJoint(np.eye(2) / 2.0).to_csv(str(path))
    got = run_json(capsys, ["bound", "--family", "pnorm", "--beta", "2",
                            "--sigma", "1", "--joint", str(path)])
    # identity 2x2 joint: I_2 = 1, so the bound is sigma * 1
    assert bound_map(got)["pnorm"]["value"] == pytest.approx(1.0, rel=1e-12)
    assert got["dependence"]["I"] == pytest.approx(math.log(2), rel=1e-12)


def test_bound_with_selection_marginal(tmp_path, capsys):
    p = tmp_path / "pt.csv"
    save_probability_vector([0.5, 0.25, 0.25], str(p))
    got = run_json(capsys, ["bound", "--family", "gaussian",
                            "--sigma", "1,2,3", "--I", "1", "--p-t", str(p)])
    want = gaussian_bound([1.0, 2.0, 3.0], 1.0, [0.5, 0.25, 0.25])
    assert bound_map(got)["gaussian"]["value"] == pytest.approx(want, rel=1e-12)


def test_bound_missing_options_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["bound", "--family", "gaussian", "--sigma", "1"])
    assert code == 2
    assert "needs --I or --joint" in err
    code, _, err = run_cli(capsys, ["bound", "--family", "pnorm", "--beta", "2",
                                    "--sigma", "1"])
    assert code == 2
    assert "--i-alpha" in err
    code, _, err = run_cli(capsys, ["bound", "--family", "gaussian",
                                    "--sigma", "1", "--I", "-0.5"])
    assert code == 2
    assert "nonnegative" in err
    missing = str(tmp_path / "missing.csv")
    for argv in (["--family", "pnorm", "--beta", "2", "--sigma", "1", "--joint", missing],
                 ["--family", "gaussian", "--sigma", "1", "--I", "1", "--p-t", missing],
                 ["--family", "tabulated", "--I", "1", "--envelope", missing]):
        code, _, err = run_cli(capsys, ["bound"] + argv)
        assert code == 2
        assert err.startswith("error: ") and "No such file" in err
    code, _, err = run_cli(capsys, ["bound", "--family", "pnorm", "--beta", "0.5",
                                    "--sigma", "1", "--i-alpha", "1"])
    assert code == 2
    assert err == "error: beta must be > 1\n"
    for argv in (["--family", "gaussian", "--sigma", "", "--I", "1"],
                 ["--family", "subexponential", "--sigma", "", "--b", "1", "--I", "1"],
                 ["--family", "pnorm", "--beta", "2", "--sigma", "", "--i-alpha", "1"]):
        code, _, err = run_cli(capsys, ["bound"] + argv)
        assert code == 2
        assert err == "error: missing required option 'sigma'\n"
    code, out, err = run_cli(capsys, ["bound", "--family", "subexponential",
                                      "--sigma", "1,50", "--b", "1", "--I", "1"])
    assert (code, out) == (2, "")
    assert err == "error: option 'sigma' takes one value here, got 2\n"
    # an MGF family reads I only: an I_alpha it would drop is refused
    code, out, err = run_cli(capsys, ["bound", "--family", "gaussian", "--sigma", "1",
                                      "--I", "1", "--i-alpha", "0.7"])
    assert (code, out) == (2, "")
    assert err == "error: option 'i_alpha' is not read by the gaussian family\n"
    # the uniform cap holds over every joint, so a dependence it would drop
    # is refused, and the --joint file is never opened
    uniform = ["bound", "--family", "pnorm", "--beta", "2", "--sigma", "1", "--uniform",
               "--n", "5"]
    for name, extra in (("info", ["--I", "1"]), ("i_alpha", ["--i-alpha", "0.7"]),
                        ("joint", ["--joint", missing])):
        code, out, err = run_cli(capsys, uniform + extra)
        assert (code, out) == (2, "")
        assert err == f"error: option '{name}' is not read by the uniform pnorm bound\n"


_GAUSSIAN = ["--family", "gaussian", "--sigma", "1", "--I", "1"]
_SUBGAMMA = ["--family", "subgamma", "--sigma2", "1", "--c", "0.5", "--I", "1"]
_SUBEXPONENTIAL = ["--family", "subexponential", "--sigma", "1", "--b", "2", "--I", "1"]
_TABULATED = ["--family", "tabulated", "--envelope", "{missing}", "--I", "1"]
_PNORM = ["--family", "pnorm", "--beta", "2", "--sigma", "1", "--i-alpha", "1"]
_UNIFORM = ["--family", "pnorm", "--beta", "2", "--sigma", "1", "--uniform", "--n", "5"]


@pytest.mark.parametrize("argv, message", [
    (_SUBGAMMA + ["--p-t", "{missing}"], "option 'p_t' is not read by the subgamma family"),
    (_SUBEXPONENTIAL + ["--p-t", "{missing}"],
     "option 'p_t' is not read by the subexponential family"),
    (_TABULATED + ["--p-t", "{missing}"], "option 'p_t' is not read by the tabulated family"),
    (_GAUSSIAN + ["--uniform", "--n", "5"], "option 'uniform' is not read by the gaussian family"),
    (_PNORM + ["--n", "5"], "option 'n' is not read by the pnorm family"),
    # a zero is set: only None, and False for --uniform, are not
    (_PNORM + ["--I", "0"], "option 'info' is not read by the pnorm family"),
    (_GAUSSIAN + ["--i-alpha", "0.7"], "option 'i_alpha' is not read by the gaussian family"),
    (_SUBGAMMA + ["--i-alpha", "0.7"], "option 'i_alpha' is not read by the subgamma family"),
    (_SUBEXPONENTIAL + ["--i-alpha", "0.7"],
     "option 'i_alpha' is not read by the subexponential family"),
    (_TABULATED + ["--i-alpha", "0.7"], "option 'i_alpha' is not read by the tabulated family"),
    (_UNIFORM + ["--joint", "{missing}"], "option 'joint' is not read by the uniform pnorm bound"),
])
def test_bound_refuses_an_input_its_row_does_not_read(tmp_path, capsys, argv, message):
    # every named file is missing: had one been opened, the run would exit 2
    # with "No such file" instead of the refusal
    missing = str(tmp_path / "missing.csv")
    code, out, err = run_cli(capsys, ["bound"] + [a.replace("{missing}", missing) for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_bound_accepts_what_the_refusal_rule_leaves_alone(tmp_path, capsys):
    # like simulate with another model's parameters: only the six dependence,
    # marginal and uniform-cap inputs are refused
    got = run_json(capsys, ["bound"] + _GAUSSIAN + [
        "--beta", "3", "--envelope", str(tmp_path / "missing.csv")])
    assert bound_map(got)["gaussian"]["value"] == pytest.approx(math.sqrt(2.0))
    # a config file's uniform = false is the flag left off
    p = tmp_path / "run.cfg"
    p.write_text("family = gaussian\nsigma = 1\ninfo = 1\nuniform = false\n")
    got = run_json(capsys, ["bound", "--config", str(p)])
    assert bound_map(got)["gaussian"]["value"] == pytest.approx(math.sqrt(2.0))


def test_bad_config_file_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("family = gaussian\nbogus = 1\n")
    code, _, err = run_cli(capsys, ["bound", "--config", str(p)])
    assert code == 2
    assert "line 2: unknown key 'bogus'" in err


def test_config_values_checked_where_used_exit_2(tmp_path, capsys):
    # a config file bypasses the flags' choices and store_true
    for text, message in (
            ("family = bogus\nsigma = 1.0\ninfo = 0.5\n", "unknown family 'bogus'"),
            # named before any option the family would need or refuse
            ("family = bogus\n", "unknown family 'bogus'"),
            ("family = bogus\ninfo = 0.5\ni_alpha = 1\n", "unknown family 'bogus'"),
            ("family = pnorm\nbeta = 2\nsigma = 1\nn = 5\nuniform = maybe\n",
             "line 5: invalid value for 'uniform': expected a boolean, got 'maybe'")):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        code, out, err = run_cli(capsys, ["bound", "--config", str(p)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(message + "\n")


def test_removed_option_in_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bins.cfg"
    p.write_text("bins = 7\n")
    code, out, err = run_cli(capsys, ["simulate", "--config", str(p)])
    assert (code, out) == (2, "")
    assert "line 1: unknown key 'bins'" in err


def test_nan_option_exit_2(tmp_path, capsys):
    for argv in (["bound", "--family", "gaussian", "--sigma", "1", "--I", "nan"],
                 ["bound", "--family", "gaussian", "--sigma", "nan", "--I", "1"],
                 ["bound", "--family", "pnorm", "--beta", "nan", "--sigma", "1",
                  "--i-alpha", "1"],
                 ["bound", "--family", "pnorm", "--beta", "2", "--sigma", "1",
                  "--i-alpha", "nan"],
                 ["simulate", "--n", "3", "--trials", "50", "--alphas", "2,nan"]):
        with pytest.raises(SystemExit) as exc:  # the argument parser's exit
            main(argv)
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err
    p = tmp_path / "nan.cfg"
    p.write_text("family = gaussian\nsigma = 1.0\ninfo = nan\n")
    code, out, err = run_cli(capsys, ["bound", "--config", str(p)])
    assert (code, out) == (2, "")
    assert err == (f"error: {p}: line 3: invalid value for 'info': "
                   "expected a number, got 'nan'\n")
    # inf stays a valid value
    got = run_json(capsys, ["bound", "--family", "pnorm", "--beta", "inf", "--sigma", "1",
                            "--i-alpha", "1"])
    assert got["meta"]["alpha"] == 1.0


def test_list_options_refuse_an_empty_item(tmp_path, capsys):
    # a doubled, trailing or leading comma is refused, not dropped, from a
    # flag and from a config file; a blank value stays the empty list
    cases = (("bound", "--sigma", "sigma", "1,,2", "floats", "family = gaussian\ninfo = 1\n"),
             ("simulate", "--alphas", "alphas", "1.5,", "floats", "trials = 10\n"),
             ("sweep", "--n-list", "n_list", ",10", "integers", "trials = 10\n"))
    for command, flag, key, value, what, rest in cases:
        with pytest.raises(SystemExit) as exc:  # the argument parser's exit
            main([command, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid list of" in capsys.readouterr().err
        p = tmp_path / "run.cfg"
        p.write_text(f"{key} = {value}\n{rest}")
        code, out, err = run_cli(capsys, [command, "--config", str(p)])
        assert (code, out) == (2, "")
        assert err == (f"error: {p}: line 1: invalid value for {key!r}: "
                       f"expected comma-separated {what}, got {value!r}\n")
        assert getattr(RunConfig.from_text(f"{key} = \n"), key) == []


def rejects(convert, text):
    try:
        convert(text)
    except argparse.ArgumentTypeError:
        return True
    return False


def test_parser_errors_name_the_value_kind(capsys):
    ap = _build_parser()
    subparsers = next(a for a in ap._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    checked = set()
    for command, p in subparsers.items():
        for a in p._actions:
            if a.type is None or not rejects(a.type, "abc"):
                continue
            with pytest.raises(SystemExit):
                ap.parse_args([command, a.option_strings[0], "abc"])
            err = capsys.readouterr().err
            assert f"argument {'/'.join(a.option_strings)}: invalid " in err
            assert "_parse" not in err
            checked.add(a.dest)
    assert {"beta", "sigma", "info", "trials", "n_list", "alphas"} <= checked
    for flag, what in (("--beta", "number"), ("--sigma", "list of numbers")):
        with pytest.raises(SystemExit):
            main(["bound", "--family", "pnorm", flag, "abc"])
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: invalid {what}: 'abc'\n")


def test_bad_input_files_exit_2(tmp_path, capsys):
    files = {"joint": ",b0,b1\nt0,0.5,nan\nt1,0.0,0.5\n",
             "pt": "p\n0.5\nnan\n0.5\n",
             "env": "lambda,psi\n0.0,0.0\n0.5,nan\n1.0,0.5\n",
             "wide_pt": "p\n0.5,0.1\n0.5\n",
             "pt_sum": "p\n0.5\n0.6\n",
             "mass": ",b0,b1\nt0,0.4,0.0\nt1,0.0,0.5\n",
             "weights_sum": "value,weight\n1.0,0.5\n2.0,0.6\n",
             "empty": ""}
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text)
    for argv, message in (
            (["bound", "--family", "pnorm", "--beta", "2", "--sigma", "1",
              "--joint", "joint.csv"], "joint table entries must be nonnegative"),
            (["estimate", "--joint", "joint.csv"],
             "joint table entries must be nonnegative"),
            (["bound", "--family", "gaussian", "--sigma", "1", "--I", "1",
              "--p-t", "pt.csv"], "probabilities must be nonnegative"),
            (["bound", "--family", "tabulated", "--I", "1", "--envelope", "env.csv"],
             "envelope values must be nondecreasing"),
            (["bound", "--family", "gaussian", "--sigma", "1", "--I", "1",
              "--p-t", "wide_pt.csv"],
             "wide_pt.csv: line 2: row has 2 cells, header has 1"),
            # a sum prints as a plain float, not as np.float64(...)
            (["bound", "--family", "gaussian", "--sigma", "1", "--I", "1",
              "--p-t", "pt_sum.csv"], "probabilities must sum to 1, got 1.1"),
            (["estimate", "--joint", "mass.csv"],
             "joint table mass must be 1 within 1e-12, got 0.9"),
            (["norms", "--data", "weights_sum.csv", "--psi", "power:2"],
             "weights must sum to 1, got 1.1"),
            (["estimate", "--joint", "empty.csv"],
             "empty.csv: line 1: expected a header line")):
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(message + "\n")


def test_bound_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["bound", "--family", "gaussian", "--sigma", "1",
                                    "--I", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "bound_gaussian" in header
    i = header.index("bound_gaussian")
    assert float(lines[1].split(",")[i]) == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("model", ["gaussian", "exponential", "heavytail"])
def test_simulate_csv_parses_and_keeps_the_label(tmp_path, capsys, model):
    # model labels such as gaussian(mu=0,sigma=1) hold commas: those cells are quoted
    target = tmp_path / "report.csv"
    code, _, err = run_cli(capsys, ["simulate", "--model", model, "--n", "4",
                                    "--trials", "50", "--format", "csv",
                                    "--out", str(target)])
    assert code == 0, err
    table = Table(target)
    assert len(table.rows) == 1
    row = dict(zip(table.header, table.rows[0]))
    assert row["model"] == _build_model(RunConfig(model=model, n=4)).label
    assert row["rule"] == "argmax"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["bound", "--family", "gaussian", "--sigma", "1",
                                    "--I", "1", "--out", str(target)])
    assert code == 0
    assert out == ""
    got = json.loads(target.read_text())
    assert bound_map(got)["gaussian"]["value"] == pytest.approx(math.sqrt(2.0))


def test_out_into_missing_directory_exit_2(tmp_path, capsys):
    target = str(tmp_path / "missing" / "report.json")
    for argv in (["bound", "--family", "gaussian", "--sigma", "1", "--I", "1"],
                 ["simulate", "--n", "3", "--trials", "50"],
                 ["sweep", "--n-list", "5", "--trials", "50"]):
        code, out, err = run_cli(capsys, argv + ["--out", target])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "No such file" in err


# ---------------------------------------------------------------- simulate


def test_simulate_json_matches_library(capsys):
    got = run_json(capsys, ["simulate", "--model", "gaussian", "--n", "5",
                            "--rule", "argmax", "--trials", "2000", "--seed", "9"])
    res = run_experiment(GaussianIID(n=5), ArgMax(), trials=2000, seed=9,
                         alphas=(2.0,))
    assert got["empirical"]["bias"] == pytest.approx(res.bias, rel=1e-12)
    assert got["empirical"]["stderr"] == pytest.approx(res.stderr, rel=1e-12)
    assert got["dependence"]["I"] == pytest.approx(math.log(5), rel=1e-12)
    assert got["meta"]["dependence_estimator"] == "analytic"
    assert got["meta"]["trials"] == 2000
    names = bound_map(got)
    for key in ("mgf_gaussian", "pnorm", "pnorm_uniform", "max_cgf"):
        assert key in names
    assert names["max_cgf"]["side"] == "expected_max"
    # upper bounds should dominate the observed bias here
    assert bound_map(got)["mgf_gaussian"]["value"] >= got["empirical"]["bias"]


def test_simulate_meta_keys_frozen(capsys):
    base = ["command", "model", "rule", "n", "trials", "seed", "selected_mean",
            "dependence_estimator"]
    for model, extra in (("gaussian", []), ("heavytail", ["beta_norm_uncentered"])):
        got = run_json(capsys, ["simulate", "--model", model, "--n", "4",
                                "--trials", "50"])
        assert list(got["meta"]) == base + extra, model


def test_simulate_repeat_is_byte_identical(capsys):
    argv = ["simulate", "--model", "heavytail", "--n", "8", "--rule", "softmax:0.5",
            "--trials", "1500", "--seed", "4"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, argv + ["--workers", "4"])
    assert out1 == out3


def test_simulate_heavytail_bounds(capsys):
    got = run_json(capsys, ["simulate", "--model", "heavytail", "--n", "6",
                            "--trials", "1200", "--seed", "3"])
    assert "beta_norm_uncentered" in got["meta"]
    names = bound_map(got)
    assert "pnorm_uniform" in names
    assert "max_beta" in names
    assert "mgf_gaussian" not in names
    # conjugate exponent 1.5 was auto-added for the beta = 3 tail
    assert "1.5" in got["dependence"]["I_alpha"]


def test_simulate_huge_x0_is_finite_without_warnings(capsys):
    # x0 = 1e200: squared deviations and sigma^beta would overflow unscaled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_json(capsys, ["simulate", "--model", "heavytail", "--x0", "1e200",
                                "--trials", "2000"])
    # the report writes a value that is not finite as null
    assert 0 < 3.0 * got["empirical"]["stderr"] < got["empirical"]["bias"]
    assert None not in got["ratios"]
    for entry in got["bounds"]:
        assert entry["value"] is not None and entry["dominates"] is True, entry


def test_simulate_overflowing_i_alpha_is_null(capsys):
    # |L - 1|^alpha past the largest double: I_alpha and the pnorm bound that
    # uses it are null, with no traceback and no warning
    reports = []
    for argv in (["simulate", "--model", "heavytail", "--n", "100", "--beta", "1.005"],
                 ["simulate", "--n", "5", "--alphas", "1000"],
                 ["simulate", "--n", "5", "--rule", "softmax:0.5", "--alphas", "1000"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv + ["--trials", "300"])
        assert (code, err) == (0, ""), argv
        reports.append(json.loads(out))
        assert None in reports[-1]["dependence"]["I_alpha"].values(), argv
    # the heavy tail's pnorm uses alpha = 201; softmax's uses alpha = 2
    assert bound_map(reports[0])["pnorm"] == {
        "name": "pnorm", "value": None, "side": "two_sided", "dominates": False}
    assert bound_map(reports[2])["pnorm"]["dominates"] is True


def test_simulate_dependence_estimator_per_rule(capsys):
    # top-k is exact even when trials << n, where a plug-in would be biased low
    got = run_json(capsys, ["simulate", "--model", "exponential", "--n", "200",
                            "--rule", "topk:2", "--trials", "50", "--seed", "1"])
    assert got["meta"]["dependence_estimator"] == "analytic"
    assert got["dependence"]["I"] == math.log(100.0)
    assert got["dependence"]["I_alpha"]["2"] == pytest.approx(99.0, rel=1e-15)
    got = run_json(capsys, ["simulate", "--n", "5", "--rule", "softmax:0.5",
                            "--trials", "200", "--seed", "1"])
    assert got["meta"]["dependence_estimator"] == "rule_conditional"


def test_simulate_invalid_rule_exit_2(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--rule", "bogus"])
    assert code == 2
    assert "unknown rule" in err
    code, _, err = run_cli(capsys, ["simulate", "--rule", "fixed:99", "--n", "4"])
    assert code == 2
    code, out, err = run_cli(capsys, ["simulate", "--rule", "topk:0"])
    assert (code, out, err) == (2, "", "error: invalid rule 'topk:0': k must be >= 1\n")


def test_model_sigma_list_exit_2(capsys):
    for argv in (["simulate", "--model", "gaussian", "--sigma", "1,50", "--trials", "50"],
                 ["sweep", "--model", "gaussian", "--sigma", "3,1", "--n-list", "5",
                  "--trials", "50"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: option 'sigma' takes one value here, got 2\n"
    # an empty list is not replaced by the model's default
    code, out, err = run_cli(capsys, ["simulate", "--model", "gaussian", "--sigma=",
                                      "--trials", "10"])
    assert (code, out) == (2, "")
    assert err == "error: option 'sigma' takes one value here, got 0\n"


# ---------------------------------------------------------------- sweep


def test_sweep_csv_output(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--model", "gaussian",
                                    "--n-list", "20,50", "--trials", "1500",
                                    "--seed", "11"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,empirical_bias,stderr,a_n,frechet_ratio,bound_pnorm,bound_mgf,ratio"
    assert len(lines) == 3
    assert [int(l.split(",")[0]) for l in lines[1:]] == [20, 50]


def test_sweep_workers_byte_identical(capsys):
    argv = ["sweep", "--model", "heavytail", "--n-list", "15,40",
            "--trials", "1200", "--seed", "5"]
    _, out1, _ = run_cli(capsys, argv + ["--workers", "1"])
    _, out2, _ = run_cli(capsys, argv + ["--workers", "4"])
    assert out1 == out2


def test_sweep_json_format(capsys):
    got = run_json(capsys, ["sweep", "--model", "gaussian", "--n-list", "25",
                            "--trials", "1000", "--seed", "2", "--format", "json"])
    assert got["meta"]["model"].startswith("gaussian")
    assert len(got["rows"]) == 1
    row = got["rows"][0]
    assert row["n"] == 25
    assert row["bound_mgf"] == pytest.approx(math.sqrt(2 * math.log(25)), rel=1e-9)


# ---------------------------------------------------------------- estimate


def test_estimate_identity_joint(tmp_path, capsys):
    path = tmp_path / "joint.csv"
    DiscreteJoint(np.eye(2) / 2.0).to_csv(str(path))
    got = run_json(capsys, ["estimate", "--joint", str(path),
                            "--alphas", "1.5,2"])
    assert got["dependence"]["I"] == pytest.approx(math.log(2), rel=1e-12)
    assert got["dependence"]["I_alpha"]["2"] == pytest.approx(1.0, rel=1e-12)
    assert got["equality_attained"] == {"1.5": True, "2": True}
    assert got["marginal_bounds"]["kl"] == pytest.approx(math.log(2), rel=1e-12)
    assert got["meta"]["rows"] == 2


def test_estimate_independent_joint_not_at_cap(tmp_path, capsys):
    p = np.outer([0.6, 0.4], [0.3, 0.7])
    path = tmp_path / "joint.csv"
    DiscreteJoint(p).to_csv(str(path))
    got = run_json(capsys, ["estimate", "--joint", str(path)])
    assert got["dependence"]["I"] == pytest.approx(0.0, abs=1e-12)
    assert got["equality_attained"]["2"] is False


def test_estimate_alpha_labels_name_their_alpha(tmp_path, capsys):
    # 1.5000001 and 1.5 agree to 6 digits, so ":g" labels merged them
    path = tmp_path / "joint.csv"
    DiscreteJoint(np.outer([0.6, 0.4], [0.3, 0.7])).to_csv(str(path))
    got = run_json(capsys, ["estimate", "--joint", str(path),
                            "--alphas", "1.5000001,1.5"])
    for block in (got["dependence"]["I_alpha"], got["marginal_bounds"]["I_alpha"],
                  got["equality_attained"]):
        assert list(block) == ["1.5000001", "1.5"]
    caps = got["marginal_bounds"]["I_alpha"]
    assert caps["1.5000001"] != caps["1.5"]


def test_estimate_invalid_joint_exit_2(tmp_path, capsys):
    path = tmp_path / "joint.csv"
    DiscreteJoint(np.eye(2) / 2.0).to_csv(str(path))
    path.write_text(path.read_text().replace("0.5", "0.4", 1))
    code, _, err = run_cli(capsys, ["estimate", "--joint", str(path)])
    assert code == 2
    code, _, err = run_cli(capsys, ["estimate"])
    assert code == 2
    assert "missing required option 'joint'" in err


# ---------------------------------------------------------------- norms


def test_norms_constant_sample(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("value\n3.0\n3.0\n3.0\n")
    got = run_json(capsys, ["norms", "--data", str(path), "--psi", "power:2"])
    # constant X: Luxemburg equals the value, Amemiya doubles it for u^2
    assert got["norms"]["luxemburg"] == pytest.approx(3.0, rel=1e-9)
    assert got["norms"]["amemiya"] == pytest.approx(6.0, rel=1e-6)
    assert got["divergent"] is False
    assert got["meta"]["psi"] == "power(2)"


def test_norms_weighted_rms(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("value,weight\n1.0,0.25\n2.0,0.75\n")
    got = run_json(capsys, ["norms", "--data", str(path), "--psi", "power:2"])
    rms = math.sqrt(0.25 * 1.0 + 0.75 * 4.0)
    assert got["norms"]["luxemburg"] == pytest.approx(rms, rel=1e-9)


def test_norms_zero_weight_value_adds_nothing(tmp_path, capsys):
    # an infinite value at weight 0: no 0 * inf warning, and finite norms
    path = tmp_path / "data.csv"
    path.write_text("value,weight\ninf,0\n1.0,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["norms", "--data", str(path),
                                          "--psi", "power:2"])
    assert (code, err) == (0, "")
    assert json.loads(out)["norms"] == {"luxemburg": 1.0, "amemiya": 2.0}


def test_norms_divergent_exit_3(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("value\ninf\n1.0\n")
    code, out, err = run_cli(capsys, ["norms", "--data", str(path), "--psi", "exp"])
    assert code == 3
    got = json.loads(out)
    assert got["divergent"] is True
    assert got["norms"]["luxemburg"] is None
    assert "diverged" in err


def test_norms_bad_inputs_exit_2(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("value\n1.0\nnot-a-number\n")
    code, _, err = run_cli(capsys, ["norms", "--data", str(path), "--psi", "power:2"])
    assert code == 2
    assert "line 3" in err
    path.write_text("value\n1.0\n")
    code, _, err = run_cli(capsys, ["norms", "--data", str(path), "--psi", "power:0.5"])
    assert code == 2
    code, _, err = run_cli(capsys, ["norms", "--data", str(path), "--psi", "huh"])
    assert code == 2
    assert "unknown psi" in err
    path.write_text("value\nnan\n1.0\n")
    code, _, err = run_cli(capsys, ["norms", "--data", str(path), "--psi", "power:2"])
    assert code == 2
    assert "NaN" in err
    path.write_text("value,weight\n1.0,0.5\n2.0\n")
    code, _, err = run_cli(capsys, ["norms", "--data", str(path), "--psi", "power:2"])
    assert code == 2
    assert "line 3: row has 1 cells, header has 2" in err
    path.write_text("value,weight,extra\n1.0,0.5,0\n2.0,0.5,0\n")
    code, _, err = run_cli(capsys, ["norms", "--data", str(path), "--psi", "power:2"])
    assert code == 2
    assert "line 1: expected columns value or value,weight" in err


# ---------------------------------------------------------------- fingerprint corpus


def test_corpus_covers_every_cli_table():
    # a --family row, model, rule or psi without a corpus line would be left
    # out of the byte-identical check that a refactor of the CLI is held to
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cli_corpus.py")
    spec = importlib.util.spec_from_file_location("cli_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    runs = [argv for _, argv in corpus.CORPUS]

    def values(argv, flag):
        return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == flag]

    for family, uniform in _FAMILIES:
        assert any(family in values(argv, "--family") and ("--uniform" in argv) == uniform
                   for argv in runs), (family, uniform)
    for flag, table in (("--model", _MODELS), ("--rule", _RULES), ("--psi", _PSIS)):
        named = {v.partition(":")[0] for argv in runs for v in values(argv, flag)}
        assert set(table) <= named, (flag, set(table) - named)


# ---------------------------------------------------------------- import cost


def test_runs_load_no_scipy_module(tmp_path):
    # importing scipy.special alone was half of every cold start; the package
    # has its own ndtri, Wright omega and x ln x
    (tmp_path / "joint.csv").write_text(",b0,b1\nt0,0.5,0.0\nt1,0.0,0.5\n")
    (tmp_path / "env.csv").write_text("lambda,psi\n" + "".join(
        f"{l / 10!r},{(l / 10) ** 2 / 2!r}\n" for l in range(41)))
    (tmp_path / "data.csv").write_text("value\n1.0\n2.5\n0.5\n")
    runs = [
        ["simulate", "--model", model, "--n", "20", "--trials", "200"]
        for model in ("gaussian", "exponential", "heavytail")
    ] + [
        ["simulate", "--model", "gaussian", "--rule", "softmax:0.5", "--trials", "200"],
        ["simulate", "--model", "heavytail", "--rule", "softmax:0.5", "--trials", "200"],
        ["sweep", "--model", "heavytail", "--n-list", "5,10", "--trials", "100"],
        ["sweep", "--model", "gaussian", "--n-list", "5,10", "--trials", "100"],
        ["bound", "--family", "gaussian", "--sigma", "1", "--I", "0.7"],
        ["bound", "--family", "subgamma", "--sigma2", "1", "--c", "0.5", "--I", "1"],
        ["bound", "--family", "subexponential", "--sigma", "1", "--b", "2", "--I", "2"],
        ["bound", "--family", "tabulated", "--envelope", str(tmp_path / "env.csv"),
         "--I", "1"],
        ["bound", "--family", "pnorm", "--beta", "2", "--sigma", "1",
         "--joint", str(tmp_path / "joint.csv")],
        ["estimate", "--joint", str(tmp_path / "joint.csv"), "--alphas", "1.5,2"],
        ["norms", "--data", str(tmp_path / "data.csv"), "--psi", "exp"],
    ]
    script = f"""
import sys
import biasbound, biasbound.cli
for argv in {runs!r}:
    assert biasbound.cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = os.path.dirname(os.path.dirname(biasbound.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "report")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
