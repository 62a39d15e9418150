"""Fingerprint the command line over a fixed corpus of invocations.

    python3 tools/cli_corpus.py [--src DIR]

Each invocation runs as ``python -m biasbound.cli ...`` in a fresh process
with DIR (default: this checkout's ``src/``) first on ``PYTHONPATH``.  One
line is printed per invocation: its label, the exit code, and the sha256 of
stdout and of stderr.  Input files live in a temporary directory; its path
and DIR are replaced by ``<tmp>`` and ``<src>`` before hashing, so two
checkouts are compared by running the script once against each ``src/`` and
diffing the output.

The corpus covers every subcommand, every model with every rule,
non-default model, rule and sampling parameters, CSV and JSON output,
config files, malformed or NaN-carrying input files, and the exit-2 and
exit-3 paths.  Argument-parser errors are left out on purpose: their usage
line lists options in declaration order, which is not part of the interface.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FILES = {
    "joint.csv": ",b0,b1\nt0,0.5,0.0\nt1,0.0,0.5\n",
    "indep.csv": ",b0,b1\nt0,0.18,0.42\nt1,0.12,0.28\n",
    "bad_joint.csv": ",b0,b1\nt0,0.4,0.0\nt1,0.0,0.5\n",
    "pt.csv": "p\n0.5\n0.25\n0.25\n",
    "env.csv": "lambda,psi\n" + "".join(
        f"{l / 10!r},{(l / 10) ** 2 / 2!r}\n" for l in range(41)),
    "data.csv": "value\n1.0\n2.5\n0.5\n3.0\n",
    "weighted.csv": "value,weight\n1.0,0.25\n2.0,0.75\n",
    "data_1e30.csv": "value\n1e30\n2.5e30\n5e29\n3e30\n",
    "tiny_weight.csv": f"value,weight\n1.0,{1 - 1e-300!r}\n1e200,1e-300\n",
    "tiny_weight_exp.csv": "value,weight\n0.000001,1\n1.0,1e-315\n",
    "divergent.csv": "value\ninf\n1.0\n",
    "nan.csv": "value\nnan\n1.0\n",
    "bad_data.csv": "value\n1.0\nnot-a-number\n",
    "bound.cfg": "family = gaussian\nsigma = 1.0\ninfo = 0.5\nseed = 4\n",
    "simulate.cfg": ("model = heavytail  # comment\nn = 7\nrule = topk:2\n"
                     "trials = 300\nseed = 7\nalphas = 1.25\n"),
    "sweep.cfg": "model = exponential\nrate = 0.5\nn_list = 5,12\ntrials = 300\n",
    "bad.cfg": "family = gaussian\nbogus = 1\n",
    "bins.cfg": "bins = 7\n",
    "nan_joint.csv": ",b0,b1\nt0,0.5,nan\nt1,0.0,0.5\n",
    "nan_pt.csv": "p\n0.5\nnan\n0.5\n",
    "nan_env.csv": "lambda,psi\n0.0,0.0\n0.5,nan\n1.0,0.5\n",
    "wide_pt.csv": "p\n0.5,0.1\n0.5\n",
    "short_weight.csv": "value,weight\n1.0,0.5\n2.0\n",
    "nan.cfg": "family = gaussian\nsigma = 1.0\ninfo = nan\n",
    "pt_sum.csv": "p\n0.5\n0.6\n",
    "zero_weight_inf.csv": "value,weight\ninf,0\n1.0,1\n",
    "weights_sum.csv": "value,weight\n1.0,0.5\n2.0,0.6\n",
    "bogus_family.cfg": "family = bogus\nsigma = 1.0\ninfo = 0.5\n",
    "bad_bool.cfg": "family = pnorm\nbeta = 2\nsigma = 1\nn = 5\nuniform = maybe\n",
    "empty_item.cfg": "family = gaussian\nsigma = 1,,2\ninfo = 1\n",
}

SIM = ["simulate", "--n", "6", "--trials", "400", "--seed", "3"]
SWEEP = ["sweep", "--trials", "300", "--seed", "5"]
SOFTMAX_CHUNKS = ["simulate", "--model", "gaussian", "--rule", "softmax:0.5", "--n", "9",
                  "--trials", "2500", "--seed", "11"]
TOPK_ODD_WIDTH = ["simulate", "--model", "exponential", "--rule", "topk:2", "--n", "8",
                  "--trials", "1100", "--seed", "18446744073709551615"]

CORPUS = [
    # bound
    ("bound-gaussian", ["bound", "--family", "gaussian", "--sigma", "1", "--I", "0.693"]),
    ("bound-gaussian-pt", ["bound", "--family", "gaussian", "--sigma", "1,2,3",
                           "--I", "1", "--p-t", "{tmp}/pt.csv"]),
    ("bound-gaussian-info-csv", ["bound", "--family", "gaussian", "--sigma", "2",
                                 "--info", "0.5", "--format", "csv"]),
    ("bound-gaussian-joint", ["bound", "--family", "gaussian", "--sigma", "1",
                              "--joint", "{tmp}/joint.csv"]),
    ("bound-subgamma", ["bound", "--family", "subgamma", "--sigma2", "1", "--c", "0.5",
                        "--I", "1"]),
    ("bound-subexponential", ["bound", "--family", "subexponential", "--sigma", "1",
                              "--b", "2", "--I", "2", "--format", "csv"]),
    ("bound-tabulated", ["bound", "--family", "tabulated", "--envelope", "{tmp}/env.csv",
                         "--I", "1"]),
    ("bound-tabulated-last-knot", ["bound", "--family", "tabulated", "--envelope",
                                   "{tmp}/env.csv", "--I", "50"]),
    ("bound-tabulated-overflow", ["bound", "--family", "tabulated", "--envelope",
                                  "{tmp}/env.csv", "--I", "1e308"]),
    ("bound-subgamma-negative-zero-info", ["bound", "--family", "subgamma", "--sigma2", "1",
                                           "--c", "0.5", "--I", "-0", "--format", "csv"]),
    ("bound-gaussian-neg-zero", ["bound", "--family", "gaussian", "--sigma", "1",
                                 "--I", "-0", "--format", "csv"]),
    # sigma^2 / (2 b^2) overflows: only the Gaussian branch is reached
    ("bound-subexponential-tiny-b", ["bound", "--family", "subexponential", "--sigma", "1",
                                     "--b", "1e-200", "--I", "1"]),
    ("bound-subexponential-tiny-b-huge-info", ["bound", "--family", "subexponential",
                                               "--sigma", "1", "--b", "1e-200",
                                               "--I", "1e250", "--format", "csv"]),
    ("bound-subexponential-zero-info", ["bound", "--family", "subexponential", "--sigma",
                                        "1", "--b", "2", "--I", "0"]),
    ("bound-pnorm-ialpha", ["bound", "--family", "pnorm", "--beta", "3", "--sigma", "1,2",
                            "--i-alpha", "0.7"]),
    # --i-alpha without --I: the I cell is blank
    ("bound-pnorm-ialpha-csv", ["bound", "--family", "pnorm", "--beta", "3",
                                "--sigma", "1,2", "--i-alpha", "0.7", "--format", "csv"]),
    ("bound-pnorm-joint", ["bound", "--family", "pnorm", "--beta", "2", "--sigma", "1",
                           "--joint", "{tmp}/joint.csv"]),
    ("bound-pnorm-uniform", ["bound", "--family", "pnorm", "--beta", "2", "--sigma", "1",
                             "--uniform", "--n", "5"]),
    ("bound-pnorm-uniform-beta3", ["bound", "--family", "pnorm", "--beta", "3",
                                   "--sigma", "1", "--uniform", "--n", "50",
                                   "--format", "csv"]),
    # without --p-t a sigma list is capped by its largest value
    ("bound-pnorm-uniform-sigma-list", ["bound", "--family", "pnorm", "--beta", "2",
                                        "--sigma", "1,10", "--uniform", "--n", "2"]),
    ("bound-config", ["bound", "--config", "{tmp}/bound.cfg"]),
    ("bound-config-override", ["bound", "--config", "{tmp}/bound.cfg", "--I", "2.0"]),
    ("bound-err-no-family", ["bound", "--sigma", "1"]),
    ("bound-err-no-info", ["bound", "--family", "gaussian", "--sigma", "1"]),
    ("bound-err-no-ialpha", ["bound", "--family", "pnorm", "--beta", "2", "--sigma", "1"]),
    ("bound-err-negative-info", ["bound", "--family", "gaussian", "--sigma", "1",
                                 "--I", "-0.5"]),
    ("bound-err-uniform-beta", ["bound", "--family", "pnorm", "--beta", "1.5",
                                "--sigma", "1", "--uniform", "--n", "5"]),
    # --n is the cell count: a 3-cell marginal does not fit 2 cells
    ("bound-err-uniform-n-pt", ["bound", "--family", "pnorm", "--beta", "2", "--sigma", "1",
                                "--uniform", "--n", "2", "--p-t", "{tmp}/pt.csv"]),
    ("bound-err-bad-config", ["bound", "--config", "{tmp}/bad.cfg"]),
    ("bound-err-missing-config", ["bound", "--config", "{tmp}/missing.cfg"]),
    ("bound-err-missing-joint", ["bound", "--family", "pnorm", "--beta", "2",
                                 "--sigma", "1", "--joint", "{tmp}/missing.csv"]),
    ("bound-err-missing-pt", ["bound", "--family", "gaussian", "--sigma", "1", "--I", "1",
                              "--p-t", "{tmp}/missing.csv"]),
    ("bound-err-missing-envelope", ["bound", "--family", "tabulated", "--I", "1",
                                    "--envelope", "{tmp}/missing.csv"]),
    ("bound-err-pnorm-beta", ["bound", "--family", "pnorm", "--beta", "0.5",
                              "--sigma", "1", "--i-alpha", "1"]),
    ("bound-err-empty-sigma-gaussian", ["bound", "--family", "gaussian", "--sigma", "",
                                        "--I", "1"]),
    ("bound-err-empty-sigma-subexponential", ["bound", "--family", "subexponential",
                                              "--sigma", "", "--b", "1", "--I", "1"]),
    ("bound-err-sigma-list-subexponential", ["bound", "--family", "subexponential",
                                             "--sigma", "1,50", "--b", "1", "--I", "1"]),
    ("bound-err-out-missing-dir", ["bound", "--family", "gaussian", "--sigma", "1",
                                   "--I", "1", "--out", "{tmp}/missing/report.json"]),
    ("bound-err-nan-joint", ["bound", "--family", "pnorm", "--beta", "2", "--sigma", "1",
                             "--joint", "{tmp}/nan_joint.csv"]),
    ("bound-err-nan-pt", ["bound", "--family", "gaussian", "--sigma", "1", "--I", "1",
                          "--p-t", "{tmp}/nan_pt.csv"]),
    ("bound-err-nan-envelope", ["bound", "--family", "tabulated", "--I", "1",
                                "--envelope", "{tmp}/nan_env.csv"]),
    ("bound-err-wide-pt", ["bound", "--family", "gaussian", "--sigma", "1", "--I", "1",
                           "--p-t", "{tmp}/wide_pt.csv"]),
    ("bound-err-pt-sum", ["bound", "--family", "gaussian", "--sigma", "1", "--I", "1",
                          "--p-t", "{tmp}/pt_sum.csv"]),
    ("bound-err-config-family", ["bound", "--config", "{tmp}/bogus_family.cfg"]),
    ("bound-err-config-bool", ["bound", "--config", "{tmp}/bad_bool.cfg"]),
    ("bound-err-nan-config", ["bound", "--config", "{tmp}/nan.cfg"]),
    # a doubled comma is refused, not dropped (a flag's is an argument-parser error)
    ("bound-err-config-empty-item", ["bound", "--config", "{tmp}/empty_item.cfg"]),
    ("bound-err-subgamma-c", ["bound", "--family", "subgamma", "--sigma2", "1", "--c", "-1",
                              "--I", "1"]),
    ("bound-err-subexponential-b", ["bound", "--family", "subexponential", "--sigma", "1",
                                    "--b", "0", "--I", "1"]),
    # an MGF family reads I only, so an I_alpha is refused, not dropped
    ("bound-err-i-alpha-mgf", ["bound", "--family", "gaussian", "--sigma", "1", "--I", "1",
                               "--i-alpha", "0.7"]),
    # the uniform cap reads no dependence: refused, and the --joint file is not opened
    ("bound-err-pnorm-uniform-dependence", ["bound", "--family", "pnorm", "--beta", "2",
                                            "--sigma", "1", "--uniform", "--n", "5",
                                            "--I", "1", "--i-alpha", "0.7",
                                            "--joint", "{tmp}/missing.csv"]),
    # an input the family does not read is refused before any file is opened
    ("bound-err-p-t-subgamma", ["bound", "--family", "subgamma", "--sigma2", "1",
                                "--c", "0.5", "--I", "1", "--p-t", "{tmp}/pt.csv"]),
    ("bound-err-uniform-gaussian", ["bound", "--family", "gaussian", "--sigma", "1",
                                    "--I", "1", "--uniform", "--n", "4"]),
    ("bound-err-info-pnorm", ["bound", "--family", "pnorm", "--beta", "2", "--sigma", "1",
                              "--i-alpha", "1", "--I", "5"]),
]

for model in ("gaussian", "exponential", "heavytail"):
    for rule in ("argmax", "argmin", "fixed:2", "topk:3", "softmax:0.5"):
        CORPUS.append((f"simulate-{model}-{rule}", SIM + ["--model", model, "--rule", rule]))

CORPUS += [
    ("simulate-defaults", ["simulate", "--trials", "300"]),
    ("simulate-rule-defaults-fixed", SIM + ["--rule", "fixed:"]),
    ("simulate-rule-defaults-topk", SIM + ["--rule", "topk:"]),
    ("simulate-rule-defaults-softmax", SIM + ["--rule", "softmax:"]),
    ("simulate-gaussian-params-csv", SIM + ["--model", "gaussian", "--mu", "1.5",
                                            "--sigma", "2", "--format", "csv"]),
    # an estimated dependence: a rule_conditional row with I_alpha_* columns
    ("simulate-gaussian-softmax-csv", SIM + ["--model", "gaussian", "--rule", "softmax:0.5",
                                             "--format", "csv"]),
    ("simulate-exponential-rate", SIM + ["--model", "exponential", "--rate", "2.5",
                                         "--alphas", "1.5,3"]),
    ("simulate-heavytail-beta2", SIM + ["--model", "heavytail", "--beta", "2",
                                        "--c", "1.5", "--x0", "2"]),
    ("simulate-heavytail-beta2.5", SIM + ["--model", "heavytail", "--beta", "2.5",
                                          "--rule", "topk:2", "--format", "csv"]),
    ("simulate-heavytail-beta1.5", SIM + ["--model", "heavytail", "--beta", "1.5",
                                          "--c", "1.2", "--x0", "2"]),
    # the mean's tail integral is 3.6e-6: small enough that an absolute error
    # tolerance, not a relative one, would bound its accuracy
    ("simulate-heavytail-c5-x0-82.5", SIM + ["--model", "heavytail", "--beta", "2",
                                             "--c", "5", "--x0", "82.5"]),
    # deviations of order 1e200: squares and sigma^beta overflow unless scaled
    ("simulate-heavytail-x0-1e200", SIM + ["--model", "heavytail", "--x0", "1e200"]),
    # I_alpha past the largest double (alpha = 201, then 1000): null, not a traceback
    ("simulate-heavytail-beta-near-1", ["simulate", "--model", "heavytail", "--n", "100",
                                        "--beta", "1.005", "--trials", "400", "--seed", "3"]),
    ("simulate-alphas-overflow", SIM + ["--alphas", "1000"]),
    ("simulate-softmax-alphas-overflow", SIM + ["--rule", "softmax:0.5", "--alphas", "1000"]),
    ("simulate-config", ["simulate", "--config", "{tmp}/simulate.cfg"]),
    ("simulate-config-override", ["simulate", "--config", "{tmp}/simulate.cfg",
                                  "--rule", "argmin", "--workers", "2"]),
    # cross chunk (1024 trials) and tile (8192 doubles) boundaries
    ("simulate-heavytail-softmax-n3000", ["simulate", "--model", "heavytail",
                                          "--rule", "softmax:0.5", "--n", "3000",
                                          "--trials", "1500", "--workers", "2"]),
    ("simulate-exponential-topk-n257", ["simulate", "--model", "exponential",
                                        "--rule", "topk:3", "--n", "257",
                                        "--trials", "2049", "--workers", "3"]),
    # a twin pair that must hash the same: 3 chunks on 1 and on 3 workers
    ("simulate-gaussian-softmax-workers1", SOFTMAX_CHUNKS + ["--workers", "1"]),
    ("simulate-gaussian-softmax-workers3", SOFTMAX_CHUNKS + ["--workers", "3"]),
    # a twin pair that must hash the same: an odd width n + extra = 8 + 1 with
    # a randomized rule and the largest seed, on 1 and on 3 workers
    ("simulate-exponential-topk-odd-width-workers1", TOPK_ODD_WIDTH + ["--workers", "1"]),
    ("simulate-exponential-topk-odd-width-workers3", TOPK_ODD_WIDTH + ["--workers", "3"]),
    # the largest seed together with top-k's extra double
    ("simulate-topk-max-seed", ["simulate", "--n", "6", "--trials", "400", "--rule", "topk:3",
                                "--seed", "18446744073709551615"]),
    # alphas that agree to 6 digits get distinct labels
    ("simulate-alpha-labels", SIM + ["--rule", "softmax:0.5", "--alphas", "1.5000001,1.5"]),
    ("simulate-topk-k-equals-n", SIM + ["--rule", "topk:6"]),
    ("simulate-err-alpha", SIM + ["--rule", "softmax:0.5", "--alphas", "0.5"]),
    ("simulate-err-rule", ["simulate", "--rule", "bogus"]),
    ("simulate-err-fixed-range", ["simulate", "--rule", "fixed:99", "--n", "4"]),
    ("simulate-err-topk-zero", ["simulate", "--rule", "topk:0"]),
    ("simulate-err-workers-zero", ["simulate", "--workers", "0"]),
    ("simulate-err-model-param", ["simulate", "--model", "heavytail", "--beta", "0.9"]),
    # a model parameter must be finite
    ("simulate-err-gaussian-mu-inf", SIM + ["--model", "gaussian", "--mu", "inf"]),
    ("simulate-err-gaussian-sigma-inf", SIM + ["--model", "gaussian", "--sigma", "inf"]),
    ("simulate-err-heavytail-beta-inf", SIM + ["--model", "heavytail", "--beta", "inf"]),
    ("simulate-err-heavytail-c-inf", SIM + ["--model", "heavytail", "--c", "inf"]),
    ("simulate-err-heavytail-x0-inf", SIM + ["--model", "heavytail", "--x0", "inf"]),
    # value / temperature overflows; an infinite temperature is a uniform choice
    ("simulate-err-softmax-overflow", SIM + ["--rule", "softmax:1e-320"]),
    ("simulate-softmax-inf", SIM + ["--rule", "softmax:inf"]),
    ("simulate-err-config-bins", ["simulate", "--config", "{tmp}/bins.cfg"]),
    ("simulate-err-sigma-list", ["simulate", "--model", "gaussian", "--sigma", "1,50"]),
    ("simulate-err-empty-sigma", ["simulate", "--model", "gaussian", "--sigma=",
                                  "--trials", "10"]),
    # 1/rate^2 is not a positive finite double
    ("simulate-err-exponential-rate-tiny", SIM + ["--model", "exponential",
                                                  "--rate", "1e-200"]),
    ("sweep-gaussian", SWEEP + ["--model", "gaussian", "--n-list", "20,50"]),
    ("sweep-exponential-json", SWEEP + ["--model", "exponential", "--rate", "2",
                                        "--n-list", "10,30", "--format", "json"]),
    ("sweep-heavytail", SWEEP + ["--model", "heavytail", "--n-list", "15,40"]),
    ("sweep-heavytail-beta1.5", SWEEP + ["--model", "heavytail", "--beta", "1.5",
                                        "--c", "1.2", "--x0", "2", "--n-list", "15,40"]),
    ("sweep-exponential-large-n", ["sweep", "--model", "exponential", "--rate", "0.5",
                                   "--n-list", "1000000,2000000", "--trials", "3"]),
    ("sweep-heavytail-beta2.5-json", SWEEP + ["--model", "heavytail", "--beta", "2.5",
                                              "--n-list", "8", "--format", "json"]),
    ("sweep-default-nlist", ["sweep", "--trials", "100"]),
    ("sweep-config", ["sweep", "--config", "{tmp}/sweep.cfg"]),
    ("sweep-err-trials", SWEEP + ["--trials", "0"]),
    ("sweep-err-sigma-list", ["sweep", "--model", "gaussian", "--sigma", "3,1"]),
    ("sweep-err-exponential-rate-huge", SWEEP + ["--model", "exponential", "--rate", "1e200",
                                                 "--n-list", "10"]),
    ("estimate-identity", ["estimate", "--joint", "{tmp}/joint.csv", "--alphas", "1.5,2"]),
    ("estimate-independent", ["estimate", "--joint", "{tmp}/indep.csv"]),
    ("estimate-alpha-labels", ["estimate", "--joint", "{tmp}/indep.csv",
                               "--alphas", "1.5000001,1.5"]),
    ("estimate-err-missing", ["estimate"]),
    ("estimate-err-invalid", ["estimate", "--joint", "{tmp}/bad_joint.csv"]),
    ("estimate-err-no-file", ["estimate", "--joint", "{tmp}/missing.csv"]),
    ("estimate-err-nan", ["estimate", "--joint", "{tmp}/nan_joint.csv"]),
    ("norms-power", ["norms", "--data", "{tmp}/data.csv", "--psi", "power:2"]),
    ("norms-scaled-weighted", ["norms", "--data", "{tmp}/weighted.csv", "--psi", "scaled:3"]),
    ("norms-exp", ["norms", "--data", "{tmp}/data.csv", "--psi", "exp"]),
    ("norms-power-1e30", ["norms", "--data", "{tmp}/data_1e30.csv", "--psi", "power:2"]),
    ("norms-tiny-weight", ["norms", "--data", "{tmp}/tiny_weight.csv", "--psi", "power:2"]),
    # power:1 has no closed form: the numeric Luxemburg and Amemiya searches
    ("norms-power-one", ["norms", "--data", "{tmp}/data.csv", "--psi", "power:1"]),
    ("norms-exp-weighted", ["norms", "--data", "{tmp}/weighted.csv", "--psi", "exp"]),
    # a weight below 1e-300: exp leaves Newton for its fallback
    ("norms-exp-tiny-weight", ["norms", "--data", "{tmp}/tiny_weight_exp.csv",
                               "--psi", "exp"]),
    # a value of zero weight adds nothing, even an infinite one
    ("norms-zero-weight-inf", ["norms", "--data", "{tmp}/zero_weight_inf.csv",
                               "--psi", "power:2"]),
    ("norms-err-divergent", ["norms", "--data", "{tmp}/divergent.csv", "--psi", "exp"]),
    ("norms-err-nan", ["norms", "--data", "{tmp}/nan.csv", "--psi", "power:2"]),
    ("norms-err-bad-data", ["norms", "--data", "{tmp}/bad_data.csv", "--psi", "power:2"]),
    ("norms-err-psi", ["norms", "--data", "{tmp}/data.csv", "--psi", "huh"]),
    ("norms-err-short-row", ["norms", "--data", "{tmp}/short_weight.csv",
                             "--psi", "power:2"]),
    ("norms-err-weights-sum", ["norms", "--data", "{tmp}/weights_sum.csv",
                               "--psi", "power:2"]),
]

# one chunk (1024 trials) and one trial past it, on one thread and on two
for trials in ("1024", "1025"):
    for workers in ("1", "2"):
        CORPUS.append((f"simulate-softmax-trials{trials}-workers{workers}",
                       ["simulate", "--model", "gaussian", "--rule", "softmax:0.5", "--n", "9",
                        "--trials", trials, "--seed", "11", "--workers", workers]))


def _digest(text: str, tmp: str, src: str) -> str:
    text = text.replace(tmp, "<tmp>").replace(src, "<src>")
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="package source directory to run (default: this checkout's src/)")
    src = str(Path(ap.parse_args().src).resolve())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)
        for label, argv in CORPUS:
            args = [a.replace("{tmp}", tmp) for a in argv]
            proc = subprocess.run([sys.executable, "-m", "biasbound.cli", *args],
                                  capture_output=True, text=True, env=env, cwd=tmp)
            print(f"{label} exit={proc.returncode} "
                  f"stdout={_digest(proc.stdout, tmp, src)} "
                  f"stderr={_digest(proc.stderr, tmp, src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
