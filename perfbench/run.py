"""The biasbound benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Every job is a fresh Python process
(``job.py``) that imports biasbound from ``src/``, builds its inputs and does
one unit of work with ``workers=1``: one CLI invocation for the three CLI
workloads, a fixed batch of bound problems for ``solvers``.  Jobs run one
after another (a closed loop with one caller) until ``--seconds`` is spent.
The machine has two shared cores, so thread scaling is not measured.

Workloads (why each exists):

* ``argmax-n100``: ``simulate --model gaussian --n 100 --rule argmax``.
  Order-only rule: per-trial Philox construction and the trial loop dominate,
  and only the selected and probe uniforms go through the quantile.
* ``softmax-heavytail``: ``simulate --model heavytail --n 100 --rule
  softmax:0.5``.  A ``needs_values`` rule sends every coordinate through the
  bisection quantile, twice per trial (main pass and randomized replay).
* ``sweep-large-n``: ``sweep --model heavytail --n-list 1000,10000``.
  Per-element uniform generation dominates, not per-trial set-up; a
  batched engine that gains at n=100 but loses at large n shows here.
* ``solvers``: no simulation; seeded bound problems through the library
  API (``solvers.py``), where the inverse-conjugate and Orlicz solvers
  dominate.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median over jobs of spawn to biasbound imported and inputs
  built;
* ``wall_s``: median over jobs of spawn to report written and process
  exited;
* ``work_per_s``: trials completed in the run divided by the time spent
  inside ``run_experiment`` (or ``tightness_sweep``, counting the trials of
  every n) on the CLI workloads; bundles completed divided by solve time on
  ``solvers``;
* ``peak_rss_mb``: median over jobs of the process's maximum resident set
  size.

An operation is a CLI job or a bundle.  It fails on a nonzero exit, an
exception or a failed output check, and is counted in ``failed`` out of
``attempted``.

With ``--trace 1`` the last line reports the per-layer metrics instead:
jobs alternate untraced and traced (``spans.py``); busy and self times are
medians over the traced jobs, counts are those of one traced job (every
traced job does the same work), and the difference of the median traced and
untraced wall times is the tracing overhead.  The line before the result
holds run metadata and diagnostics (report hashes, failures, the bundle
latency distribution, which span group dominates self time).  Jobs write
under ``.perfbench_work/``, which is removed at the end.  ``--smoke`` runs
tiny sizes for the harness test.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 150

# trials per CLI job, or bundles per solvers job: (full size, smoke size)
WORKLOADS = {
    "argmax-n100": {
        "kind": "cli", "engine": "run_experiment", "trials": (65536, 2048),
        "argv": ["simulate", "--model", "gaussian", "--n", "100", "--rule", "argmax"]},
    "softmax-heavytail": {
        "kind": "cli", "engine": "run_experiment", "trials": (700, 50),
        "argv": ["simulate", "--model", "heavytail", "--n", "100", "--rule", "softmax:0.5"]},
    "sweep-large-n": {
        "kind": "cli", "engine": "tightness_sweep", "trials": (10240, 256),
        "n_list": (1000, 10000),
        "argv": ["sweep", "--model", "heavytail", "--n-list", "1000,10000"]},
    "solvers": {
        "kind": "solvers", "bundles": (25, 2),
        "sizes": ({"grid": 20, "rows": 20, "cols": 20, "sample": 1000},
                  {"grid": 3, "rows": 6, "cols": 6, "sample": 100})},
}

# per-layer metrics read from one span group: busy time, or an exact count
GROUP_TIMES = {
    "simulate.inverse_cdf.busy_s": "simulate.inverse_cdf",
    "simulate.select.busy_s": "simulate.select",
    "simulate.conditional_probs.busy_s": "simulate.conditional_probs",
    "simulate.tightness_sweep.busy_s": "simulate.tightness_sweep",
    "simulate.heavy_tail_beta_norm.busy_s": "simulate.heavy_tail_beta_norm",
    "cgf.inverse_conjugate.busy_s": "cgf.inverse_conjugate",
    "cgf.conjugate.busy_s": "cgf.conjugate",
    "orlicz.orlicz_bias_bound.busy_s": "orlicz.orlicz_bias_bound",
    "orlicz.luxemburg_norm.busy_s": "orlicz.luxemburg_norm",
    "orlicz.amemiya_norm.busy_s": "orlicz.amemiya_norm",
    "orlicz.inverse.busy_s": "orlicz.inverse",
}
GROUP_COUNTS = {
    "simulate.inverse_cdf.calls": ("simulate.inverse_cdf", "calls"),
    "simulate.inverse_cdf.values": ("simulate.inverse_cdf", "values"),
    "simulate.select.calls": ("simulate.select", "calls"),
    "simulate.conditional_probs.calls": ("simulate.conditional_probs", "calls"),
    "cgf.inverse_conjugate.calls": ("cgf.inverse_conjugate", "calls"),
    "cgf.evaluate.calls": ("cgf.evaluate", "calls"),
    "orlicz.psi.calls": ("orlicz.psi", "calls"),
    "orlicz.conjugate_value.calls": ("orlicz.conjugate_value", "calls"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no package source, a job could not start)."""


# ---------------------------------------------------------------------------
# jobs

def child_env() -> dict:
    # a fixed hash seed removes one source of process-to-process variation
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python_child(args: list) -> subprocess.CompletedProcess:
    """Run the interpreter on args; a failure means biasbound cannot be imported."""
    proc = subprocess.run([sys.executable, *args], cwd=str(ROOT), env=child_env(),
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"importing biasbound failed: {proc.stderr[-2000:]}")
    return proc


def run_job(spec: dict, workdir: Path, tag: str) -> dict:
    """Spawn job.py with spec; return its result plus wall time and peak RSS."""
    result_path = workdir / f"{tag}.json"
    stderr_path = workdir / f"{tag}.err"
    spec = dict(spec, src=str(SRC), result=str(result_path))
    with open(stderr_path, "w") as err:
        spawn_ns = time.monotonic_ns()
        spec["spawn_ns"] = spawn_ns
        proc = subprocess.Popen([sys.executable, str(HERE / "job.py"), json.dumps(spec)],
                                cwd=str(ROOT), env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 blocks without polling, so the exit time is exact
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        exit_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"exit": proc.returncode, "wall_s": (exit_ns - spawn_ns) / 1e9,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and result_path.exists():
        out.update(json.loads(result_path.read_text()))
    else:
        out["error"] = stderr_path.read_text()[-2000:]
    return out


def job_spec(name: str, seed: int, smoke: bool, trace: bool, workdir: Path) -> dict:
    w = WORKLOADS[name]
    size = 1 if smoke else 0
    if w["kind"] == "solvers":
        return {"kind": "solvers", "trace": trace, "seed": seed,
                "bundles": w["bundles"][size], "sizes": w["sizes"][size]}
    argv = w["argv"] + ["--trials", str(w["trials"][size]), "--seed", str(seed),
                        "--workers", "1", "--out", str(workdir / "report")]
    return {"kind": "cli", "trace": trace, "engine": w["engine"], "argv": argv}


def work_units(name: str, smoke: bool) -> int:
    """Trials (CLI workloads) or bundles (solvers) completed by one job."""
    w = WORKLOADS[name]
    size = 1 if smoke else 0
    if w["kind"] == "solvers":
        return w["bundles"][size]
    return w["trials"][size] * len(w.get("n_list", (1,)))


# ---------------------------------------------------------------------------
# output checks

@functools.lru_cache(maxsize=None)
def expected_max_gaussian(n: int) -> float:
    """E[max of n i.i.d. N(0,1)] by quadrature."""
    from scipy import integrate, special
    f = lambda x: x * n * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) \
        * special.ndtr(x) ** (n - 1)
    return integrate.quad(f, -12.0, 12.0, epsabs=1e-13, epsrel=1e-13, limit=400)[0]


def check_report(name: str, text: str) -> list:
    """Names of the failed output checks of one CLI report."""
    if name == "sweep-large-n":
        return check_sweep_csv(text)
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return ["report does not parse"]
    failed = [f"bound {b['name']} does not dominate"
              for b in report.get("bounds", [])
              if b.get("side") in ("upper", "two_sided") and b.get("dominates") is not True]
    if not report.get("bounds"):
        failed.append("report has no bounds")
    if name == "argmax-n100":
        mean = report["meta"]["selected_mean"]
        stderr = report["empirical"]["stderr"]
        if not abs(mean - expected_max_gaussian(100)) <= 4.0 * stderr:
            failed.append(f"selected_mean {mean!r} is not within 4 stderr of E[max]")
    return failed


def check_sweep_csv(text: str) -> list:
    lines = text.strip().splitlines()
    header = lines[0].split(",") if lines else []
    if header[:1] != ["n"] or len(lines) != 1 + len(WORKLOADS["sweep-large-n"]["n_list"]):
        return ["sweep CSV does not parse"]
    failed = []
    for line in lines[1:]:
        try:
            row = dict(zip(header, map(float, line.split(","))))
        except ValueError:
            return ["sweep CSV does not parse"]
        for key in ("empirical_bias", "stderr", "a_n", "frechet_ratio", "bound_pnorm"):
            if not math.isfinite(row[key]):
                failed.append(f"n={row['n']:g}: {key} is not finite")
        if not row["bound_pnorm"] >= row["empirical_bias"] - 3.0 * row["stderr"]:
            failed.append(f"n={row['n']:g}: bound_pnorm does not dominate")
    return failed


def judge_job(name: str, job: dict, workdir: Path, smoke: bool, diag: dict):
    """(attempted, failed) operations of one job; record hashes and failures."""
    kind = WORKLOADS[name]["kind"]
    if kind == "solvers":
        attempted = len(job.get("bundle_ns", [])) or WORKLOADS[name]["bundles"][int(smoke)]
        if job["exit"] != 0:
            diag["failures"].append(f"job exit {job['exit']}: {job.get('error', '')}")
            return attempted, attempted
        diag["failures"].extend(job["failures"])
        bad = {f.split(":")[0] for f in job["failures"]}
        return attempted, len(bad)
    report = workdir / "report"
    problems = []
    if job["exit"] != 0 or job.get("rc") != 0:
        problems.append(f"job exit {job['exit']} rc {job.get('rc')}: {job.get('error', '')}")
    elif not report.exists():
        problems.append("no report written")
    else:
        text = report.read_text()
        diag["report_sha256"].add(hashlib.sha256(text.encode()).hexdigest())
        problems = check_report(name, text)
    if report.exists():
        report.unlink()
    diag["failures"].extend(problems)
    return 1, int(bool(problems))


# ---------------------------------------------------------------------------
# metrics

def end_to_end(ok_jobs: list) -> dict:
    return {
        "setup_s": (statistics.median(j["setup_ns"] / 1e9 for j in ok_jobs), "s"),
        "wall_s": (statistics.median(j["wall_s"] for j in ok_jobs), "s"),
        "work_per_s": (sum(j["units"] for j in ok_jobs)
                       / (sum(j["work_ns"] for j in ok_jobs) / 1e9), "1/s"),
        "peak_rss_mb": (statistics.median(j["peak_rss_mb"] for j in ok_jobs), "MB"),
    }


def per_layer(traced: list, untraced: list, scipy_s: float) -> dict:
    """Per-layer metrics: times are medians over traced jobs, counts exact."""
    def median_of(fn):
        return statistics.median(fn(j["trace"], j) for j in traced)

    def group(t, key):
        return t["groups"].get(key, {"calls": 0, "busy_ns": 0, "self_ns": 0, "values": 0})

    def layer_self(t, layer):
        return sum(g["self_ns"] for k, g in t["groups"].items() if k.startswith(layer + "."))

    def share(ns, j):
        return ns / j["work_ns"] if j["work_ns"] else 0.0

    first = traced[0]["trace"]
    m = {name: (median_of(lambda t, j, k=key: group(t, k)["busy_ns"] / 1e9), "s")
         for name, key in GROUP_TIMES.items()}
    m.update({name: (group(first, key)[field], "count")
              for name, (key, field) in GROUP_COUNTS.items()})
    m["simulate.engine_self_s"] = (
        median_of(lambda t, j: group(t, "simulate.run_experiment")["self_ns"] / 1e9), "s")
    m["divergence.busy_s"] = (median_of(
        lambda t, j: t["layers"].get("divergence", {"busy_ns": 0})["busy_ns"] / 1e9), "s")
    m["divergence.calls"] = (first["layers"].get("divergence", {"calls": 0})["calls"], "count")
    m["bounds.self_s"] = (median_of(lambda t, j: layer_self(t, "bounds") / 1e9), "s")
    m["bounds.calls"] = (first["layers"].get("bounds", {"calls": 0})["calls"], "count")
    m["cli.main.self_s"] = (median_of(lambda t, j: layer_self(t, "cli") / 1e9), "s")
    m["cli.import_s"] = (statistics.median(j["import_ns"] / 1e9 for j in traced + untraced), "s")
    m["import.scipy_s"] = (scipy_s, "s")
    m["share.simulate.engine_self"] = (median_of(
        lambda t, j: share(group(t, "simulate.run_experiment")["self_ns"], j)), "ratio")
    m["share.simulate.inverse_cdf"] = (median_of(
        lambda t, j: share(group(t, "simulate.inverse_cdf")["busy_ns"], j)), "ratio")
    for layer in ("cgf", "orlicz"):
        m[f"share.{layer}"] = (median_of(
            lambda t, j, l=layer: share(t["layers"].get(l, {"busy_ns": 0})["busy_ns"], j)),
            "ratio")
    m["trace.overhead_s"] = (statistics.median(j["wall_s"] for j in traced)
                             - statistics.median(j["wall_s"] for j in untraced), "s")
    return m


def exact_counts(job: dict) -> dict:
    t = job["trace"]
    out = {k: g["calls"] for k, g in t["groups"].items()}
    out.update({f"{k}.values": g["values"] for k, g in t["groups"].items() if g["values"]})
    return out


def dominant_self(job: dict) -> dict:
    """The span group with the largest self time, as a share of the work time."""
    groups = job["trace"]["groups"]
    key = max(groups, key=lambda k: groups[k]["self_ns"])
    return {"group": key, "share": groups[key]["self_ns"] / job["work_ns"]}


def reason_confirmed(name: str, metrics: dict, dominant: dict) -> bool:
    if name == "solvers":
        return metrics["share.cgf"][0] + metrics["share.orlicz"][0] > 0.5
    want = ("simulate.inverse_cdf" if name == "softmax-heavytail"
            else "simulate.run_experiment")
    return dominant["group"] == want


def scipy_import_s() -> float:
    """Total self time of scipy modules from ``-X importtime``."""
    proc = python_child(["-X", "importtime", "-c", "import biasbound.cli"])
    total_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", line.strip())
        if m and (m.group(2) == "scipy" or m.group(2).startswith("scipy.")):
            total_us += int(m.group(1))
    return total_us / 1e6


# ---------------------------------------------------------------------------
# metadata

def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def run_metadata() -> dict:
    import numpy
    import scipy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}_cache"] = _read(index / "size").strip()
    model = re.search(r"^model name\s*:\s*(.*)$", _read("/proc/cpuinfo"), re.M)
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for f in src_files:
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": model.group(1) if model else None,
        **caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in src_files),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout's own .git, or None when it is not a repository."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(git / ref).strip()
        if not sha:
            packed = re.search(r"^([0-9a-f]{40}) " + re.escape(ref) + "$",
                               _read(git / "packed-refs"), re.M)
            sha = packed.group(1) if packed else ""
        return sha or None
    return head or None


# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: int, trace: bool, smoke: bool, workdir: Path):
    diag = {"failures": [], "report_sha256": set()}
    # warm the bytecode and file caches: users do not pay that on every run
    python_child(["-c", "import biasbound.cli"])
    scipy_s = scipy_import_s() if trace else None

    units = work_units(name, smoke)
    jobs = {False: [], True: []}
    attempted = failed = 0
    start = time.monotonic()
    pair = 0
    while True:
        # traced runs alternate which of the pair goes first
        order = ([True, False] if pair % 2 else [False, True]) if trace else [False]
        for traced in order:
            spec = job_spec(name, seed, smoke, traced, workdir)
            job = run_job(spec, workdir, f"job{pair}{'t' if traced else 'u'}")
            a, f = judge_job(name, job, workdir, smoke, diag)
            attempted += a
            failed += f
            if f == 0:
                job["units"] = units
                jobs[traced].append(job)
        pair += 1
        elapsed = time.monotonic() - start
        per_iteration = elapsed / pair
        if elapsed + per_iteration > seconds:
            break

    ok_untraced, ok_traced = jobs[False], jobs[True]
    if not ok_untraced or (trace and not ok_traced):
        raise BenchError("no job succeeded: " + "; ".join(diag["failures"][:5]))
    if trace:
        metrics = per_layer(ok_traced, ok_untraced, scipy_s)
        counts = [exact_counts(j) for j in ok_traced]
        dominant = dominant_self(ok_traced[0])
        diag.update({
            "traced_jobs": len(ok_traced), "untraced_jobs": len(ok_untraced),
            "exact_counts_repeat": all(c == counts[0] for c in counts),
            "dominant_self": dominant,
            "stated_reason_confirmed": reason_confirmed(name, metrics, dominant),
            "trace_overhead_share": metrics["trace.overhead_s"][0]
            / statistics.median(j["wall_s"] for j in ok_untraced),
            "spans": ok_traced[0]["trace"],
        })
    else:
        metrics = end_to_end(ok_untraced)
        diag["jobs"] = len(ok_untraced)
    if WORKLOADS[name]["kind"] == "solvers":
        diag["bundles_per_job"] = units
        lat = sorted(ns / 1e6 for j in ok_untraced for ns in j["bundle_ns"])
        q = statistics.quantiles(lat, n=100) if len(lat) > 1 else lat * 99
        diag["bundle_ms"] = {"samples": len(lat), "p50": statistics.median(lat),
                             "p95": q[94], "beyond_p95": sum(x > q[94] for x in lat)}
    else:
        diag["trials_per_job"] = units
    diag["report_sha256"] = sorted(diag["report_sha256"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, diag


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "biasbound" / "cli.py").is_file():
        print(f"error: no biasbound source under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, diag = run(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.smoke, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    meta = dict(run_metadata(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, smoke=args.smoke)
    print(json.dumps({"meta": meta, "diagnostics": diag}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
