"""One benchmark job: a fresh process that imports biasbound, builds its
inputs, does one unit of workload work and writes its timings as JSON.

    python job.py SPEC_JSON

SPEC_JSON holds ``kind`` ("cli" or "solvers"), ``src`` (the package source
directory), ``spawn_ns`` (CLOCK_MONOTONIC when the parent spawned this
process), ``trace`` and ``result`` (the output path), plus the workload's
``argv`` and ``engine`` (cli) or ``seed``, ``bundles`` and ``sizes``
(solvers).  Tracing, when asked for, is installed after the import, so the
import is timed the same way in both modes.
"""

import json
import sys
import time


def _time_engine(sim, name, acc):
    """Time every call of ``simulate.<name>`` into acc[0] (nanoseconds)."""
    inner = getattr(sim, name)

    def timed(*args, **kwargs):
        t0 = time.monotonic_ns()
        try:
            return inner(*args, **kwargs)
        finally:
            acc[0] += time.monotonic_ns() - t0
    setattr(sim, name, timed)


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t0 = time.monotonic_ns()
    if spec["kind"] == "cli":
        import biasbound.cli as entry
    else:
        import biasbound as entry  # noqa: F401  (the import is what is timed)
    t_import = time.monotonic_ns()

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    out = {"import_ns": t_import - t0}
    if spec["kind"] == "cli":
        import biasbound.simulate as sim
        engine_ns = [0]
        _time_engine(sim, spec["engine"], engine_ns)
        argv = list(spec["argv"])
        t_setup = time.monotonic_ns()
        out["rc"] = entry.main(argv)
        out["work_ns"] = engine_ns[0]
    else:
        import solvers
        bundles = [solvers.make_bundle(spec["seed"], i, **spec["sizes"])
                   for i in range(spec["bundles"])]
        t_setup = time.monotonic_ns()
        out["rc"] = 0
        out["bundle_ns"], out["failures"] = [], []
        for bundle in bundles:
            t = time.perf_counter_ns()
            try:
                failed = solvers.solve(bundle)
            except Exception as exc:  # a bundle that raises is a failed operation
                failed = [f"{type(exc).__name__}: {exc}"]
            out["bundle_ns"].append(time.perf_counter_ns() - t)
            out["failures"].extend(f"bundle {bundle['index']}: {f}" for f in failed)
        out["work_ns"] = sum(out["bundle_ns"])
    out["setup_ns"] = t_setup - spec["spawn_ns"]
    if tracer is not None:
        out["trace"] = tracer.summary()
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
