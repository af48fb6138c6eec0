"""mirrorsobol benchmark: fixed CLI workloads run as a closed loop from one client.

    python3 perfbench/run.py                                   # every workload, summary table
    python3 perfbench/run.py --workload auto-1d --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --record-references               # rewrite references.json

Each run is one fresh process (`child.py`, which imports mirrorsobol.cli and
calls `cli.main` with the workload's arguments); the client waits for it to
exit before it launches the next.  BLAS is pinned to one thread in every
run.  Every artifact is checked against references.json.  The last line of
standard output is one JSON object: end-to-end metrics with `--trace 0`,
per-layer metrics (from one traced run next to untraced ones) with
`--trace 1`.  Details of every run, and the spans of a traced run, go to
perfbench/_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
RESULTS = os.path.join(HERE, "_results")
WORK = os.path.join(HERE, "_work")

BUDGET_S = 170.0  # one invocation ends well inside three minutes
SETUP_PROBES = 2  # import-only processes per invocation, on top of one per run
REFERENCE_SEEDS = tuple(range(20))
RTOL = 1e-9

END_TO_END = {"wall_s": "s", "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "bandwidth.beta_tables_s": "s",
    "bandwidth.beta_tables_peak_mb": "MB",
    "bandwidth.target_s": "s",
    "bandwidth.target_peak_mb": "MB",
    "bandwidth.virtual_outputs_s": "s",
    "bandwidth.grid_s": "s",
    "bandwidth.grid_evals": "count",
    "bandwidth.curve_self_s": "s",
    "estimator.estimate_sobol_s": "s",
    "estimator.estimate_sobol_calls": "count",
    "estimator.estimate_t_s": "s",
    "estimator.estimate_t_calls": "count",
    "estimator.peak_mb": "MB",
    "estimator.window_pairs": "count",
    "estimator.ns_per_window_pair": "ns",
    "baselines.nn_s": "s",
    "baselines.nn_calls": "count",
    "baselines.pf_s": "s",
    "baselines.rank_s": "s",
    "testbed.study_s": "s",
    "testbed.variance_oracles_s": "s",
    "testbed.pool_busy_frac": "1",
    "testbed.contention_ratio": "1",
    "inputs.draw_s": "s",
    "inputs.draw_calls": "count",
    "kernels.build_kernel_s": "s",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.artifact_bytes": "B",
    "process.user_cpu_s": "s",
    "process.sys_cpu_s": "s",
    "result.sobol_abs_err": "1",
    "trace.run_s": "s",
    "trace.overhead_frac": "1",
    "trace.attributed_frac": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    truth: float  # Sobol' index of the mask under the model
    seeded: bool  # only `estimate` honours --seed; studies always use seeds 0..N-1
    threads: int = 1
    n: int = 0
    d: int = 1

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def artifact(self) -> str:
        return self.command + (".json" if self.command == "estimate" else ".csv")

    def cli_args(self, seed: int) -> list:
        return list(self.args) + (["--seed", str(seed)] if self.seeded else [])

    def h_range(self) -> tuple:
        """Bounds of the --auto candidate grid on the unit box."""
        return ((0.05 * self.n) ** (-1.0 / self.d) * (1 - 1e-12), 1.0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "auto-1d",
            ("estimate", "--model", "linear3", "--n", "4000", "--mask", "1", "--auto"),
            truth=1.0 / 3.0,
            seeded=True,
            n=4000,
            d=1,
        ),
        Workload(
            "auto-2d",
            ("estimate", "--model", "product", "--n", "2000", "--mask", "1,2", "--auto"),
            truth=1.0,
            seeded=True,
            n=2000,
            d=2,
        ),
        Workload(
            "coverage-2d",
            ("coverage", "--model", "product", "--n", "2000", "--mask", "1,2", "--rule", "1.0", "0.375")
            + ("--seeds", "20", "--threads", "2"),
            truth=1.0,
            seeded=False,
            threads=2,
        ),
        Workload(
            "compare-1d",
            ("compare", "--model", "linear3", "--mask", "1", "--n", "4000", "--rule", "1.0", "0.4")
            + ("--seeds", "50", "--estimators", "kernel,pf,nn,rank"),
            truth=1.0 / 3.0,
            seeded=False,
        ),
    )
}


class ProgramUnavailable(Exception):
    """The program under test cannot be imported; no result can be reported."""


# --------------------------------------------------------------------------
# one process


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MIRRORSOBOL_OUTPUT_DIR", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list, cwd: str, stdout, deadline: float) -> tuple:
    """Start one process and reap it with wait4: (launch time, exit code, wall s, rusage).

    The process is killed if it is still running at `deadline`.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout)
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, proc.returncode, wall, usage


def launch(mode: str, workload: Workload, seed: int, workdir: str, deadline: float) -> dict:
    """Run child.py once in a clean `workdir`; the process is reaped with wait4."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    timing_path = os.path.join(workdir, "timing.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), timing_path, mode, str(workload.threads), "--"]
    argv += workload.cli_args(seed)
    with open(os.path.join(workdir, "stdout.txt"), "wb") as out:
        t0, rc, wall, usage = spawn(argv, workdir, out, deadline)
    with open(os.path.join(workdir, "stdout.txt"), encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    try:
        with open(timing_path, encoding="utf-8") as fh:
            timing = json.load(fh)
    except (OSError, ValueError):
        timing = {}
    rec = {
        "mode": mode,
        "seed": seed,
        "rc": rc,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "user_cpu_s": usage.ru_utime,
        "sys_cpu_s": usage.ru_stime,
        "stdout": stdout[-2000:],
    }
    if "import_done" in timing:
        rec["setup_s"] = timing["import_done"] - t0
    for key in ("run_s", "layers", "spans"):
        if key in timing:
            rec[key] = timing[key]
    return rec


def check_run(workload: Workload, rec: dict, workdir: str, refs: dict) -> None:
    """Raise CheckError unless the run exited cleanly with a matching artifact."""
    if rec["rc"] != 0 or "run_s" not in rec:
        raise checks.CheckError(f"exit code {rec['rc']}: {rec['stdout'].strip()[:500]}")
    if '"error"' in rec["stdout"]:
        raise checks.CheckError(f"error payload: {rec['stdout'].strip()[:500]}")
    path = os.path.join(workdir, workload.artifact)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise checks.CheckError(f"missing artifact {workload.artifact}: {exc}") from None
    rec["artifact_bytes"] = len(text.encode("utf-8"))
    ref = refs["workloads"][workload.name]
    try:
        if workload.command == "estimate":
            values = checks.estimate_values(text)
            if values["seed"] != rec["seed"] or values["n"] != workload.n:
                raise checks.CheckError(f"artifact is for seed {values['seed']}, n {values['n']}")
            seed_ref = ref["seeds"].get(str(rec["seed"]))
            if seed_ref is not None:
                checks.check_estimate(values, seed_ref, refs["rtol"])
            else:
                checks.sanity_estimate(values, workload.truth, workload.h_range())
            rec["sobol_abs_err"] = abs(values["sobol"] - workload.truth)
        else:
            rows = checks.study_rows(text)
            checks.check_rows(rows, ref["rows"], refs["rtol"])
            rec["sobol_abs_err"] = float(next(r["rmse"] for r in rows if r["estimator"] == "kernel_sobol"))
    except (KeyError, ValueError, TypeError, StopIteration) as exc:
        raise checks.CheckError(f"malformed artifact: {type(exc).__name__}: {exc}") from None


# --------------------------------------------------------------------------
# one workload


def median(values):
    return statistics.median(values) if values else None


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (None, None)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    """Closed-loop runs of one workload; returns the result record."""
    start = time.perf_counter()
    deadline = start + BUDGET_S
    workdir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    try:
        # the first import in a fresh checkout also compiles bytecode; not timed
        warm = launch("setup", workload, seed, workdir, deadline)
        if warm["rc"] != 0 or "setup_s" not in warm:
            raise ProgramUnavailable(f"importing mirrorsobol.cli failed: exit code {warm['rc']}")
        probes = [] if trace else [launch("setup", workload, seed, workdir, deadline) for _ in range(SETUP_PROBES)]
        runs, failures = [], []

        def one(mode):
            rec = launch(mode, workload, seed, workdir, deadline)
            try:
                check_run(workload, rec, workdir, refs)
            except checks.CheckError as exc:
                rec["failure"] = str(exc)
                failures.append(f"{workload.name} seed {seed} ({mode}): {exc}")
                print(f"FAILED {failures[-1]}", file=sys.stderr)
            runs.append(rec)

        if trace:
            for mode in ("run", "trace", "memtrace"):
                one(mode)
        else:
            t_runs = time.perf_counter()
            while not runs or time.perf_counter() - t_runs < seconds:
                if runs and time.perf_counter() + 2 * max(r["wall_s"] for r in runs) > deadline:
                    break
                one("run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload.name, "seed": seed, "seconds": seconds, "probes": probes, "runs": runs, "failures": failures}


def end_to_end(result: dict) -> dict:
    runs = [r for r in result["runs"] if r["mode"] == "run"]
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "run_s": [r["run_s"] for r in runs if "run_s" in r],
        "setup_s": [r["setup_s"] for r in result["probes"] + runs if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return {name: samples[name] for name in END_TO_END}


def per_layer(result: dict) -> dict:
    untraced = [r for r in result["runs"] if r["mode"] == "run"]
    traced = next((r for r in result["runs"] if r["mode"] == "trace"), {})
    out = dict.fromkeys(PER_LAYER)  # None where a traced run failed
    for rec in result["runs"]:
        if "failure" not in rec:
            out.update(rec.get("layers", {}))
    base_run = median([r["run_s"] for r in untraced if "run_s" in r])
    out["process.user_cpu_s"] = median([r["user_cpu_s"] for r in untraced])
    out["process.sys_cpu_s"] = median([r["sys_cpu_s"] for r in untraced])
    out["cli.artifact_bytes"] = traced.get("artifact_bytes")
    out["result.sobol_abs_err"] = traced.get("sobol_abs_err")
    out["trace.run_s"] = traced.get("run_s")
    if out["trace.run_s"] is not None and base_run:
        out["trace.overhead_frac"] = out["trace.run_s"] / base_run - 1.0
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_in_runs": 1,
    }


def write_result(name: str, payload: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def metric_line(workload: str, name: str, values, unit: str) -> str:
    if not values:
        return f"{workload:12s} {name:14s} {'-':>12s} {unit:5s} no samples"
    q1, q3 = quartiles(values)
    return f"{workload:12s} {name:14s} {median(values):12.6g} {unit:5s} median of {len(values)} (q1 {q1:.6g}, q3 {q3:.6g})"


# --------------------------------------------------------------------------
# commands


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> None:
    refs = load_references()
    result = measure(WORKLOADS[name], seed, seconds, trace, refs)
    result["environment"] = environment()
    attempted, failed = len(result["runs"]), len(result["failures"])
    if trace:
        layers = per_layer(result)
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER.items()}
        for k, unit in PER_LAYER.items():
            print(f"{name:12s} {k:32s} {layers[k]!s:>22} {unit}")
    else:
        samples = end_to_end(result)
        metrics = {k: {"value": median(samples[k]), "unit": unit} for k, unit in END_TO_END.items()}
        for k, unit in END_TO_END.items():
            print(metric_line(name, k, samples[k], unit))
    write_result(f"{name}-seed{seed}-trace{int(trace)}.json", result)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_all(seed: int, seconds: float) -> int:
    refs = load_references()
    summary = {"environment": environment(), "workloads": {}}
    failed_total = 0
    for name, workload in WORKLOADS.items():
        result = measure(workload, seed, seconds, False, refs)
        samples = end_to_end(result)
        runs = result["runs"]
        fail_frac = len(result["failures"]) / len(runs)
        errs = [r["sobol_abs_err"] for r in runs if "sobol_abs_err" in r]
        for k, unit in END_TO_END.items():
            print(metric_line(name, k, samples[k], unit))
        print(f"{name:12s} {'fail_frac':14s} {fail_frac:12.6g} 1     {len(result['failures'])} of {len(runs)} runs")
        print(metric_line(name, "sobol_abs_err", errs, "1"))
        summary["workloads"][name] = {
            "metrics": {k: {"median": median(v), "samples": len(v), "unit": END_TO_END[k]} for k, v in samples.items()},
            "fail_frac": fail_frac,
            "sobol_abs_err": median(errs),
            "failures": result["failures"],
        }
        failed_total += len(result["failures"])
    write_result(f"summary-seed{seed}.json", summary)
    return 1 if failed_total else 0


def record_references() -> None:
    """Run every workload once per reference seed and store its checked values."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    refs = {
        "note": (
            "Reference artifact values of the program at git_sha, checked on every run. "
            "Study commands (coverage, compare) ignore --seed: the CLI always uses "
            "replicate seeds 0..N-1, so only the estimate workloads can be run on a held-out seed."
        ),
        "git_sha": sha,
        "environment": environment(),
        "rtol": RTOL,
        "workloads": {},
    }
    workdir = os.path.join(WORK, f"record-{os.getpid()}")
    try:
        for name, workload in WORKLOADS.items():
            seeds = REFERENCE_SEEDS if workload.seeded else (0,)
            entry = {}
            for seed in seeds:
                rec = launch("run", workload, seed, workdir, time.perf_counter() + 600)
                if rec["rc"] != 0:
                    raise SystemExit(f"{name} seed {seed} failed: {rec['stdout']}")
                with open(os.path.join(workdir, workload.artifact), encoding="utf-8") as fh:
                    value = checks.reference_record(workload.command, fh.read())
                if workload.seeded:
                    entry.setdefault("seeds", {})[str(seed)] = value
                else:
                    entry["rows"] = value
                print(f"recorded {name} seed {seed}", file=sys.stderr)
            refs["workloads"][name] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all, end-to-end only)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mirrorsobol", "cli.py")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    try:
        if args.record_references:
            record_references()
            return 0
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
