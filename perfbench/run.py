#!/usr/bin/env python3
"""drifterm benchmark: replicated experiment grids timed end to end.

    python3 perfbench/run.py --workload linear_iid --seed 1 --seconds 18 --trace 0

Each workload in ``perfbench/workloads/`` is a JSON config read through
``drifterm.harness.config_from_dict``.  A call is what ``drifterm run`` (or,
for ``drift_report``, ``drifterm risk``) does with that config: one
``run_experiment(cfg, jobs=..., out_dir=...)`` or one ``risk_report``.  Call
``i`` of a run uses base seed ``seed * 1000003 + i``, so the seed fixes every
input.  After one untimed warm-up call at smoke size the benchmark makes
calls in a closed loop for ``--seconds`` and checks the output of every
call.  Between calls it times a fixed reference kernel (``Reference``), and
``wall_ref`` is the median over calls of a call's time over the kernel time
around it, which divides the machine's drifting speed out of the figure
that later changes are judged by.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` splits the time between untraced calls (at the workload's jobs, then
in-process if that differs) and traced in-process calls, and reports the
per-layer metrics: the lower median over traced calls of each figure per call.
``--smoke`` shrinks every workload to a tiny size.  The last line of stdout
is the result as JSON; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import LAYERS, Tracer, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_DIR = os.path.join(HERE, "workloads")
SEED_STRIDE = 1_000_003
SETUP_BEFORE, SETUP_AFTER = 2, 1  # set-up samples before and after the calls
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Figures read straight off the spans of one call: metric = span name + "_s".
TIMED_SPANS = (
    "processes.simulate",
    "hypotheses.fit",
    "risk.learning_error",
    "risk.excess_risk",
    "risk.l2_distance",
    "risk.discrepancy_sum",
    "risk.risk_report",
    "risk.drift_error",
    "harness.build_rate",
    "mixing.m_beta",
    "mixing.k_rho",
    "processes.mixing_profile",
    "rates.find_scale_constant",
    "rates.bound_certificate",
    "weights.make_weights",
    "harness.write_result",
    "harness.fit_slope",
)
COUNTED_SPANS = ("processes.simulate", "hypotheses.fit")
UNITS = (("_s", "s"), ("_bytes", "bytes"), ("_share", "ratio"))

SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
import drifterm.cli
from drifterm.harness import config_from_dict
with open(sys.argv[1], encoding="utf-8") as f:
    config_from_dict(json.load(f)["config"])
print(json.dumps([time.perf_counter() - start, drifterm.__file__]))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad workload)."""


def workload_names() -> list[str]:
    return sorted(f[: -len(".json")] for f in os.listdir(WORKLOAD_DIR) if f.endswith(".json"))


def load_workload(name: str, smoke: bool) -> dict:
    """The workload file, with its ``smoke`` overrides merged into the config when asked."""
    with open(os.path.join(WORKLOAD_DIR, f"{name}.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if smoke:
        spec["config"] = {**spec["config"], **spec["smoke"]}
    return spec


def import_drifterm():
    """Import drifterm from this checkout's ``src``, never from anywhere else."""
    init = os.path.join(SRC, "drifterm", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"drifterm sources not found at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import drifterm
    from drifterm import harness, hypotheses, processes, risk, weights

    if os.path.realpath(drifterm.__file__) != os.path.realpath(init):
        raise BenchError(f"imported drifterm from {drifterm.__file__}, not {init}")
    return harness, hypotheses, processes, risk, weights


def measure_setup(workload_file: str, samples: int) -> list[float]:
    """Seconds to import drifterm and build the config, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, workload_file],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, source = json.loads(out.stdout.strip().splitlines()[-1])
        if not os.path.realpath(source).startswith(os.path.realpath(SRC) + os.sep):
            raise BenchError(f"set-up imported drifterm from {source}")
        times.append(seconds)
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def environment(jobs: int, smoke: bool) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "jobs": jobs,
        "smoke": smoke,
    }


def _distance_attrs(kwargs, result) -> dict:
    return {"mode": result[2], "draws": kwargs["draws"]}


class Workload:
    """One workload's config, calls and output checks."""

    def __init__(self, name: str, spec: dict, seed: int, result_dir: str, modules) -> None:
        self.harness, self.hypotheses, self.processes, self.risk, self.weights = modules
        self.spec = spec
        self.kind = spec["call"]
        if self.kind not in ("run_experiment", "risk_report"):
            raise BenchError(f"workload {name}: unknown call {self.kind!r}")
        self.cfg = self.harness.config_from_dict(spec["config"])
        self.seed = seed
        self.result_dir = result_dir
        self.index = 0
        self.attempted = 0
        self.failed = 0

    def trace_targets(self) -> list:
        """Names to wrap in traced calls: as bound in harness and risk, and as
        the ``risk_report`` path looks them up in their own modules."""
        h, r = self.harness, self.risk
        return [
            (h, "simulate", "processes.simulate", None),
            (h, "fit_weighted_erm", "hypotheses.fit", None),
            (h, "learning_error", "risk.learning_error", None),
            (h, "excess_risk", "risk.excess_risk", None),
            (h, "drift_error", "risk.drift_error", None),
            (h, "build_rate", "harness.build_rate", None),
            (h, "mixing_profile", "processes.mixing_profile", None),
            (h, "m_beta", "mixing.m_beta", None),
            (h, "k_rho_sum", "mixing.k_rho", None),
            (h, "find_scale_constant", "rates.find_scale_constant", None),
            (h, "bound_certificate", "rates.bound_certificate", None),
            (h, "make_weights", "weights.make_weights", None),
            (h, "write_result", "harness.write_result", None),
            (h, "fit_slope", "harness.fit_slope", None),
            (r, "learning_error", "risk.learning_error", None),
            (r, "excess_risk", "risk.excess_risk", None),
            (r, "drift_error", "risk.drift_error", None),
            (r, "discrepancy_sum", "risk.discrepancy_sum", None),
            (r, "l2_distance", "risk.l2_distance", _distance_attrs),
            (self.processes, "simulate", "processes.simulate", None),
            (self.hypotheses, "fit_weighted_erm", "hypotheses.fit", None),
            (self.weights, "make_weights", "weights.make_weights", None),
            (r, "risk_report", "risk.risk_report", None),
        ]

    def call(self, jobs: int, tracer=None) -> tuple[float, int]:
        """Make one timed call and check it; returns (seconds, rows completed)."""
        base_seed = self.seed * SEED_STRIDE + self.index
        self.index += 1
        if self.kind == "run_experiment":
            fn, root = self._grid_call, "harness.run_experiment"
        else:
            fn, root = self._report_call, "bench.risk_call"
        if tracer is not None:
            fn = tracer.span(root, fn)
        start = time.perf_counter()
        outcome = fn(base_seed, jobs)
        seconds = time.perf_counter() - start
        attempted, failed, completed = (
            self._check_grid(outcome) if self.kind == "run_experiment"
            else self._check_reports(outcome)
        )
        self.attempted += attempted
        self.failed += failed
        return seconds, completed

    def _grid_call(self, base_seed: int, jobs: int):
        cfg = dataclasses.replace(self.cfg, base_seed=base_seed)
        try:
            return self.harness.run_experiment(cfg, jobs=jobs, out_dir=self.result_dir)
        except self.harness.HarnessError as exc:  # more than 1% of the rows failed
            return exc

    def _report_call(self, base_seed: int, jobs: int):
        cfg = self.cfg
        n = cfg.n_grid[0]
        spec = dataclasses.replace(cfg.process, n=n)
        reports = []
        for rep in range(cfg.replications):
            w = self.weights.make_weights(cfg.weights.specs(n)[0])
            class_spec = cfg.hypothesis.class_spec(spec, w.l2)
            path = self.processes.simulate(spec, base_seed * cfg.replications + rep)
            fit = self.hypotheses.fit_weighted_erm(path, w, class_spec)
            reports.append(self.risk.risk_report(fit, spec, w, n))
        return reports

    def grid_size(self) -> int:
        cfg = self.cfg
        return len(cfg.n_grid) * len(cfg.weights.specs(cfg.n_grid[0])) * cfg.replications

    def result_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.result_dir, f))
            for f in ("rows.csv", "manifest.json")
        )

    def _check_grid(self, result) -> tuple[int, int, int]:
        """Row count, finite non-negative values, slope band, rows.csv on disk."""
        expected = self.grid_size()
        if isinstance(result, Exception):
            return expected, expected, 0
        rows = result.rows
        failed = expected - len(rows)
        for row in rows:
            values = dataclasses.astuple(row)
            if not all(math.isfinite(v) and v >= 0 for v in values):
                failed += 1
        if self.cfg.slope_band is not None and not result.slope_pass:
            failed += 1
        with open(os.path.join(self.result_dir, "rows.csv"), encoding="utf-8") as f:
            if sum(1 for _ in f) != len(rows) + 1:
                failed += 1
        return expected, failed, len(rows)

    def _check_reports(self, reports) -> tuple[int, int, int]:
        """Finite non-negative terms, decomposition, pinned discrepancy sum."""
        pinned = self.spec["pinned_discrepancy_sum"][str(self.cfg.n_grid[0])]
        failed = 0
        for report in reports:
            terms = (report.excess_risk, report.learning_error, report.drift_error)
            if not all(math.isfinite(v) and v >= 0 for v in terms):
                failed += 1
            if not report.decomposition_ok:
                failed += 1
            dis = report.discrepancy_sum
            if dis is None or not abs(dis - pinned) <= 1e-9 * abs(pinned):
                failed += 1
        return self.cfg.replications, failed, len(reports)

    def measure(self, seconds: float, jobs: int, tracer=None) -> list[dict]:
        """Calls in a closed loop until ``seconds`` have passed (at least one).

        Untraced calls alternate with the reference kernel, so each call's
        ``ref`` is the mean of the kernel times just before and just after it.
        """
        samples = []
        reference = Reference(max(self.cfg.n_grid)) if tracer is None else None
        before = reference.time() if reference else None
        start = time.perf_counter()
        while True:
            root = len(tracer.spans) if tracer is not None else None
            wall, completed = self.call(jobs, tracer)
            sample = {"wall": wall, "completed": completed}
            if reference:
                after = reference.time()
                sample["ref"] = (before + after) / 2
                before = after
            if tracer is not None:
                sample["trace"] = summarize(tracer.spans, root)
                if self.kind == "run_experiment":
                    sample["result_bytes"] = self.result_bytes()
            samples.append(sample)
            if time.perf_counter() - start >= seconds:
                return samples


class Reference:
    """A fixed kernel timed between calls, to divide the machine's speed out.

    On a small shared machine the speed of a core drifts by up to 2x over
    seconds to minutes, so a run's call time is also reported in units of
    this kernel's time measured around each call.  The kernel mixes what
    drifterm spends its time on: the interpreter, small-array numpy
    dispatch, normal draws, streaming arithmetic on sample-long vectors, a
    small least-squares solve and a sort.  Its vectors are ``n`` long, the
    workload's largest sample size, so that its working set and its share of
    per-call numpy overhead resemble the workload's: on a shared machine,
    spells that slow long vectors by up to 2x can leave the short ones of a
    small cell as they were.  Each timing touches the same number of vector
    elements whatever ``n`` is.  It writes into buffers allocated once and
    never touches drifterm, so a change to the program leaves it as it is.
    """

    ELEMENTS = 24 * 8192  # vector elements per timing
    SMALL_OPS = 100  # small-array numpy calls per 8192 elements
    LOOP = 1000  # interpreter loop steps per 8192 elements

    def __init__(self, n: int) -> None:
        import numpy as np

        self.np = np
        self.rounds = max(1, self.ELEMENTS // n)
        self.small_ops = max(1, self.SMALL_OPS * n // 8192)
        self.loop = self.LOOP * n // 8192
        self.rows = min(n, 512)
        self.z = np.empty((n, 2))
        self.y = np.empty(n)
        self.buf = np.empty(n)
        self.head = np.empty(n // 2)
        self.coef = np.array([0.3, -0.2])
        self.ramp = np.arange(float(n)) * (-0.01 * 8192 / n)
        self.small = np.random.default_rng(7).standard_normal(8)

    def time(self) -> float:
        np, z, y, buf, head = self.np, self.z, self.y, self.buf, self.head
        rows = self.rows
        start = time.perf_counter()
        rng = np.random.default_rng(20240601)
        acc = 0.0
        for _ in range(self.rounds):
            rng.standard_normal(out=z)
            np.matmul(z, self.coef, out=y)
            np.multiply(y, y, out=buf)
            acc += buf.sum()
            np.cumsum(y, out=buf)
            np.exp(self.ramp, out=buf)
            acc += buf @ y
            head[:] = y[: len(head)]
            head.sort()
            acc += head[0]
            part = z[:rows]
            acc += np.linalg.solve(part.T @ part, part.T @ y[:rows]).sum()
            for _ in range(self.small_ops):
                acc += float(np.maximum(self.small * 2.0 + 1.0, 0.0).sum())
            acc += sum(j * 0.5 for j in range(self.loop))
        seconds = time.perf_counter() - start
        if not math.isfinite(acc):
            raise BenchError("reference kernel gave a non-finite sum")
        return seconds


def p90(values) -> float:
    """90th percentile, interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(samples, setup_times, peak_mb) -> dict:
    return {
        "wall_ref": (statistics.median(s["wall"] / s["ref"] for s in samples), "ref"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def call_summary(samples) -> dict:
    """Figures printed and recorded beside the metrics."""
    walls = [s["wall"] for s in samples]
    tail = p90(walls)
    return {
        "calls": len(walls),
        "wall_median_s": statistics.median(walls),
        "wall_p90_s": tail,
        "beyond_p90": sum(w > tail for w in walls),
        "ref_median_s": statistics.median(s["ref"] for s in samples),
        "rows_per_s": sum(s["completed"] for s in samples) / sum(walls),
    }


def call_layer_metrics(sample: dict) -> dict:
    """Per-layer figures of one traced call."""
    t = sample["trace"]
    busy, calls = t["busy"], t["calls"]
    figures = {f"{name}_s": busy.get(name, 0.0) for name in TIMED_SPANS}
    figures.update({f"{name}_calls": calls.get(name, 0) for name in COUNTED_SPANS})
    distances = [a for a in t["attrs"] if "mode" in a]
    monte_carlo = [a for a in distances if a["mode"] == "monte_carlo"]
    figures["risk.mc_share"] = len(monte_carlo) / len(distances) if distances else 0.0
    figures["risk.mc_draws"] = sum(a["draws"] for a in monte_carlo)
    figures["harness.self_s"] = t["root_self"] if t["root"] == "harness.run_experiment" else 0.0
    figures["harness.result_bytes"] = sample.get("result_bytes", 0)
    figures.update({f"{layer}.self_s": t["layer_self"].get(layer, 0.0)
                    for layer in LAYERS if layer != "harness"})
    return figures


def layer_shares(traced) -> dict:
    """Median share of each layer's self time in a traced call."""
    return {
        layer: statistics.median(s["trace"]["layer_self"].get(layer, 0.0) / s["trace"]["wall"]
                                 for s in traced)
        for layer in LAYERS
    }


def layer_metrics(traced, untraced_jobs, untraced_inproc, jobs) -> dict:
    """Each per-call figure's lower median over the traced calls, so counts stay whole."""
    per_call = [call_layer_metrics(s) for s in traced]
    metrics = {}
    for name in per_call[0]:
        unit = next((u for suffix, u in UNITS if name.endswith(suffix)), "count")
        metrics[name] = (statistics.median_low(c[name] for c in per_call), unit)
    traced_wall = statistics.median(s["wall"] for s in traced)
    jobs_wall = statistics.median(s["wall"] for s in untraced_jobs)
    inproc_wall = statistics.median(s["wall"] for s in untraced_inproc)
    metrics["harness.pool_efficiency"] = (traced_wall / (jobs * jobs_wall), "ratio")
    metrics["trace.overhead_s"] = (traced_wall - inproc_wall, "s")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names())
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up sample")
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for result files, spans and scratch output")
    return ap.parse_args(argv)


def run(args) -> dict:
    spec = load_workload(args.workload, args.smoke)
    jobs = int(spec["jobs"])
    # One BLAS thread per process: jobs x 1 <= nproc, and no idle BLAS
    # threads spin beside the interpreter on a machine this small.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    modules = import_drifterm()

    os.makedirs(args.out, exist_ok=True)
    result_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        work = Workload(args.workload, spec, args.seed, result_dir, modules)
        # The warm-up call (lazy imports, first calls into every layer) runs
        # at smoke size, so it costs a fraction of a full call.
        warm = Workload(args.workload, load_workload(args.workload, smoke=True),
                        args.seed, result_dir, modules)
        env = environment(jobs, args.smoke)
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
              f"seconds={args.seconds:g} jobs={jobs}")
        print("env " + json.dumps(env, sort_keys=True))
        record = {"workload": args.workload, "seed": args.seed, "env": env}
        if args.trace == 0:
            # Set-up samples before and after the calls, so their median
            # spans the run as the call times do.
            workload_file = os.path.join(WORKLOAD_DIR, f"{args.workload}.json")
            setup = measure_setup(workload_file, 1 if args.smoke else SETUP_BEFORE)
            warm.call(jobs)
            samples = work.measure(args.seconds, jobs)
            peak_mb = peak_rss_mb()  # before more set-up children start
            setup += measure_setup(workload_file, 0 if args.smoke else SETUP_AFTER)
            metrics = end_to_end_metrics(samples, setup, peak_mb)
            summary = call_summary(samples)
            print(" ".join(f"{k}={v:.6g}" for k, v in summary.items())
                  + f" setup_samples={len(setup)}")
            record.update(summary, call_s=[s["wall"] for s in samples],
                          ref_s=[s["ref"] for s in samples], setup_s=setup)
        else:
            tracer = Tracer()
            warm.call(jobs)
            phases = 3 if jobs > 1 else 2
            share = args.seconds / phases
            untraced = work.measure(share, jobs)
            inproc = work.measure(share, 1) if jobs > 1 else untraced
            with tracer.patched(work.trace_targets()):
                traced = work.measure(share, 1, tracer)
            metrics = layer_metrics(traced, untraced, inproc, jobs)
            shares = layer_shares(traced)
            print("self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
            print(f"calls: untraced={len(untraced)} in-process={len(inproc)} traced={len(traced)}")
            tracer.write(os.path.join(args.out, f"spans-{args.workload}.jsonl"))
            record.update(traced_calls=[s["wall"] for s in traced])
        for name, (value, unit) in metrics.items():
            print(f"  {name:30s} {value:14.6g} {unit}")
        attempted, failed = work.attempted + warm.attempted, work.failed + warm.failed
        print(f"  {'fail_frac':30s} {failed / attempted:14.6g} ({failed} failed of {attempted})")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        record["result"] = result
        with open(os.path.join(args.out, f"result-{args.workload}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        return result
    finally:
        shutil.rmtree(result_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
