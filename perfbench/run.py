"""nnlslab benchmark: end-to-end metrics per workload, or per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trajectory --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One process runs one workload (see ``workloads.py``) through nnlslab's public
entry points, single-threaded.  It times set-up and the first pass in itself
and in fresh child processes, run one at a time, for ``FRESH_SHARE`` of the
window, then warm passes for the rest of ``--seconds``.  Every pass is checked
against ``reference.json``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload with and without tracing in child
processes, one at a time, and prints both tables.

End-to-end times are host-normalised.  On the shared 2-vCPU virtual machine
the benchmark was defined on, host speed drifts by about 30% over minutes and
changes within a second, so raw wall times do not repeat.  While a region is
timed, an interval timer runs a fixed pure-Python kernel every
``PROBE_PERIOD_S`` seconds; the kernel's own time is taken out of the
region's wall time and the remainder is scaled by ``PROBE_REFERENCE_S`` over
the kernel's mean time in that region.  Raw wall times are printed and saved
next to the normalised ones.

With ``--trace 1`` the run reports per-layer metrics from ``tracer.py`` for
one traced pass, checks that it returns bit-for-bit the outputs of an
untraced pass, and writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FRESH_SHARE = 0.5  # share of --seconds spent on fresh-process samples
MIN_WARM_PASSES = 2
CHILD_TIMEOUT_S = 170

PROBE_PERIOD_S = 0.05
PROBE_REFERENCE_S = 0.0016  # the kernel's median time on the 2-vCPU reference host

END_TO_END = (("wall_s", "s"), ("first_pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# span name -> reported fields; ``total_s`` counts outermost spans only
LAYER_SPANS = {
    "grid.forward_transform": ("calls", "self_s"),
    "grid.inverse_transform": ("calls", "self_s"),
    "grid.dealiased_product": ("calls", "self_s"),
    "grid.SpectralField": ("calls", "self_s"),
    "equations.nonlinear_term": ("calls", "self_s"),
    "equations.mass": ("calls", "self_s"),
    "equations.energy": ("calls", "self_s"),
    "equations.support_leakage": ("calls", "self_s"),
    "evolve.step": ("calls", "self_s"),
    "evolve.solve": ("calls", "total_s"),
    "evolve.picard_map": ("calls", "self_s"),
    "evolve.cumulative_simpson": ("calls", "self_s"),
    "evolve.picard_solve": ("calls", "total_s"),
    "spaces.esigma_norm": ("calls", "self_s"),
    "spaces.dilate": ("calls", "self_s"),
    "gauge.gauge_forward": ("calls", "self_s"),
    "experiments.third_derivative_field": ("calls", "self_s"),
    "experiments.exp_conservation": ("total_s",),
    "experiments.exp_support_invariance": ("total_s",),
    "experiments.exp_gauge_equivalence": ("total_s",),
    "experiments.exp_picard_window": ("total_s",),
    "experiments.exp_scaling_global": ("total_s",),
    "experiments.exp_norm_inflation": ("total_s",),
    "cli.run_experiment": ("total_s",),
    "cli.cmd_solve": ("total_s",),
    "cli.write_timeseries": ("self_s",),
}
LAYER_COUNTERS = (
    ("grid.dealiased_product.factors", "count"),
    ("grid.fft.calls", "count"),
    ("grid.fft.points", "count"),
    ("grid.fft.bytes_computed", "B"),
    ("equations.nonlinear_term.NNLS.calls", "count"),
    ("equations.nonlinear_term.NdNLS.calls", "count"),
    ("equations.nonlinear_term.GaugedNdNLS.calls", "count"),
    ("evolve.picard_solve.iterations", "count"),
    ("evolve.picard_solve.converged", "count"),
    ("cli.write_timeseries.rows", "count"),
)
RUN_LAYER = (("trace.overhead_s", "s"), ("trace.spans", "count"))


def per_layer_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for span, fields in LAYER_SPANS.items():
        out += [("%s.%s" % (span, f), "count" if f == "calls" else "s") for f in fields]
    return out + list(LAYER_COUNTERS) + list(RUN_LAYER)


# -- host-speed probe -------------------------------------------------------------


def _probe_kernel():
    # integer and complex arithmetic: the interpreter work nnlslab's small
    # array calls spend most of their time in
    s, z = 0, 0.5 + 0.25j
    for i in range(8000):
        s = (s * 31 + i) % 1000003
        z = z * (0.999 + 0.001j) + 1e-3
    return s, z


def probe_kernel_seconds():
    t0 = perf_counter()
    _probe_kernel()
    return perf_counter() - t0


class HostProbe:
    """Runs the probe kernel on a wall-clock interval timer while active."""

    def __init__(self):
        self.ticks = []  # (start, duration) of each kernel run
        self._previous = None

    def _tick(self, signum, frame):
        self.ticks.append((perf_counter(), probe_kernel_seconds()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args):
        """Run fn(*args) with the probe on; return (result, Sample)."""
        with self:
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
        inside = [d for start, d in self.ticks if t0 <= start <= t1]
        busy = sum(inside)
        if not inside:  # region shorter than one period
            inside = [probe_kernel_seconds()]
        return result, Sample(t1 - t0, busy, statistics.fmean(inside))


class Sample:
    """One timed region: raw wall seconds and the host-normalised value."""

    def __init__(self, wall, probe_busy, probe_mean):
        self.wall = wall
        self.normalised = (wall - probe_busy) * PROBE_REFERENCE_S / probe_mean


# -- package and workload ----------------------------------------------------------


def import_package():
    src = os.path.join(ROOT, "src")
    if not (os.path.isfile(os.path.join(src, "nnlslab", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        raise SystemExit("perfbench: no nnlslab source tree (src/nnlslab, configs/) under %s" % ROOT)
    sys.path.insert(0, src)
    from nnlslab import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: imported nnlslab from %s, not from %s" % (cli.__file__, src))
    return cli


def setup(workload, seed):
    """Import nnlslab, load the generated configs and build every input."""
    cli = import_package()
    configs = workloads.load_configs(cli, ROOT, workload, seed)
    workloads.build_inputs(cli, configs)
    return cli, configs


def call_pass(cli, configs, out_dir):
    """One pass: each operation's raw result, or the exception it raised."""
    results = []
    for op, cfg in configs:
        op_dir = os.path.join(out_dir, op[0])
        try:
            results.append(workloads.run_operation(cli, op, cfg, op_dir))
        except Exception:  # a raising operation counts as failed, the run goes on
            traceback.print_exc()
            results.append(None)
    return results


def checked_outputs(configs, results):
    """Each operation's (passed, outputs) with its spot check added, or None."""
    nnlslab = sys.modules["nnlslab"]
    out = []
    for (op, cfg), result in zip(configs, results):
        if result is None:
            out.append(None)
            continue
        passed, outputs = result
        try:
            extra = workloads.spot_check(nnlslab, op, cfg, outputs)
        except Exception:  # a raising spot check fails its operation
            traceback.print_exc()
            out.append(None)
            continue
        out.append((passed, dict(outputs, **extra)))
    return out


def check_pass(configs, results, reference):
    """Number of failed operations: not passed, raised, or off the reference."""
    failed = 0
    for (op, _), result in zip(configs, checked_outputs(configs, results)):
        if result is None:
            failed += 1
            continue
        passed, outputs = result
        bad = workloads.mismatches(outputs, reference[op[0]])
        if not passed or bad:
            print("FAILED %s: passed=%s, off the reference: %s" % (op[0], passed, bad or "none"))
            failed += 1
    return failed


def fresh_configs(configs):
    return [(op, copy.deepcopy(cfg)) for op, cfg in configs]


# -- end-to-end run ----------------------------------------------------------------


def fresh_process(workload, seed, reference):
    """Set-up and first pass, timed, in a process that has not run them yet.

    The record holds [raw, normalised] seconds for each of the two.
    """
    probe = HostProbe()
    (cli, configs), setup_sample = probe.timed(setup, workload, seed)
    results, first = probe.timed(call_pass, cli, fresh_configs(configs),
                                 os.path.join(OUT, workload))
    record = {"setup": [setup_sample.wall, setup_sample.normalised],
              "first": [first.wall, first.normalised],
              "attempted": len(configs), "failed": check_pass(configs, results, reference)}
    return cli, configs, probe, record


def fresh_child(workload, seed):
    """Run ``fresh_process`` in a child process; return its record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--fresh-child"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench: fresh child process exited %d" % proc.returncode)
    return json.loads(lines[-1])


def tail_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def end_to_end(workload, seed, seconds, reference):
    """Fresh-process samples for ``FRESH_SHARE`` of the window, then warm passes."""
    start = perf_counter()
    cli, configs, probe, own = fresh_process(workload, seed, reference)
    fresh = [own]
    while len(fresh) < 2 or perf_counter() - start < FRESH_SHARE * seconds:
        fresh.append(fresh_child(workload, seed))
    attempted = sum(r["attempted"] for r in fresh)
    failed = sum(r["failed"] for r in fresh)

    warm = []
    start = perf_counter()
    while len(warm) < MIN_WARM_PASSES or perf_counter() - start < (1 - FRESH_SHARE) * seconds:
        results, sample = probe.timed(call_pass, cli, fresh_configs(configs),
                                      os.path.join(OUT, workload))
        warm.append(sample)
        attempted += len(configs)
        failed += check_pass(configs, results, reference)

    metrics = {
        "wall_s": statistics.median(s.normalised for s in warm),
        "first_pass_s": statistics.median(r["first"][1] for r in fresh),
        "setup_s": statistics.median(r["setup"][1] for r in fresh),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "wall_s": [s.wall for s in warm],
        "wall_normalised_s": [s.normalised for s in warm],
        "fresh_processes": fresh,
        "probe_mean_s": statistics.fmean(d for _, d in probe.ticks),
        "probe_ticks": len(probe.ticks),
    }
    return attempted, failed, metrics, raw


# -- traced run --------------------------------------------------------------------


def per_layer(workload, seed, seconds, reference):
    cli, configs = setup(workload, seed)
    out_dir = os.path.join(OUT, workload)
    attempted = failed = 0
    mismatch = False
    tracer = None
    overheads = []

    def untraced():
        t0 = perf_counter()
        res = call_pass(cli, fresh_configs(configs), out_dir)
        return res, perf_counter() - t0

    start = perf_counter()
    results, _ = untraced()  # warm-up: lazy caches fill before timing
    attempted += len(configs)
    failed += check_pass(configs, results, reference)
    while tracer is None or perf_counter() - start < seconds:
        plain, plain_wall = untraced()
        current = Tracer()
        with current:
            t0 = perf_counter()
            traced = current.span("pass", call_pass)(cli, fresh_configs(configs), out_dir)
            traced_wall = perf_counter() - t0
        overheads.append(traced_wall - plain_wall)
        attempted += 2 * len(configs)
        failed += check_pass(configs, plain, reference) + check_pass(configs, traced, reference)
        if traced != plain:
            print("MISMATCH: traced outputs differ from untraced outputs")
            mismatch = True
        if tracer is None:
            tracer = current

    summary = tracer.summary()
    metrics = layer_metrics(summary, tracer.counts)
    off = {k: (metrics[k], v) for k, v in reference["trace"].items() if metrics[k] != v}
    attempted += 1  # the count check counts as one more operation
    if off:  # (traced, reference)
        print("FAILED traced pass: Picard counts off the reference: %s" % off)
        failed += 1
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.spans"] = len(tracer.spans)
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, "spans-%s.csv" % workload))
    return attempted, failed, mismatch, metrics, summary


def layer_metrics(summary, counts):
    """Per-layer metrics of one traced pass, except the RUN_LAYER ones."""
    metrics = {}
    for span, fields in LAYER_SPANS.items():
        row = summary.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for f in fields:
            metrics["%s.%s" % (span, f)] = row[f]
    for name, _ in LAYER_COUNTERS:
        metrics[name] = counts.get(name, 0)
    return metrics


# -- reporting ---------------------------------------------------------------------


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": sorted(m for m in sys.modules if m.startswith("numpy.fft._pocketfft")),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def run_one(args):
    reference = workloads.load_reference()[args.workload][str(workloads.variant(args.seed))]
    if args.trace:
        attempted, failed, mismatch, metrics, summary = per_layer(
            args.workload, args.seed, args.seconds, reference)
        units = dict(per_layer_names())
        correct = failed == 0 and not mismatch
        raw = {"spans": summary}
    else:
        attempted, failed, metrics, raw = end_to_end(args.workload, args.seed, args.seconds, reference)
        units = dict(END_TO_END)
        correct = failed == 0
    env = environment()
    print("workload %s (variant %d of seed %d): %s" % (
        args.workload, workloads.variant(args.seed), args.seed, workloads.WHY[args.workload]))
    print("environment: %s" % json.dumps(env))
    print("ops_failed = %d/%d = %.4g" % (failed, attempted, failed / attempted))
    for name, unit in units.items():
        print("%-48s %16.6g %s" % (name, metrics[name], unit))
    if args.trace:
        print("%-48s %10s %12s %12s" % ("span (traced pass)", "calls", "self_s", "total_s"))
        for name, row in sorted(raw["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print("%-48s %10d %12.6f %12.6f" % (name, row["calls"], row["self_s"], row["total_s"]))
    else:
        tail = tail_percentile(raw["wall_normalised_s"])
        n = len(raw["wall_normalised_s"])
        print("wall_s samples: %d warm passes; tail percentile: %s" % (
            n, "p%.0f = %.6g s" % tail if tail else "none (needs at least 11 samples)"))
        print("raw wall seconds: %s" % json.dumps(raw["wall_s"]))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"environment": env, "metrics": metrics, "samples": raw,
                   "attempted": attempted, "failed": failed}, fh, indent=1)
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own child process."""
    tables = {}
    ok = True
    for workload in workloads.OPERATIONS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s trace=%d: exit %d" % (workload, trace, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            tables.setdefault(trace, {})[workload] = result
    names = list(workloads.OPERATIONS)
    for trace, title in ((0, "end-to-end (host-normalised times)"), (1, "per-layer (traced pass)")):
        print("\n%s, seed %d" % (title, args.seed))
        print("%-48s %-6s" % ("metric", "unit") + "".join("%14s" % w for w in names))
        rows = END_TO_END if trace == 0 else per_layer_names()
        if trace == 0:
            print("%-48s %-6s" % ("ops_failed", "ratio") + "".join(
                "%14.4g" % (r["failed"] / r["attempted"]) if r else "%14s" % "-"
                for r in (tables.get(0, {}).get(w) for w in names)))
        for name, unit in rows:
            cells = []
            for w in names:
                r = tables.get(trace, {}).get(w)
                cells.append("%14.6g" % r["metrics"][name]["value"] if r else "%14s" % "-")
            print("%-48s %-6s" % (name, unit) + "".join(cells))
    return 0 if ok else 1


def main(argv=None):
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.OPERATIONS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fresh-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.fresh_child:
        reference = workloads.load_reference()[args.workload][str(workloads.variant(args.seed))]
        print(json.dumps(fresh_process(args.workload, args.seed, reference)[3]))
        return 0
    if args.workload == "all":
        import_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
