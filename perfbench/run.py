"""The ipstable benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload line-audit --seed 1 --seconds 50 --trace 0

Writes the workload's seeded inputs under .perfbench/ in the checkout, runs
one untimed warm-up pass over its job list, then timed passes until
--seconds is used up, each job an in-process call of `ipstable.cli.main`.
After the passes, checks.py verifies the outputs in a separate process and
every job's output digest is compared with reference.json.

The last stdout line is one JSON object. With --trace 0 its metrics are the
end-to-end ones (wall_s, job_s_geomean, setup_s, peak_rss_mb; the times in
reference seconds, see Calibration), and the line before it, starting with
"# unscaled ", holds the same times in plain seconds. With --trace 1
traced and untraced passes alternate and the metrics are the per-layer ones
of tracing.PER_LAYER plus the quality tripwires, error and change counts and
trace.overhead_frac; the `#` lines add each job group's self-time shares per
layer. Spans are written to .perfbench/trace-*.json. Metric units are those
of BENCHMARK.json.
"""

import os

# BLAS threads are fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import deque  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

MIN_PASSES = 3        # timed passes per run, even when --seconds runs out first
CAL_REF_S = 0.06      # calibration time that defines one reference second (see Calibration)
SETUP_SAMPLES = 9     # fresh-process imports behind setup_s
SETUP_CODE = ("import time; t = time.perf_counter(); import ipstable.cli; "
              "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(calibrate):
    """Median time, in seconds, to import ipstable.cli in a fresh interpreter.

    One untimed import comes first; a calibration runs before each import.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        calibrate()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Calibration:
    """A fixed mix of Python tree walks and numpy arithmetic, timed all through a run.

    The shared machine's speed drifts by tens of percent within minutes, for
    interpreted and numpy code alike. The calibration runs before every
    timed import and after every timed pass; `scale()` is CAL_REF_S over the
    median of all those samples. A time multiplied by it is in reference
    seconds: what it would have taken at the speed at which the calibration
    takes CAL_REF_S. One sample varies too much to scale one pass, so the
    whole run shares one scale. The calibration never touches ipstable, so
    a change to the program moves the scaled times exactly as it moves the
    plain ones.
    """

    NODES, STARTS, POINTS, DIM = 2000, 100, 600, 6

    def __init__(self):
        rng = np.random.default_rng(0)
        n = self.NODES
        self.adj = [[] for _ in range(n)]
        for child in range(1, n):
            parent, weight = int(rng.integers(child)), float(rng.uniform(1.0, 2.0))
            self.adj[parent].append((child, weight))
            self.adj[child].append((parent, weight))
        self.starts = range(0, n, n // self.STARTS)
        self.points = rng.normal(size=(self.POINTS, self.DIM))
        self.samples = []

    def scale(self):
        return CAL_REF_S / statistics.median(self.samples)

    def __call__(self):
        t0 = time.perf_counter()
        n = len(self.adj)
        for start in self.starts:
            dist = [-1.0] * n
            dist[start] = 0.0
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v, w in self.adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + w
                        queue.append(v)
        x = self.points
        d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        float((d @ d[:, :32]).sum())
        self.samples.append(time.perf_counter() - t0)


def run_pass(jobs, cli_main, tracer=None):
    """One pass over the job list: (pass wall time, per-job wall times, exit codes)."""
    walls, exits = {}, {}
    gc.collect()
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        span = None
        if tracer:
            tracer.job, tracer.group = job.name, job.group
            span = tracer.begin("cli.job")
        try:
            exits[job.name] = cli_main(list(job.argv))
        except (Exception, SystemExit) as exc:   # a crashing job is a failed job
            exits[job.name] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end(span)
        walls[job.name] = time.perf_counter() - t0
    return time.perf_counter() - start, walls, exits


def digests(jobs, checks):
    return {job.name: checks.digest(job.digest)
            if all(Path(p).is_file() for _, p in job.digest) else None for job in jobs}


def measure(jobs, cli_main, seconds, tracer, checks, calibrate):
    """Warm-up pass, then timed passes until `seconds` are used.

    With a tracer, traced passes alternate with untraced ones. A calibration
    follows every timed pass. Returns the untraced and traced pass times and
    each job's untraced times, in seconds, and the exit codes and digests of
    every pass, warm-up first.
    """
    _, _, exits = run_pass(jobs, cli_main)
    outputs = [(exits, digests(jobs, checks))]
    untraced, traced, job_walls = [], [], {job.name: [] for job in jobs}
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = tracer is not None and len(traced) < len(untraced)
        if use_trace:
            tracer.pass_index = len(traced)
            tracer.install()
            try:
                wall, walls, exits = run_pass(jobs, cli_main, tracer)
            finally:
                tracer.uninstall()
        else:
            wall, walls, exits = run_pass(jobs, cli_main)
        calibrate()
        if use_trace:
            traced.append(wall)
        else:
            untraced.append(wall)
            for name, t in walls.items():
                job_walls[name].append(t)
        outputs.append((exits, digests(jobs, checks)))
        done = len(untraced) >= MIN_PASSES and (tracer is None or len(traced) >= len(untraced))
        if done and time.perf_counter() + statistics.median(untraced) > deadline:
            return untraced, traced, job_walls, outputs


def run_checks(jobs, exits, workdir, workloads):
    """Check outputs in a separate process: ({job: error or None}, workload quality)."""
    manifest = workdir / "manifest.json"
    manifest.write_text(workloads.manifest(jobs))
    exits_path = workdir / "exits.json"
    exits_path.write_text(json.dumps(exits))
    result = workdir / "checks.json"
    subprocess.run([sys.executable, str(HERE / "checks.py"), str(manifest), str(exits_path),
                    str(result)], env=child_env(), cwd=ROOT, timeout=120, check=True)
    data = json.loads(result.read_text())
    return data["errors"], data["quality"]


def failures(jobs, outputs, errors):
    """{job: reason} and the failed job-run count.

    A job run fails when the job fails its check (judged on the last pass's
    outputs) or exits or writes differently from the warm-up pass.
    """
    first_exits, first_digests = outputs[0]
    reasons, failed = {}, 0
    for job in jobs:
        bad = sum(1 for exits, found in outputs
                  if errors[job.name] or exits[job.name] != first_exits[job.name]
                  or found[job.name] != first_digests[job.name])
        if bad:
            failed += bad
            reasons[job.name] = errors[job.name] or "exit code or output differs between passes"
    return reasons, failed


def load_reference(workload, variant):
    if not REFERENCE.is_file():
        return None
    digests = json.loads(REFERENCE.read_text())["digests"]
    return digests.get(workload, {}).get(str(variant))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ipstable" / "cli.py").is_file():
        print(f"error: no ipstable sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import tracing
    import workloads
    from ipstable.cli import main as cli_main

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        calibrate = Calibration()
        setup_s = measure_setup(calibrate) if args.trace == 0 else None
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced, job_walls, outputs = measure(jobs, cli_main, args.seconds,
                                                       tracer, checks, calibrate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors, quality = run_checks(jobs, outputs[-1][0], workdir, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reasons, failed = failures(jobs, outputs, errors)
    attempted = len(jobs) * len(outputs)
    variant = workloads.variant(args.seed)
    reference = load_reference(args.workload, variant)
    first_digests = outputs[0][1]
    changed = None if reference is None else sum(
        1 for job in jobs if reference.get(job.name) != first_digests[job.name])

    scale = calibrate.scale()
    lo, hi = quartiles(untraced)
    cal_lo, cal_hi = quartiles(calibrate.samples)
    print(f"# workload {args.workload} seed {args.seed} (input variant {variant}): "
          f"{len(untraced)} timed passes, pass wall median {statistics.median(untraced):.4f} "
          f"quartiles {lo:.4f}..{hi:.4f} s; {len(calibrate.samples)} calibrations, median "
          f"{statistics.median(calibrate.samples):.4f} quartiles {cal_lo:.4f}..{cal_hi:.4f} s, "
          f"scale {scale:.4f}")
    for group in workloads.WORKLOADS[args.workload]:
        members = [job.name for job in jobs if job.group == group]
        per_pass = [sum(t) for t in zip(*(job_walls[name] for name in members))]
        print(f"#   {group}: median {statistics.median(per_pass):.4f} s per pass")
        for name in members:
            print(f"#     {name}: median {statistics.median(job_walls[name]):.4f} s"
                  + (f"  FAILED: {reasons[name]}" if name in reasons else ""))
    if changed is None:
        print("# no reference digests for this input variant: outputs unchecked")
    elif changed:
        print(f"# {changed} job outputs differ from reference.json")

    if tracer is None:
        seconds = {
            "wall_s": statistics.median(untraced),
            "job_s_geomean": math.exp(statistics.fmean(
                math.log(statistics.median(v)) for v in job_walls.values())),
            "setup_s": setup_s,
        }
        print("# unscaled " + json.dumps(seconds))
        metrics = {name: t * scale for name, t in seconds.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
    else:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        for group, layers in tracer.group_shares().items():
            ranked = sorted(layers.items(), key=lambda item: -item[1])
            print(f"# {group} self-time shares: "
                  + ", ".join(f"{name} {100 * share:.1f}%" for name, share in ranked))
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        metrics["quality.error_rate"] = failed / attempted
        metrics["quality.changed_outputs"] = float(changed or 0)
        for key in ("unstable_frac", "max_violation_mean", "certificate_mean"):
            metrics[f"quality.{key}"] = quality[key]
    print(json.dumps({
        "correct": failed == 0 and changed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
