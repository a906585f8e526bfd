"""Steadiness check: do repeated runs of the same code agree within the bounds?

    python3 perfbench/steady.py [--out FILE]

Runs `run.py --trace 0` once per seed and workload of BENCHMARK.json, for
run_seconds each, in SETS independent sets of runs (set s uses seeds
s*1000 .. s*1000+SEEDS-1). For every end-to-end metric it reports the
median, the quartiles and the spread (interquartile range over median) of
each set, and whether
  * the spread stays within a third of the metric's bound (setup_s exempt),
  * every later set's median is no worse than the first set's by more than
    the bound.
For the times it also reports the same figures unscaled, from the
"# unscaled" line of each run, so that the two can be compared; those do
not count toward the verdict. Exits 1 when any check fails or a run is
incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SETS = 2
UNSCALED = "# unscaled "


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    unscaled = next(json.loads(line[len(UNSCALED):]) for line in lines
                    if line.startswith(UNSCALED))
    return {**json.loads(lines[-1]), "unscaled": unscaled}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values), q1, q3


def compare(label, sets, values_of, metric):
    """Print per-set figures and set agreement; True when the checks hold."""
    ok = True
    medians = []
    for s, runs in enumerate(sets):
        values = [values_of(r) for r in runs]
        sp, q1, q3 = spread(values)
        med = statistics.median(values)
        medians.append(med)
        steady = metric["name"] == "setup_s" or sp <= metric["bound"] / 3.0
        ok &= steady
        print(f"{label} set {s}: median {med:.5g} {metric['unit']} q1 {q1:.5g} q3 {q3:.5g} "
              f"spread {sp:.4f} (bound/3 {metric['bound'] / 3:.4f}) "
              f"{'ok' if steady else 'TOO WIDE'}")
    for s, med in enumerate(medians[1:], start=1):
        worse = (med - medians[0]) / medians[0]
        if metric["better"] == "higher":
            worse = -worse
        agree = worse <= metric["bound"]
        ok &= agree
        print(f"{label} set {s} vs set 0: {worse:+.4f} (bound {metric['bound']}) "
              f"{'agree' if agree else 'DISAGREE'}")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", help="write every run's result here as JSON")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    results = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for seed in range(s * 1000, s * 1000 + SEEDS):
                res = run_once(workload, seed, spec["run_seconds"])
                if not res["correct"] or res["failed"]:
                    print(f"{workload} seed {seed}: incorrect result {res}")
                    ok = False
                runs.append({"seed": seed, **res})
            sets.append(runs)
        results[workload] = sets
        for m in spec["end_to_end"]:
            name = m["name"]
            ok &= compare(f"{workload:10s} {name:14s}", sets,
                          lambda r: r["metrics"][name]["value"], m)
        for m in spec["end_to_end"]:
            name = m["name"]
            if name in sets[0][0]["unscaled"]:
                compare(f"{workload:10s} {name:14s} unscaled", sets,
                        lambda r: r["unscaled"][name], m)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
