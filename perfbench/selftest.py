"""Self-test of the benchmark's own contract.

    python3 perfbench/selftest.py

For every workload it runs run.py on seed 0 with --trace 0 and --trace 1 and
checks that the last line carries exactly the metrics BENCHMARK.json lists, that
the run is correct, and that every per-layer metric of tracing.PER_LAYER is
nonzero on its home workload. It also checks that run.py fails, without a
result line, in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run(cwd, workload, traced):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(traced)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for traced, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, workload, traced)
            if done.returncode != 0:
                problems.append(f"{workload} trace {traced}: exit {done.returncode}\n{done.stderr}")
                continue
            result = last_json(done.stdout)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {traced}: incorrect result")
            want = {m["name"] for m in spec[section]}
            got = set(result["metrics"])
            if got != want:
                problems.append(f"{workload} trace {traced}: metrics {sorted(got ^ want)} "
                                "differ from BENCHMARK.json")
            if traced:
                for name, (home, _) in tracing.PER_LAYER.items():
                    home_here = home == "all" or home in workloads.WORKLOADS[workload]
                    if home_here and not result["metrics"][name]["value"]:
                        problems.append(f"{name} is zero on its home workload {workload}")
            print(f"{workload} trace {traced}: checked", flush=True)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("run.py did not fail cleanly without the program's sources")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL:", problem)
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
