"""Record the reference output digests that feed the changed-output count.

    python3 perfbench/record.py

Runs every workload once per input variant, checks the outputs with
checks.py and writes each job's digest to perfbench/reference.json. Run it
only on a commit whose outputs are the intended reference: run.py then flags
every job whose output differs from what was recorded here.
"""

import json
import shutil
import sys

import run  # pins BLAS threads before numpy is imported


def main():
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads
    from ipstable.cli import main as cli_main

    digests = {}
    for workload in workloads.WORKLOADS:
        digests[workload] = {}
        for variant in range(workloads.N_VARIANTS):
            workdir = run.OUT / f"record-{workload}-{variant}"
            try:
                jobs = workloads.build(workload, variant, workdir)
                _, _, exits = run.run_pass(jobs, cli_main)
                errors, _ = run.run_checks(jobs, exits, workdir, workloads)
                failed = {name: err for name, err in errors.items() if err}
                if failed:
                    print(f"{workload} variant {variant} fails its checks: {failed}",
                          file=sys.stderr)
                    return 1
                digests[workload][str(variant)] = {
                    job.name: checks.digest(job.digest) for job in jobs}
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{workload} variant {variant}: {len(jobs)} jobs recorded", flush=True)
    run.REFERENCE.write_text(json.dumps(
        {"variants": workloads.N_VARIANTS, "digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
