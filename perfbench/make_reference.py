"""Regenerate perfbench/reference.json: each workload's output on its fixed
check input, as computed by the checked-out sfctok.

    python3 perfbench/make_reference.py [workload ...]

Only rerun this when an output change is intended; every benchmark run
compares its check op against these values.
"""

import json
import os
import shutil
import sys
import tempfile

import envstamp

envstamp.pin_blas_threads()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main(names):
    try:
        with open(workloads.REFERENCE_PATH) as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    for name in names or sorted(workloads.WORKLOADS):
        os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix="reference-", dir=os.path.join(ROOT, ".perfbench_tmp"))
        try:
            runner = workloads.Runner(workloads.WORKLOADS[name], 0, work_dir)
            runner.prepare(workloads.CHECK)
            out = runner.op(workloads.CHECK)
            problems = runner.check(out)
            if problems:
                raise SystemExit(f"{name}: output fails its checks: {problems}")
            refs[name] = workloads.signature(out)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(f"{name}: reference recorded")
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
