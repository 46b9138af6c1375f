"""Record the reference output digest of every pool instance in digests.json.

Run from the repository root, and only in a change that declares that the
reports change:

    python3 perfbench/record.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads
from run import HERE, OUT_DIR, ROOT


def main(argv) -> int:
    chosen = argv or list(workloads.WORKLOADS)
    sys.path.insert(0, str(ROOT / "src"))
    from permplace import cli

    path = HERE / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    work = OUT_DIR / "work-record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload in chosen:
            for key in workloads.all_keys(workload):
                op = workloads.Op(ROOT, work, workloads.instance(key))
                rc = cli.run(op.argv)
                if rc != 0:
                    print(f"{key}: exit code {rc}", file=sys.stderr)
                    return 1
                digests[key] = op.digest()
            print(f"{workload}: {len(workloads.all_keys(workload))} digests", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
