"""Write the golden fixtures in bench/golden from the current sources.

    PYTHONPATH=src python3 bench/make_golden.py [--seeds 128]

Regenerate only when an output is meant to change, and review the diff:
the benchmark counts any difference from these files as a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import workloads


def dump(name: str, obj) -> None:
    path = os.path.join(workloads.GOLDEN_DIR, name)
    if isinstance(obj, list):  # one verify row per line
        text = "[\n" + ",\n".join(json.dumps(x) for x in obj) + "\n]\n"
    else:
        text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=128, help="query digests for seeds 0..N-1")
    args = ap.parse_args()
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)

    for workload in ("survey-sweep", "object-sweep"):
        sweep = workloads.SweepWorkload(workload, False)
        sweep.run()
        dump(f"verify-{workload}.json", [workloads.row_record(r) for r in sweep.rows])

    stream = workloads.EnumerateWorkload()
    stream.run()
    dump("enumerate-stream.json", {
        "argv": workloads.ENUMERATE_ARGV,
        "bytes": stream.sink.bytes,
        "sha256": stream.sink.sha.hexdigest(),
        "exit": stream.rc,
        "objects": stream.sink.objects,
    })

    digests = {}
    for seed in range(args.seeds):
        work = workloads.QueryWorkload(seed)
        work.prepare()
        if work.cold_failed:
            raise SystemExit(f"seed {seed}: {work.cold_failed} round trips failed")
        digests[str(seed)] = work.digest()
    dump("bijection-queries.json", {
        "size": workloads.QUERY_SIZE,
        "count": workloads.QUERY_COUNT,
        "digests": digests,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
