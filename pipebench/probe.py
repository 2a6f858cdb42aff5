"""Set-up probe: one fresh process doing what a user pays before the
first request is ready.

The parent times this process from spawn to the ``ready`` line it
prints.  The probe imports the request path (``repro.stdlib`` first, timed
on its own), builds the default engine, builds the workload's inputs and,
for ``serve-warm``, starts a supervisor with the default config over the
already-warm cache and waits for its first response.  Nothing else --
cache filling, reference checks, census -- happens here.

    python3 pipebench/probe.py --workload NAME --seed N --work DIR
"""

import argparse
import json
import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    import repro.stdlib  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work)
    workload.setup()
    pool = None
    try:
        if args.workload == "serve-warm":
            pool = workload.start_pool()
            response = pool.submit(workload.requests[0])
            if not response.get("ok"):
                raise RuntimeError(f"first request failed: {response}")
        print(json.dumps({
            "ready": True, "import_s": import_s, "engine_ms": workload.engine_ms,
        }), flush=True)
    finally:
        if pool is not None:
            pool.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
