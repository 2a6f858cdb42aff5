"""Count census: recompute a run's deterministic counts in a fresh process.

The benchmark starts this with another ``PYTHONHASHSEED`` than its own and
compares every count it reports with the numbers printed here; any
difference fails the run.  The census replays one cycle of the workload
with the span recorder counting.  For ``serve-warm`` it replays the
request mix in-process, through the worker's own ``CompileService``,
over the benchmark's warm cache.

    python3 pipebench/census.py --workload NAME --seed N --work DIR [--figure]
"""

import argparse
import json
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--serve-cache", default=None)
    parser.add_argument("--figure", action="store_true")
    args = parser.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import spans
    import workloads

    recorder = spans.Recorder(tag="c")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work, recorder)
    workload.setup()
    recorder.install()
    recorder.active = True
    if args.workload == "serve-warm":
        from repro.serve.service import CompileService

        workload.cache_dir = args.serve_cache
        service = CompileService(cache_dir=workload.cache_dir)
        for index, request in enumerate(workload.requests):
            workload.first_responses[str(index)] = service.handle(dict(request))
    else:
        workload.cycle()
    recorder.active = False
    recorder.uninstall()
    counts = dict(recorder.counts)
    counts.update(workload.counts(figure=args.figure))
    workload.close()
    print(json.dumps(counts, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
