"""A serve worker that records spans for the requests marked to be traced.

It wraps the same public functions as the benchmark process (``spans.py``)
and runs the normal ``repro.serve.worker`` loop.  A request carrying
``bench_trace`` is recorded under its ``bench_rid`` request id, with the
client's ``bench_span`` as the parent of the worker's root span.  At exit
(the supervisor closes the worker's stdin) the spans and counts are
written to ``OUT_DIR/worker-<pid>.json``.

    python3 pipebench/traced_worker.py OUT_DIR [repro.serve.worker args...]
"""

import os
import sys


def main() -> int:
    out_dir, worker_args = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans
    import workloads
    from repro.serve import service, worker

    workloads.import_layers()
    recorder = spans.Recorder(tag=f"w{os.getpid()}")
    recorder.install()
    handle = service.CompileService.handle

    def traced_handle(self, request):
        if not request.get("bench_trace"):
            return handle(self, request)
        recorder.set_request(request.get("bench_rid"), request.get("bench_span"))
        recorder.active = True
        try:
            with recorder.span("serve.handle", "serve"):
                return handle(self, request)
        finally:
            recorder.active = False

    service.CompileService.handle = traced_handle
    try:
        return worker.main(worker_args)
    finally:
        recorder.dump(os.path.join(out_dir, f"worker-{os.getpid()}.json"))


if __name__ == "__main__":
    raise SystemExit(main())
