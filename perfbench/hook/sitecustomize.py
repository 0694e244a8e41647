"""Worker start-up hook for the traced ``survey-dist`` run.

The benchmark puts this directory on ``PYTHONPATH`` of the distributed
worker subprocesses only during traced iterations, with
``PERFBENCH_SPANS`` naming a directory.  Python imports
``sitecustomize`` at start-up, so each worker installs the same layer
wrappers as the driver and writes its spans there when it exits; the
driver merges them into the iteration's trace.
"""

import os

_SPANS_DIR = os.environ.get("PERFBENCH_SPANS")

if _SPANS_DIR:
    import atexit
    import sys

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.dirname(here))
    import spans

    _recorder = spans.Recorder()
    spans.Installation(_recorder)
    atexit.register(
        _recorder.dump,
        os.path.join(_SPANS_DIR, f"worker-{os.getpid()}.jsonl"),
        f"worker-{os.getpid()}",
    )
