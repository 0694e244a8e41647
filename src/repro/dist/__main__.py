"""``python -m repro.dist``: join a coordinator as a socket worker.

This is the command :func:`~repro.dist.submit.worker_command` spawns.
It imports only the distributed layer; the executors a unit needs load
when the first unit of their kind arrives.
"""

import sys

from .worker import main

if __name__ == "__main__":
    sys.exit(main())
