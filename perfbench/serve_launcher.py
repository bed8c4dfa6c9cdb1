"""Start ``repro serve`` pinned to one CPU, with a speed sampler and,
if asked, the span wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py OUT_PREFIX TRACE serve --socket ...

Everything after ``TRACE`` (0 or 1) is the normal ``repro`` command
line.  The daemon runs exactly as ``python -m repro serve`` would.  A
:class:`run.SpeedSampler` samples the daemon's CPU for its whole life;
at shutdown the samples and their start times go to
``OUT_PREFIX-speed.json``.  With ``TRACE`` 1, :mod:`tracing` records
from the start and its spans and plan-store write sizes go to
``OUT_PREFIX-spans.json`` (:meth:`tracing.Recorder.write`).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv):
    import tracing
    from run import SpeedSampler

    prefix, trace, repro_args = argv[0], argv[1] == "1", argv[2:]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = SpeedSampler().start()
    if trace:
        tracing.install()
        tracing.RECORDER.active = True
    try:
        with sampler.measuring():
            from repro.cli import main as repro_main

            return repro_main(repro_args)
    finally:
        sampler.stop()
        with open(prefix + "-speed.json", "w") as fh:
            json.dump({"stamps": sampler.stamps,
                       "samples": sampler.samples}, fh)
        if trace:
            tracing.RECORDER.active = False
            tracing.RECORDER.write(prefix + "-spans.json")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
