"""Run the anovabf command line as ``python -m anovabf`` does, under a Pacer.

Usage: ``python bench/paced_cli.py PACE.json ARGS...`` with ``src`` on
PYTHONPATH. The program gets ARGS, its streams and its exit status are its
own, and on the way out the speed samples (see pace.py) are written to
PACE.json: the wall time from here to the end, the time spent in the
probe and the mean speed ratio.
"""

import json
import os
import runpy
import sys
import time

from pace import Pacer


def main() -> None:
    began = time.perf_counter()
    pace_path = sys.argv[1]
    sys.argv[1:] = sys.argv[2:]
    sys.path[0] = os.getcwd()  # as under -m, not this file's directory
    pacer = Pacer()
    pacer.start()
    try:
        runpy.run_module("anovabf", run_name="__main__", alter_sys=True)
    finally:
        pacer.stop()
        wall = time.perf_counter() - began
        spent, ratio = pacer.since((0, 0.0))
        with open(pace_path, "w", encoding="utf-8") as handle:
            json.dump({"wall": wall, "spent": spent, "ratio": ratio, "samples": len(pacer.ratios)}, handle)


if __name__ == "__main__":
    main()
