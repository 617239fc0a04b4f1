"""Time a cold ``import irec`` plus ``load_model`` in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <model.lgm>

Prints the set-up seconds and, measured right after in the same process,
the median seconds of one host-speed calibration kernel run.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import irec  # noqa: E402

irec.model.load_model(sys.argv[2])
elapsed = time.perf_counter() - t0

import calib  # noqa: E402

print(elapsed, calib.sample())
