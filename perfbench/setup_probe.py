"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is what a user pays before the first operation: importing chirpim,
building the workload's config, and building ``modem_config().fdss`` (chirp
coefficients plus FDSS normalisation).

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import chirpim  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
workload.config(int(sys.argv[2]), workload.chunk).modem_config().fdss
print(repr(time.perf_counter() - start))
