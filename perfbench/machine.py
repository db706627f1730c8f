"""Machine facts for comparing benchmark figures across boxes.

    PYTHONPATH=src python3 perfbench/machine.py

Prints nproc, the Python, numpy and BLAS versions, and the time of a
10-million-iteration pure-Python loop (the median of three).
"""

import os
import platform
import statistics
import time

import numpy as np


def loop_seconds(n: int = 10_000_000) -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x += i
    return time.perf_counter() - t0


def blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


if __name__ == "__main__":
    print(f"nproc: {os.cpu_count()}")
    print(f"python: {platform.python_version()}")
    print(f"numpy: {np.__version__}")
    print(f"blas: {blas()}")
    print(f"10M-iteration loop: {statistics.median(loop_seconds() for _ in range(3)):.2f} s")
