"""Small shared utilities."""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


# No caller in the package since every psi comes from one solve. It stays
# only because perfbench/tracer.py wraps it by name and reports util.* from
# it; it goes with the next change to the benchmark.
def parallel_map(fn, items, jobs: int = 1) -> list:
    """Map preserving order; thread pool when jobs > 1 (the heavy kernels
    release the GIL inside numpy)."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
