"""Direct calls of ``edgemig.simnet.dirty_set_size`` at growing write counts.

Usage: python3 sampler_probe.py SRC_DIR SEED RESULT.json

Times the draw at 1e5, 1e6 and 1e7 expected writes over 2**18 pages (the
median of several calls where they are cheap), then repeats the 1e7 call
under tracemalloc for its peak allocation. Shows how the sampler's cost
grows with the number of writes, separately from any workload.
"""

import json
import statistics
import sys
import time
import tracemalloc

PAGES = 1 << 18
REPEATS = {"w1e5": (1e5, 7), "w1e6": (1e6, 3), "w1e7": (1e7, 1)}


def main() -> int:
    src, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    from edgemig.simnet import dirty_set_size

    result = {}
    for key, (writes, repeats) in REPEATS.items():
        times = []
        for i in range(repeats):
            t0 = time.perf_counter()
            distinct = dirty_set_size(writes, 1.0, PAGES, seed + i)
            times.append(time.perf_counter() - t0)
            if not 0 < distinct <= PAGES:
                print(f"{key}: {distinct} distinct pages", file=sys.stderr)
                return 1
        result[f"simnet.dirty_set_size.{key}_s"] = statistics.median(times)
    tracemalloc.start()
    dirty_set_size(1e7, 1.0, PAGES, seed)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    result["simnet.dirty_set_size.w1e7_peak_mb"] = peak / (1 << 20)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
