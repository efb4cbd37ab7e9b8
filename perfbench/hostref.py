"""The host's current speed, measured on work that is not edgemig's.

Usage: python3 hostref.py RESULT.json KIND

A fresh interpreter imports scipy.stats (interpreter start-up,
unmarshalling, shared-library loading and module execution of numpy and
scipy, which are most of what ``import edgemig.cli`` loads), then times a
fixed piece of work of the given kind:

- ``interp``: a pure-Python loop of object allocation, attribute and dict
  access and float arithmetic (the kind of work the simulator and the
  designer do), twenty times;
- ``memory``: drawing 2.5e6 random page numbers and ``numpy.unique`` of
  them (a sort over tens of MiB, the kind of work the dirty-set sampler
  does), twice.

The parent times the import from its own spawn, on the shared
CLOCK_MONOTONIC, as it does for child.py. The program under test never runs
here, so a change to edgemig cannot move these readings; only the host can.
run.py divides them out of its timings.
"""

import json
import sys
import time

import numpy
import scipy.stats  # noqa: F401  (the timed import)

T_READY = time.perf_counter()


class Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value


def interp() -> float:
    t0 = time.perf_counter()
    table: dict[int, Cell] = {}
    acc = 0.0
    window: list[float] = []
    for i in range(100_000):
        cell = Cell(i, i * 0.5)
        table[i & 1023] = cell
        acc += cell.value * 1.0001 - (cell.key % 7)
        window.append(acc)
        if len(window) > 500:
            window.clear()
    return time.perf_counter() - t0


def memory() -> float:
    t0 = time.perf_counter()
    rng = numpy.random.default_rng(0)
    numpy.unique(rng.integers(0, 1 << 18, size=2_500_000))
    return time.perf_counter() - t0


KINDS = {"interp": (interp, 20), "memory": (memory, 2)}


def main() -> int:
    work, repeats = KINDS[sys.argv[2]]
    times = [work() for _ in range(repeats)]
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"t_ready": T_READY, "work_s": times}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
