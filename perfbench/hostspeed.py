"""Host-speed probes, timed on the vCPU the workload runs on.

The host this benchmark was built on (a 2-vCPU virtual machine) switches
between fast and slow phases, up to a third apart in speed. A phase lasts
from under a second to minutes, differs between the two vCPUs and does not
show as steal time: the median purity session of one ten-second stretch can
read a third more CPU time than that of the next. Three fixed kernels track
the phase, each standing for one kind of work an ipsim session is made of:

- ``python``: a pure-Python integer loop (interpreter-bound bookkeeping);
- ``small_linalg``: 8x8 complex QR and matrix-vector products (small dense
  linear algebra, as in Haar masks and SWAP tests);
- ``memory``: integer passes over three 2 MiB uint64 buffers, 6 MiB in all,
  more than a core's 4 MiB L2 (streaming numpy kernels over large tables).

The phases move these kinds of work by different amounts, so each workload
is scaled by the kernel that matches its hot path (``Workload.probe``). No
kernel touches ipsim, and they run in a child process (``CalibrationProcess``)
that inherits the workload's CPU pin: the program's state cannot move them,
and their buffers stay out of the workload's CPU time and peak RSS.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

# ms a single run of each kernel takes in a fast phase; scaled times read as
# on a host where the workload's kernel takes this long
REFERENCE_MS = {"python": 0.8, "small_linalg": 0.8, "memory": 1.0}
REPEATS = 9  # a full calibration times a kernel this often; the median counts


class HostSpeed:
    """Holds the kernels' inputs; ``time`` runs one of them."""

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        normal = rng.standard_normal
        self._mats = [normal((8, 8)) + 1j * normal((8, 8)) for _ in range(8)]
        self._table = rng.integers(0, 1 << 61, size=1 << 18, dtype=np.uint64)
        self._bufs = (np.empty_like(self._table), np.empty_like(self._table))
        self.kernels = {
            "python": self._python,
            "small_linalg": self._small_linalg,
            "memory": self._memory,
        }

    @staticmethod
    def _python():
        acc = 0
        for i in range(10_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    def _small_linalg(self):
        out = {}
        for k in range(30):
            a = self._mats[k % 8]
            q, _ = self._np.linalg.qr(a)
            out[k % 17] = float(abs((q @ a[:, 0])[0]))
        return out

    def _memory(self):
        np, a, (hi, lo) = self._np, self._table, self._bufs
        np.right_shift(a, np.uint64(31), out=hi)
        np.bitwise_and(a, np.uint64(0x7FFFFFFF), out=lo)
        np.multiply(hi, lo, out=hi)
        np.add(hi, a, out=lo)
        return lo

    def time(self, kind: str, repeats: int) -> float:
        """Median in ms of ``repeats`` runs of one kernel, after one untimed
        run: a probe follows a session that has evicted the kernel's code and
        data from the caches, and how far it evicted them depends on the
        program, which must not move the reading."""
        kernel, times = self.kernels[kind], []
        kernel()
        for _ in range(repeats):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        return sorted(times)[repeats // 2] * 1e3


class CalibrationProcess:
    """A HostSpeed in a child process that inherits the caller's CPU pin."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def time(self, kind: str, repeats: int = 1) -> float:
        """One reading of one kernel: the median of ``repeats`` runs, in ms."""
        self._proc.stdin.write(f"{kind} {repeats}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended")
        return float(line)

    def calibrate(self) -> dict[str, float]:
        """A full reading: every kernel, each the median of REPEATS runs."""
        return {kind: self.time(kind, REPEATS) for kind in REFERENCE_MS}

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    host = HostSpeed()
    for request in sys.stdin:
        kind, repeats = request.split()
        print(host.time(kind, int(repeats)), flush=True)
