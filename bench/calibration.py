"""Machine-speed yardstick for the benchmark's end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over minutes, which swamps any change in the program. The benchmark
therefore runs a fixed piece of work, independent of ``momenta``, between
ops and reports each timing in *reference seconds*: the measured seconds
scaled by ``REFERENCE_S / t_cal``, where ``t_cal`` is the yardstick's time
measured around that op. Set-up time has a yardstick of its own, a fresh
interpreter that imports numpy (``BASELINE_SNIPPET``). A slower program still
reads slower; a slower host does not. The raw seconds are printed in the
provenance line.

The work mixes what the ``momenta`` layers spend their time on at the sizes
the workloads use: Jacobi-style complex rotations applied to the rows and
columns of a small numpy array, building and serializing report-like records,
and numpy algebra on 6x6 arrays. It stays on one core, as the ops mostly do.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

#: Median yardstick time on the machine the bounds were set on (2-core
#: Intel Xeon VM); it only sets the scale of the reported numbers.
REFERENCE_S = 0.007

#: Yardstick runs per calibration point. Their mean is kept, not their
#: minimum: the host switches between a fast and a slow state many times a
#: second, and an op lasting longer than that runs at the average speed.
REPEATS = 3

#: Points on each side of an op whose mean scales it. The yardstick is short
#: and noisy; ops are many and their speed changes over seconds, not ops.
WINDOW = 2

#: Set-up time follows the host's process start-up and import speed, which
#: drifts on its own and not with the op yardstick. Its yardstick is a fresh
#: interpreter running this, spawned alternately with the measured ones;
#: numpy is what ``momenta --version`` spends most of its import time on.
BASELINE_SNIPPET = "import numpy"

#: Median time of the baseline spawn on the same VM.
SETUP_REFERENCE_S = 0.22

_N = 8
_H = np.array([[complex(math.sin(7 * i + j), math.cos(i + 3 * j))
                for j in range(_N)] for i in range(_N)])
_H = (_H + _H.conj().T) / 2.0


def _rotations() -> float:
    h = _H.copy()
    for _ in range(3):
        for p in range(_N - 1):
            for q in range(p + 1, _N):
                b = h[p, q]
                ab = abs(b) + 1e-300
                t = (h[q, q].real - h[p, p].real) / (2.0 * ab)
                t = math.copysign(1.0, t) / (abs(t) + math.hypot(1.0, t))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c * (b / ab)
                x, y = h[:, p].copy(), h[:, q]
                h[:, p] = c * x - s.conjugate() * y
                h[:, q] = s * x + c * y
                x, y = h[p, :].copy(), h[q, :]
                h[p, :] = c * x - s * y
                h[q, :] = s.conjugate() * x + c * y
    return float(h[0, 0].real)


def _records() -> float:
    records = [{"check": f"c{i % 7}", "seed": i, "passed": i % 3 == 0,
                "margin": math.sin(i) * 1e-3, "detail": [i / 3.0, str(i)]}
               for i in range(250)]
    return float(len(json.loads(json.dumps({"records": records}))["records"]))


def _small_algebra() -> float:
    m = _H[:6, :6]
    acc = 0.0
    for _ in range(100):
        m = (m + m.conj().T) / 2.0
        acc += float(np.linalg.norm(m - np.trace(m).real / 6.0))
        m = m @ m / max(acc, 1.0)
    return acc


def work() -> float:
    """One fixed unit of work; returns a value so that nothing is skipped."""
    return _rotations() + _records() + _small_algebra()


def point() -> float:
    """Seconds of one yardstick unit now: the mean of ``REPEATS`` runs."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        work()
    return (time.perf_counter() - t0) / REPEATS


def scale(seconds: float, t_cal: float) -> float:
    """``seconds`` in reference seconds, at yardstick time ``t_cal``."""
    return seconds * REFERENCE_S / t_cal


def scale_setup(seconds: float, baseline: float) -> float:
    """A set-up time in reference seconds, given the baseline spawn's time."""
    return seconds * SETUP_REFERENCE_S / baseline


def scale_between(seconds: list[float], points: list[float]) -> list[float]:
    """Each of a run of timings in reference seconds.

    ``points[i]`` is taken just before ``seconds[i]`` and ``points[i + 1]``
    just after it; a timing is scaled by the mean of up to ``WINDOW`` points
    on either side of it.
    """
    assert len(points) == len(seconds) + 1
    out = []
    for i, t in enumerate(seconds):
        near = points[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        out.append(scale(t, sum(near) / len(near)))
    return out
