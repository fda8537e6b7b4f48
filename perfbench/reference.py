"""The reference loop the benchmark times beside every call.

    python3 perfbench/reference.py COMPONENTS POINTS DIM REPS

On a shared virtual machine the host's speed drifts by a third within
seconds, and a call and a fixed piece of work run just before and after it
drift together.  The loop here is that fixed work: numpy alone, in the shape
of one Monte Carlo step of the package.  It calls nothing of the package,
so a change to the program leaves its time alone.

It runs in a helper process of its own, so that its memory never enters the
peak resident memory of the workload process, and its allocations never
change how the workload's are served.  The helper runs the loop
once for every line it reads on standard input and answers with the wall
time of the loop; it exits at the end of its input.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

# How long the helper may take to answer, imports included.
ANSWER_TIMEOUT_S = 60

# glibc serves allocations of at least this many bytes from fresh pages when
# the threshold is set explicitly; left alone, it raises the threshold after
# the first large free and reuses the heap instead.
FRESH_PAGE_THRESHOLD = 128 * 1024


def loop(components, points, dim, reps):
    """Return a function that runs the loop and gives its wall time.

    Each repetition draws M points in d dimensions, forms the (M, J) matrix
    of squared distances to J centres through an (M, J, d) temporary, and
    takes a log-mixture and a mean responsibility from it, as a descent step
    does.  Every run draws the same numbers, so every run does the same work.
    """
    import numpy as np

    centres = np.random.default_rng(0).standard_normal((components, dim))
    log_w = np.full(components, -math.log(components))

    def seconds():
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        for _ in range(reps):
            x = rng.standard_normal((points, dim))
            log_k = -0.5 * ((x[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
            top = log_k.max(axis=1, keepdims=True)
            log_mix = top[:, 0] + np.log(np.exp(log_k - top + log_w).sum(axis=1))
            np.exp(log_k - log_mix[:, None]).mean(axis=0)
        return time.perf_counter() - t0

    return seconds


class Reference:
    """The helper process, used as a context manager; ``seconds()`` runs the loop once.

    With ``fresh_pages`` every large temporary of the loop is mapped anew and
    page-faulted in, so that a program that spends its kernel time that way
    is matched by a loop that does too.
    """

    def __init__(self, components, points, dim, reps, fresh_pages=False):
        self.args = [str(components), str(points), str(dim), str(reps)]
        self.env = dict(os.environ)
        if fresh_pages:
            self.env["MALLOC_MMAP_THRESHOLD_"] = str(FRESH_PAGE_THRESHOLD)
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), *self.args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env,
        )
        return self

    def seconds(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"reference helper ended with status {self.proc.wait(ANSWER_TIMEOUT_S)}")
        return float(answer)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(ANSWER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False


def main(argv):
    seconds = loop(*map(int, argv))
    for _ in sys.stdin:
        print(repr(seconds()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
