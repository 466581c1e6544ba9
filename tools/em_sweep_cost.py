"""Cost of one EM sweep of the batched engine, in microseconds per sweep.

    python3 tools/em_sweep_cost.py                # the checkout's src/
    python3 tools/em_sweep_cost.py --src OTHER/src --reps 7

The data are 10,000 subjects simulated from the 5 x 2 design
``Q5X2_SINGLE_IDENTITY`` (32 observed patterns).  A batch of B fits runs
the canonical 5 x 2 designs in order (B = 363 repeats the 121 of them three
times) from random starts, with ``tol = 0`` so that no fit leaves the batch.
A sweep costs the time difference of ``LONG`` and ``SHORT`` sweeps over
their difference, which cancels the batch's setup and final E-step.  Each
cell is the median over ``--reps`` such pairs.  BLAS is held to one thread.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

SIZES = (1, 3, 16, 121, 363)
SHORT, LONG = 20, 120


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    import numpy as np
    from qident import estimate, qmatrix, rlcm
    from qident.catalog import Q5X2_SINGLE_IDENTITY

    rng = np.random.default_rng(0)
    params = rlcm.DinaParams(rng.uniform(0.1, 0.3, 5), rng.uniform(0.1, 0.3, 5))
    data = rlcm.simulate("dina", Q5X2_SINGLE_IDENTITY, params, rng.dirichlet(np.full(4, 3.0)),
                         10_000, seed=rng)
    designs = np.tile(qmatrix._canonical_codes(5, 2), (3, 1))

    def run(model, batch, starts, sweeps):
        t0 = time.perf_counter()
        for _ in estimate._fit_all(model, batch, 2, [data] * len(batch), starts, 0.0, sweeps):
            pass
        return time.perf_counter() - t0

    print(f"qident from {Path(estimate.__file__).parent}")
    print(f"{'B':>5} {'dina_us':>9} {'gdina_us':>9}")
    for size in SIZES:
        batch, cells = designs[:size], []
        for model in ("dina", "gdina"):
            starts = [estimate._start(model, mask, 2, data, np.random.default_rng(b))
                      for b, mask in enumerate(batch)]
            run(model, batch, starts, SHORT)  # warm-up
            cost = [(run(model, batch, starts, LONG) - run(model, batch, starts, SHORT))
                    / (LONG - SHORT) for _ in range(args.reps)]
            cells.append(1e6 * statistics.median(cost))
        print(f"{size:>5} {cells[0]:>9.1f} {cells[1]:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
