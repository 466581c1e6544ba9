"""Cost of one EM sweep of the batched engine, in microseconds per sweep.

    python3 tools/em_sweep_cost.py                          # the checkout's src/
    python3 tools/em_sweep_cost.py --src OTHER/src --reps 7  # the checkout against OTHER

The data are 10,000 subjects simulated from the 5 x 2 design
``Q5X2_SINGLE_IDENTITY`` (32 observed patterns).  A batch of B fits runs
the canonical 5 x 2 designs in order (B = 363 repeats the 121 of them three
times) from random starts, with ``tol = 0`` so that no fit leaves the batch;
both trees take them from the checkout's ``qmatrix.enumerate_canonical``.
A sweep costs the time difference of ``LONG`` and ``SHORT`` sweeps over
their difference, which cancels the batch's setup and final E-step.  Each
cell is the median over ``--reps`` such pairs.  BLAS is held to one thread.

With ``--src`` both trees load into this one process, each package under
its own module name, and their measurements interleave pair by pair (the
tree that goes first alternates), so that the machine's drift over a run
falls on both columns alike.  The ratio column is OTHER over the checkout,
and the last column the largest relative difference between the two trees'
final logliks over the cell's fits after ``LONG`` sweeps, so that a change
to the sweep shows its numerical drift next to its speed.
Both trees must share this version's ``estimate._fit_all`` and ``_start``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

SIZES = (1, 3, 16, 121, 363)
SHORT, LONG = 20, 120
MODELS = ("dina", "gdina")


def _load(src: Path, name: str, modules):
    """The named ``modules`` of the qident package under ``src``, imported as
    package ``name`` so that two trees can live in one process."""
    init = src.resolve() / "qident" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return [importlib.import_module(f"{name}.{mod}") for mod in modules]


class Tree:
    """One tree's data, designs and starts; ``cost`` times one sweep.  The
    designs default to the tree's own canonical 5 x 2 census, three times."""

    def __init__(self, src: Path, name: str, designs=None):
        import numpy as np

        self.estimate, qmatrix, rlcm, catalog = _load(
            src, name, ("estimate", "qmatrix", "rlcm", "catalog"))
        self.where = Path(self.estimate.__file__).parent
        rng = np.random.default_rng(0)
        params = rlcm.DinaParams(rng.uniform(0.1, 0.3, 5), rng.uniform(0.1, 0.3, 5))
        self.data = rlcm.simulate("dina", catalog.Q5X2_SINGLE_IDENTITY, params,
                                  rng.dirichlet(np.full(4, 3.0)), 10_000, seed=rng)
        if designs is None:
            designs = np.tile(qmatrix.enumerate_canonical(5, 2), (3, 1))
        self.designs = designs
        self.cells = {}
        for size in SIZES:
            batch = designs[:size]
            for model in MODELS:
                starts = [self.estimate._start(model, mask, 2, self.data, np.random.default_rng(b))
                          for b, mask in enumerate(batch)]
                self.cells[size, model] = (batch, starts)
                self._run(model, batch, starts, SHORT)  # warm-up

    def _fits(self, model, batch, starts, sweeps):
        return self.estimate._fit_all(model, batch, 2, [self.data] * len(batch), starts,
                                      0.0, sweeps)

    def _run(self, model, batch, starts, sweeps) -> float:
        t0 = time.perf_counter()
        for _ in self._fits(model, batch, starts, sweeps):
            pass
        return time.perf_counter() - t0

    def logliks(self, size: int, model: str):
        """The final logliks of the cell's fits after ``LONG`` sweeps."""
        import numpy as np

        return np.array([fit.loglik for fit in self._fits(model, *self.cells[size, model], LONG)])

    def cost(self, size: int, model: str) -> float:
        batch, starts = self.cells[size, model]
        long_s = self._run(model, batch, starts, LONG)
        return (long_s - self._run(model, batch, starts, SHORT)) / (LONG - SHORT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=None,
                        help="a second tree's src/ to measure against the checkout's")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    checkout = Path(__file__).resolve().parents[1] / "src"
    trees = [Tree(checkout, "qident_checkout")]
    if args.src is not None:
        trees.append(Tree(args.src, "qident_other", trees[0].designs))

    for label, tree in zip(("checkout", "other"), trees):
        print(f"{label}: qident from {tree.where}")
    head = " ".join(f"{label + '_us':>12}" for label in ("checkout", "other")[: len(trees)])
    print(f"{'B':>5} {'model':>6} {head}"
          + (f" {'ratio':>6} {'max_rel_dll':>11}" if len(trees) == 2 else ""))
    for size in SIZES:
        for model in MODELS:
            costs = [[] for _ in trees]
            for rep in range(args.reps):
                order = range(len(trees)) if rep % 2 == 0 else reversed(range(len(trees)))
                for i in order:
                    costs[i].append(trees[i].cost(size, model))
            us = [1e6 * statistics.median(c) for c in costs]
            line = f"{size:>5} {model:>6} " + " ".join(f"{u:>12.1f}" for u in us)
            if len(trees) == 2:
                ours, theirs = (tree.logliks(size, model) for tree in trees)
                drift = float(max(abs(ours - theirs) / abs(ours)))
                line += f" {us[1] / us[0]:>6.3f} {drift:>11.1e}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
