"""Time of ``qmatrix.classify_batch`` on whole canonical censuses, per model,
of the row-multiset grouping inside it, and of the whole ``designs.csv``
renderer of ``qident enumerate --classify``.

    python3 tools/classify_cost.py                          # the checkout's src/
    python3 tools/classify_cost.py --src OTHER/src --reps 7  # the checkout against OTHER

Each shape's designs are its canonical census from the checkout's
``qmatrix.enumerate_canonical`` (2,801 at 5 x 3, 3,280 at 8 x 2, 19,608 at
6 x 3 and 137,257 at 7 x 3), classified in one ``classify_batch`` call
and rendered, with their DINA verdicts, in one call of the renderer (the
rows of model "text").  The group column times the grouping alone: the
sort of each design's row masks, the dedupe and the first occurrences,
the part of the classification that does not depend on the model.
The last row, GDINA only, is a sample of 300 random 30 x 8 designs: rows
drawn uniformly from the 36 masks of weight 1 or 2 with
``np.random.default_rng(20261019)``, the batch whose pooled cover search
for condition E overflows its budget.  Each time is the median over
``--reps`` calls, after one warm-up call; the undet columns count the
Undetermined verdicts.  The multisets column counts the distinct row
multisets among the designs: ``classify_batch`` runs its rules once per
multiset (211 at 5 x 3, 36 at 8 x 2, 483 at 6 x 3 and 994 at 7 x 3).

The renderer is ``cli._designs_csv`` and the grouping
``qmatrix._multisets``.  A tree without them (one from before the packed
keys and the byte table) is timed on the code it ran instead: the grouping
by the sorted rows themselves and ``np.unique`` for the first
occurrences, and ``_design_rows`` followed by one f-string per line.

With ``--src`` both trees load into this one process through
``em_sweep_cost``'s loader, and their calls interleave rep by rep (the tree
that goes first alternates), so that the machine's drift over a run falls
on both columns alike.  The ratio column is OTHER over the checkout, and
the last column says whether the two trees' verdicts (or texts) are equal.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from em_sweep_cost import _load

SHAPES = ((5, 3), (8, 2), (6, 3), (7, 3))
MODELS = ("dina", "gdina", "text")


def _sample_30x8() -> np.ndarray:
    pool = np.array([m for m in range(1, 256) if bin(m).count("1") <= 2])
    return pool[np.random.default_rng(20261019).integers(0, len(pool), size=(300, 30))]


class Tree:
    """One tree's classifier, grouping and renderer."""

    def __init__(self, src: Path, name: str):
        self.qmatrix, self.cli = _load(src, name, ("qmatrix", "cli"))

    def group(self, codes, K: int):
        """The index of each multiset's first design, in order of first
        occurrence."""
        if hasattr(self.qmatrix, "_multisets"):
            return self.qmatrix._multisets(codes, K)[0]
        _, multiset = self.qmatrix._unique_columns(np.sort(codes, axis=1).T)
        _, first = np.unique(multiset, return_index=True)
        return first[np.argsort(first)]

    def verdicts(self, codes, K: int):
        """The DINA verdicts as the renderer takes them."""
        if hasattr(self.cli, "_designs_csv"):
            return self.qmatrix._verdict_codes(codes, K, "dina")
        return self.qmatrix.classify_batch(codes, K, "dina")

    def render(self, codes, K: int, verdicts) -> str:
        if hasattr(self.cli, "_designs_csv"):
            return self.cli._designs_csv(codes, K, verdicts)
        rows = self.qmatrix._design_rows(codes, K)
        return "\n".join(["index,rows,scenario"] + [
            f"{i},{row},{v}" for i, (row, v) in enumerate(zip(rows, verdicts.tolist()))]) + "\n"


def _timed(call):
    t0 = time.perf_counter()
    out = call()
    return time.perf_counter() - t0, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=None,
                        help="a second tree's src/ to measure against the checkout's")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    checkout = Path(__file__).resolve().parents[1] / "src"
    trees = [Tree(checkout, "qident_checkout")]
    if args.src is not None:
        trees.append(Tree(args.src, "qident_other"))

    for label, tree in zip(("checkout", "other"), trees):
        print(f"{label}: qident from {Path(tree.qmatrix.__file__).parent}")
    labels = ("checkout", "other")[: len(trees)]
    head = " ".join(f"{label + '_s':>11} {'group_s':>8} {'undet':>6}" for label in labels)
    print(f"{'shape':>6} {'designs':>8} {'multisets':>9} {'model':>6} {head}"
          + (f" {'ratio':>6} {'equal':>5}" if len(trees) == 2 else ""))
    rows = []
    for J, K in SHAPES:
        codes = trees[0].qmatrix.enumerate_canonical(J, K)
        rows += [(f"{J}x{K}", codes, K, model) for model in MODELS]
    rows.append(("30x8s", _sample_30x8(), 8, "gdina"))
    for shape, codes, K, model in rows:
        if model == "text":
            inputs = [tree.verdicts(codes, K) for tree in trees]
            calls = [[lambda t=tree, v=v: t.render(codes, K, v)]
                     for tree, v in zip(trees, inputs)]
        else:
            calls = [[lambda t=tree: t.qmatrix.classify_batch(codes, K, model),
                      lambda t=tree: t.group(codes, K)] for tree in trees]
        outs = [tree_calls[0]() for tree_calls in calls]  # warm-up
        times = [[[] for _ in tree_calls] for tree_calls in calls]
        for rep in range(args.reps):
            order = range(len(trees)) if rep % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                for call, spent in zip(calls[i], times[i]):
                    spent.append(_timed(call)[0])
        secs = [statistics.median(t[0]) for t in times]
        group = ["-" if len(t) < 2 else f"{statistics.median(t[1]):.4f}" for t in times]
        undet = ["-" if model == "text" else int((v == "Undetermined").sum()) for v in outs]
        multisets = len(trees[0].group(codes, K))
        line = f"{shape:>6} {len(codes):>8} {multisets:>9} {model:>6} " + " ".join(
            f"{s:>11.4f} {g:>8} {u:>6}" for s, g, u in zip(secs, group, undet))
        if len(trees) == 2:
            equal = (outs[0] == outs[1] if model == "text"
                     else list(outs[0]) == list(outs[1]))
            line += f" {secs[1] / secs[0]:>6.3f} {str(equal):>5}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
