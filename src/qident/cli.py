"""Command-line interface.

Subcommands: check, enumerate, simulate, fit, search, witness, tmatrix.
Exit codes: 0 on success, 2 on domain errors and on arguments the parser
rejects, 1 on I/O or parse errors.
Runs that write to an output directory also write a ``manifest.json``
recording the configuration, package version and seed, and the machine:
Python and numpy versions, platform and CPU count.  Pattern bit order
in all files is little-endian: bit 0 is item 1 (or attribute 1).

``witness`` dispatches from one table, ``_WITNESSES``: per construction, the
design files it reads, whether it needs DINA s and g, and the call.  Its
inputs are checked before any work; ``--free`` left out takes the
construction's own default, computed from its target item.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ParseError, QidentError
from .estimate import exhaustive_search, multistart_fit
from .io import (
    SCHEMA,
    dataset_csv,
    dump_report,
    load_params_json,
    load_pattern_counts_csv,
    load_q,
    load_responses_csv,
)
from .qmatrix import (
    Scenario,
    _design_bytes,
    _verdict_codes,
    classify_dina,
    classify_gdina,
    enumerate_canonical,
    q_equivalent,
    strip_zero_rows,
)
from .rlcm import simulate, theta_table
from .tmatrix import build_t
from . import witness as witness_mod

def _write_manifest(out_dir: Path, args: argparse.Namespace) -> None:
    import platform  # imported here so that runs without a manifest never pay for it

    cfg = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    machine = {"python": platform.python_version(), "numpy": np.__version__,
               "platform": platform.platform(), "cpuCount": os.cpu_count()}
    manifest = {
        "schema": SCHEMA,
        "version": __version__,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in cfg.items()},
        "machine": machine,
    }
    (out_dir / "manifest.json").write_text(dump_report(manifest))


def _emit(args, report, filename: str, summary: str = "") -> None:
    """Write a report into ``--out`` with a manifest, or print it.  A string
    report is written as is, anything else as deterministic JSON."""
    text = report if isinstance(report, str) else dump_report(report, schema=SCHEMA)
    as_json = getattr(args, "json", False)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text)
        _write_manifest(out_dir, args)
        if not as_json:
            print(f"wrote {out_dir / filename}{summary}")
    if as_json or not args.out:
        print(text, end="")


def cmd_check(args) -> int:
    q = load_q(args.q)
    stripped, removed = strip_zero_rows(q)
    verdicts = {}
    models = ["dina", "gdina"] if args.model == "both" else [args.model]
    for model in models:
        verdict = classify_dina(stripped) if model == "dina" else classify_gdina(stripped)
        verdicts[model] = verdict
        if not args.json:
            print(f"[{model}] {verdict.scenario.summary}")
            for constraint in verdict.measure_zero_constraints:
                print(f"  constraint: {constraint}")
            for note in verdict.notes:
                print(f"  note: {note}")
    payload = {
        "q": q,
        "removedZeroRows": list(removed),
        "verdicts": {m: v.to_json_dict() for m, v in verdicts.items()},
    }
    _emit(args, payload, "check.json")
    return 0


# each scenario value's bytes, NUL-padded to the longest, one row per verdict code
_VERDICT_BYTES = np.array([s.value.encode() for s in Scenario]).view(np.uint8).reshape(
    len(Scenario), -1)


def _index_bytes(n: int) -> np.ndarray:
    """0..n-1 in decimal, each right-aligned in a NUL-padded field and
    followed by ',': an (n, width + 1) uint8 table.  Column i cycles through
    the digits, each repeated 10^(width - 1 - i) times."""
    width = len(str(max(n - 1, 0)))
    out = np.full((n, width + 1), ord(","), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for i in range(width):
        place = 10 ** (width - 1 - i)
        out[:, i] = np.resize(np.repeat(digits, place), n)
        if i < width - 1:
            out[:place, i] = 0  # a leading zero
    return out


def _designs_csv(codes: np.ndarray, n_attributes: int, verdicts=None) -> str:
    """The text of ``designs.csv`` for an (N, J) array of row masks, with a
    scenario column when given each design's verdict code (see
    ``qmatrix._verdict_codes``).  The N lines are one uint8 table: the
    index field of ``_index_bytes``, the rows of ``qmatrix._design_bytes``
    and the verdict's bytes, NUL-padded to the longest scenario value and
    gathered by verdict code.  One boolean compress drops the NULs and one
    decode makes the text."""
    n = len(codes)
    if verdicts is None:
        head, fields = "index,rows\n", [_design_bytes(codes, n_attributes, "\n")]
    else:
        head, fields = "index,rows,scenario\n", [
            _design_bytes(codes, n_attributes, ","), _VERDICT_BYTES[verdicts],
            np.full((n, 1), ord("\n"), dtype=np.uint8)]
    table = np.concatenate([_index_bytes(n)] + fields, axis=1)
    return head + table[table != 0].tobytes().decode()


def cmd_enumerate(args) -> int:
    """Write the canonical designs of a shape, classified under ``--model``
    with ``--classify``, as ``designs.csv`` (see ``_designs_csv``)."""
    codes = enumerate_canonical(args.items, args.attributes)
    verdicts = _verdict_codes(codes, args.attributes, args.model) if args.classify else None
    _emit(args, _designs_csv(codes, args.attributes, verdicts), "designs.csv",
          f" ({len(codes)} designs)")
    return 0


def cmd_simulate(args) -> int:
    q = load_q(args.q)
    model, params, p = load_params_json(args.params)
    if p is None:
        raise QidentError("params file must carry a 'p' vector to simulate")
    data = simulate(model, q, params, p, args.n, seed=args.seed)
    _emit(args, dataset_csv(data), "dataset.csv",
          f" ({data.n_subjects} subjects, {q.n_items} items)")
    return 0


def _load_dataset(args, n_items: int):
    if args.counts:
        return load_pattern_counts_csv(args.data, n_items)
    return load_responses_csv(args.data)


def cmd_fit(args) -> int:
    q = load_q(args.q)
    data = _load_dataset(args, q.n_items)
    fit = multistart_fit(
        args.model, q, data,
        restarts=args.restarts, seed=args.seed, tol=args.tol,
    )
    payload = {
        "model": fit.model,
        "loglik": fit.loglik,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "restartLogliks": fit.restart_logliks,
        "restartIterations": fit.restart_iterations,
        "monotonicityOk": fit.monotonicity_ok,
        "stringentOk": fit.stringent_ok,
        "p": fit.p,
        "restarts": args.restarts,
        "seed": args.seed,
        "tol": args.tol,
    }
    if fit.s is not None:
        payload["s"] = fit.s
        payload["g"] = fit.g
    else:
        payload["theta"] = fit.theta
    _emit(args, payload, "fit.json")
    return 0


def cmd_search(args) -> int:
    first = load_q(args.truth) if args.truth else None
    if args.counts and first is None:
        raise QidentError("--counts needs --truth to fix the item count")
    data = _load_dataset(args, first.n_items if first else 0)
    k = args.attributes if args.attributes is not None else (first.n_attributes if first else None)
    if k is None:
        raise QidentError("--attributes (or --truth) is required to enumerate candidates")
    if first is not None:
        if (data.n_items, k) != first.entries.shape:
            raise QidentError(f"shapes differ: {(data.n_items, k)} vs {first.entries.shape}")
        for name, bad in (("zero rows", first.row_masks == 0),
                          ("attributes no item requires", first.column_sums() == 0)):
            if bad.any():
                raise QidentError(f"truth has {name} {(np.flatnonzero(bad) + 1).tolist()}: "
                                  "no candidate design can equal it")
    report = exhaustive_search(
        args.model, data, enumerate_canonical(data.n_items, k), k, restarts=args.restarts,
        require_stringent=args.stringent, seed=args.seed, tol=args.tol,
    )
    payload = report.to_json_dict()
    if first is not None:
        payload["truthRows"] = ";".join(first.row_strings())
        payload["truthIsArgmax"] = q_equivalent(report.argmax_q, first)
    _emit(args, payload, "search.json")
    return 0


# construction -> (design files it reads, whether it needs DINA s and g, the call
# taking (args, model, params, p, *designs) and returning the certified pairs)
_WITNESSES = {
    "q24": ((), True, lambda a, m, prm, p: witness_mod.dina_q24_two_solutions(
        prm, p, count=a.count)),
    "one-item": (("q",), True, lambda a, m, prm, p, q: [
        witness_mod.dina_one_item_attr(q, prm, p, a.free)]),
    "scenario-a": (("q",), True, lambda a, m, prm, p, q: [
        witness_mod.dina_scenario_a(q, prm, p, a.free)]),
    "gdina-one": (("q",), False, lambda a, m, prm, p, q: [
        witness_mod.gdina_one_item_attr(q, theta_table(m, q, prm), p, seed=a.seed)]),
    "gdina-two": (("q",), False, lambda a, m, prm, p, q: witness_mod.gdina_two_item_attr(
        q, theta_table(m, q, prm), p, count=a.count, seed=a.seed)),
    "gamma-merge": (("q", "qbar"), True, lambda a, m, prm, p, q, q_bar: [
        witness_mod.incomplete_gamma_merge(q, q_bar, prm, p)]),
}


def cmd_witness(args) -> int:
    files, needs_sg, build = _WITNESSES[args.construction]
    if args.count < 1:
        raise QidentError(f"count must be at least 1, got {args.count}")
    if args.dump_table and not args.out:
        raise QidentError("--dump-table needs --out")
    if args.free is not None and args.construction not in ("one-item", "scenario-a"):
        raise QidentError("--free is taken only by constructions 'one-item' and 'scenario-a'")
    model, params, p = load_params_json(args.params)
    if p is None:
        raise QidentError("params file must carry a 'p' vector")
    for name in files:
        if not getattr(args, name):
            raise QidentError(f"--{name} is required for construction {args.construction!r}")
    if needs_sg and model != "dina":
        raise QidentError(f"construction {args.construction!r} needs a params file with s and g "
                          f"of the DINA model; the params file is for model {model!r}")
    if args.dump_table and params.n_items > 16:
        raise QidentError("--dump-table limited to J <= 16")
    pairs = build(args, model, params, p, *(load_q(getattr(args, name)) for name in files))

    payload = {
        "construction": args.construction,
        "count": len(pairs),
        "witnesses": [
            {
                "maxDiff": w.certified_max_diff,
                "truth": {"q": w.truth.q, "theta": w.truth.theta, "p": w.truth.p},
                "alternative": {
                    "q": w.alternative.q,
                    "theta": w.alternative.theta,
                    "p": w.alternative.p,
                },
                "details": w.details,
            }
            for w in pairs
        ],
    }
    _emit(args, payload, "witness.json")
    if args.dump_table:
        J = pairs[0].truth.q.n_items
        lines = ["pattern_bits,p_truth,p_alternative"]
        base = pairs[0].truth.distribution()
        alt = pairs[0].alternative.distribution()
        for r in range(1 << J):
            lines.append(f"{r},{float(base[r])!r},{float(alt[r])!r}")
        (Path(args.out) / "distributions.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_tmatrix(args) -> int:
    q = load_q(args.q)
    model, params, _ = load_params_json(args.params)
    if q.n_items > 12:
        raise QidentError("dense T-matrix export limited to J <= 12")
    t = build_t(theta_table(model, q, params))
    lines = ["response_bits," + ",".join(str(a) for a in range(t.shape[1]))]
    for r in range(t.shape[0]):
        lines.append(f"{r}," + ",".join(repr(float(v)) for v in t[r]))
    _emit(args, "\n".join(lines) + "\n", "tmatrix.csv")
    return 0


def _seed(text: str) -> int:
    """The ``--seed`` type: numpy takes only non-negative integer seeds."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _add_common(sub, *, seed=True, threads=False):
    if seed:
        sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    if threads:
        # accepted and ignored: fits run as one in-process EM batch
        sub.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description=(
            "Identifiability analysis for binary design matrices in restricted "
            "latent class models. Patterns are little-endian bit masks: bit 0 "
            "is item 1 (responses) or attribute 1 (classes)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qident {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check", help="classify a design matrix")
    sub.add_argument("q", help="design matrix file")
    sub.add_argument("--model", choices=["dina", "gdina", "both"], default="both")
    _add_common(sub, seed=False)
    sub.set_defaults(func=cmd_check)

    sub = subs.add_parser("enumerate", help="canonical designs up to column permutation")
    sub.add_argument("items", type=int)
    sub.add_argument("attributes", type=int)
    sub.add_argument("--classify", action="store_true")
    sub.add_argument("--model", choices=["dina", "gdina"], default="dina")
    sub.add_argument("--out", type=str, default=None)
    sub.set_defaults(func=cmd_enumerate)

    sub = subs.add_parser("simulate", help="draw a dataset from a model")
    sub.add_argument("--q", required=True)
    sub.add_argument("--params", required=True, help="JSON with model parameters and p")
    sub.add_argument("--n", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("fit", help="multistart EM at a fixed design")
    sub.add_argument("--model", choices=["dina", "dino", "gdina"], required=True)
    sub.add_argument("--q", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--counts", action="store_true", help="data is a pattern-count table")
    sub.add_argument("--restarts", type=int, default=10)
    sub.add_argument("--tol", type=float, default=1e-8)
    _add_common(sub, threads=True)
    sub.set_defaults(func=cmd_fit)

    sub = subs.add_parser("search", help="exhaustive likelihood sweep over candidate designs")
    sub.add_argument("--model", choices=["dina", "dino", "gdina"], required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--counts", action="store_true")
    sub.add_argument("--attributes", type=int, default=None)
    sub.add_argument("--truth", default=None, help="optional true design for comparison")
    sub.add_argument("--restarts", type=int, default=10)
    sub.add_argument("--tol", type=float, default=1e-7)
    sub.add_argument("--stringent", action="store_true",
                     help="exclude fits violating the subset order from the argmax")
    _add_common(sub, threads=True)
    sub.set_defaults(func=cmd_search)

    sub = subs.add_parser("witness", help="construct certified indistinguishable alternatives")
    sub.add_argument("--construction", required=True,
                     choices=list(_WITNESSES))
    sub.add_argument("--q", default=None)
    sub.add_argument("--qbar", default=None, help="alternative design (gamma-merge)")
    sub.add_argument("--params", required=True)
    sub.add_argument("--count", type=int, default=2)
    sub.add_argument("--free", type=float, default=None, help="free parameter value")
    sub.add_argument("--dump-table", action="store_true",
                     help="also write both full distributions to --out (J <= 16)")
    _add_common(sub)
    sub.set_defaults(func=cmd_witness)

    sub = subs.add_parser("tmatrix", help="export the marginal-probability matrix")
    sub.add_argument("--q", required=True)
    sub.add_argument("--params", required=True)
    _add_common(sub, seed=False)
    sub.set_defaults(func=cmd_tmatrix)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QidentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
