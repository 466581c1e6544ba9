"""Command-line interface.

Subcommands: check, enumerate, simulate, fit, search, witness, tmatrix.
Exit codes: 0 on success, 2 on domain errors, 1 on I/O or parse errors.
Runs that write to an output directory also write a ``manifest.json``
recording the configuration, package version, and seed.  Pattern bit order
in all files is little-endian: bit 0 is item 1 (or attribute 1).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import ParseError, QidentError
from .estimate import exhaustive_search, multistart_fit
from .io import (
    SCHEMA,
    dump_report,
    load_params_json,
    load_pattern_counts_csv,
    load_q,
    load_responses_csv,
    save_dataset_csv,
    save_search_csv,
)
from .qmatrix import Scenario, classify_dina, classify_gdina, enumerate_canonical, strip_zero_rows
from .rlcm import simulate, theta_table
from .tmatrix import build_t
from . import witness as witness_mod

_SCENARIO_SUMMARY = {
    Scenario.STRICT: "strictly identifiable (A, B, C)",
    Scenario.GENERIC_B1: "generically identifiable (scenario b.1); not strict",
    Scenario.GENERIC_B2: "generically identifiable (scenario b.2); not strict",
    Scenario.LOCAL_GENERIC_C: "locally generically identifiable (scenario c); not strict",
    Scenario.NOT_LOCALLY_GENERIC_A: "not identifiable, not even locally generically",
    Scenario.NOT_GENERIC_ONE_ITEM: "not generically identifiable: an attribute is required by at most one item",
    Scenario.NOT_GENERIC_GC: "not generically identifiable: generic completeness fails",
    Scenario.NOT_GENERIC_C_GDINA: "not generically identifiable: an attribute is required by fewer than three items",
    Scenario.GENERIC_DE: "generically identifiable (conditions D and E)",
    Scenario.NOT_GENERIC_K2_DE: "not generically identifiable (K = 2 block conditions fail)",
    Scenario.UNDETERMINED: "undetermined: outside the classified cases",
}


def _write_manifest(out_dir: Path, args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    manifest = {
        "schema": SCHEMA,
        "version": __version__,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in cfg.items()},
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
            print(f"[{model}] {_SCENARIO_SUMMARY[verdict.scenario]}")
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


def cmd_enumerate(args) -> int:
    mats = enumerate_canonical(args.items, args.attributes)
    lines = ["index,rows" + (",scenario" if args.classify else "")]
    for idx, q in enumerate(mats):
        row = f"{idx},{';'.join(q.row_strings())}"
        if args.classify:
            verdict = classify_dina(q) if args.model == "dina" else classify_gdina(q)
            row += f",{verdict.scenario.value}"
        lines.append(row)
    _emit(args, "\n".join(lines) + "\n", "designs.csv", f" ({len(mats)} designs)")
    return 0


def cmd_simulate(args) -> int:
    q = load_q(args.q)
    model, params, p = load_params_json(args.params)
    if args.model and args.model != model:
        raise QidentError(f"--model {args.model} conflicts with params file model {model}")
    if p is None:
        raise QidentError("params file must carry a 'p' vector to simulate")
    if model == "gdina":
        params.validate_for(q)
    data = simulate(model, q, params, p.p, args.n, seed=args.seed)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "dataset.csv"
    save_dataset_csv(data, path)
    if args.out:
        _write_manifest(out_dir, args)
    print(f"wrote {path} ({data.n_subjects} subjects, {q.n_items} items)")
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
    k = args.attributes or (first.n_attributes if first else None)
    if k is None:
        raise QidentError("--attributes (or --truth) is required to enumerate candidates")
    candidates = enumerate_canonical(data.n_items, k)
    report = exhaustive_search(
        args.model, data, candidates,
        restarts=args.restarts, require_stringent=args.stringent, seed=args.seed,
        tol=args.tol, workers=max(1, args.threads),
    )
    payload = report.to_json_dict()
    if first is not None:
        from .qmatrix import q_equivalent

        payload["truthRows"] = ";".join(first.row_strings())
        payload["truthIsArgmax"] = q_equivalent(report.argmax_q, first)
    _emit(args, payload, "search.json")
    if args.out:
        save_search_csv(report, Path(args.out) / "search.csv")
    return 0


def cmd_witness(args) -> int:
    model, params, p = load_params_json(args.params)
    if p is None:
        raise QidentError("params file must carry a 'p' vector")
    if args.construction != "q24" and not args.q:
        raise QidentError(f"--q is required for construction {args.construction!r}")
    if args.construction == "gamma-merge" and not args.qbar:
        raise QidentError("--qbar is required for gamma-merge")
    pairs = []
    if args.construction == "q24":
        pairs = witness_mod.dina_q24_two_solutions(params, p.p, count=args.count)
    elif args.construction == "one-item":
        q = load_q(args.q)
        c1 = float(params.c[0])
        c_bar = args.free if args.free is not None else max(c1 - 0.05, (c1 + params.g[0]) / 2)
        pairs = [witness_mod.dina_one_item_attr(q, params, p.p, c_bar)]
    elif args.construction == "scenario-a":
        q = load_q(args.q)
        g1 = float(params.g[0])
        g_bar = args.free if args.free is not None else g1 + 0.02
        pairs = [witness_mod.dina_scenario_a(q, params, p.p, g_bar)]
    elif args.construction == "gdina-one":
        q = load_q(args.q)
        theta = theta_table(model, q, params)
        pairs = [witness_mod.gdina_one_item_attr(q, theta, p.p, seed=args.seed)]
    elif args.construction == "gdina-two":
        q = load_q(args.q)
        theta = theta_table(model, q, params)
        pairs = witness_mod.gdina_two_item_attr(q, theta, p.p, count=args.count, seed=args.seed)
    elif args.construction == "gamma-merge":
        q = load_q(args.q)
        q_bar = load_q(args.qbar)
        pairs = [witness_mod.incomplete_gamma_merge(q, q_bar, params, p.p)]
    else:
        raise QidentError(f"unknown construction {args.construction!r}")

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
    if args.dump_table and args.out:
        J = pairs[0].truth.q.n_items
        if J > 16:
            raise QidentError("--dump-table limited to J <= 16")
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
    if args.model and args.model != model:
        raise QidentError(f"--model {args.model} conflicts with params file model {model}")
    if q.n_items > 12:
        raise QidentError("dense T-matrix export limited to J <= 12")
    t = build_t(theta_table(model, q, params))
    lines = ["response_bits," + ",".join(str(a) for a in range(t.shape[1]))]
    for r in range(t.shape[0]):
        lines.append(f"{r}," + ",".join(repr(float(v)) for v in t[r]))
    _emit(args, "\n".join(lines) + "\n", "tmatrix.csv")
    return 0


def _add_common(sub, *, seed=True, threads=False):
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    if threads:
        sub.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)


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
    sub.add_argument("--model", choices=["dina", "dino", "gdina"], default=None)
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
                     choices=["q24", "one-item", "scenario-a", "gdina-one", "gdina-two", "gamma-merge"])
    sub.add_argument("--q", default=None)
    sub.add_argument("--qbar", default=None, help="alternative design (gamma-merge)")
    sub.add_argument("--params", required=True)
    sub.add_argument("--count", type=int, default=2)
    sub.add_argument("--free", type=float, default=None, help="free parameter value")
    sub.add_argument("--dump-table", action="store_true",
                     help="also write both full distributions (J <= 16)")
    _add_common(sub)
    sub.set_defaults(func=cmd_witness)

    sub = subs.add_parser("tmatrix", help="export the marginal-probability matrix")
    sub.add_argument("--q", required=True)
    sub.add_argument("--params", required=True)
    sub.add_argument("--model", choices=["dina", "dino", "gdina"], default=None)
    _add_common(sub, seed=False)
    sub.set_defaults(func=cmd_tmatrix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QidentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
