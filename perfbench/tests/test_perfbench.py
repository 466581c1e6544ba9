"""Tests of the benchmark itself: span arithmetic, metric names, tracer
installation, and each workload's correctness check at minimal size.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from qident import cli, estimate, qmatrix, rlcm
from tracing import Span, Tracer, layer_metrics, self_times

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", -1, 0, 100),
        Span("a", 0, 10, 30),
        Span("a.x", 1, 12, 18),
        Span("b", 0, 25, 50),  # overlaps "a": the union, not the sum, is removed
        Span("c", 0, 90, 120),  # runs past its parent: only 90..100 counts
    ]
    assert self_times(spans) == [100 - (50 - 10) - (100 - 90), 20 - 6, 6, 25, 30]


def test_layer_metrics_average_over_repetitions():
    spans = [
        Span("qmatrix.classify_dina", -1, 0, 4_000, {"undetermined": True}),
        Span("qmatrix.check_conditions_DE", 0, 1_000, 2_000),
        Span("qmatrix.classify_dina", -1, 10_000, 12_000, {"undetermined": False}),
    ]
    m = layer_metrics(spans, n_reps=2)
    assert m["qmatrix.classify_dina.calls"] == 1.0
    assert m["qmatrix.classify_dina.self_s"] == pytest.approx((3_000 + 2_000) * 1e-9 / 2)
    assert m["qmatrix.classify_dina.undetermined_frac"] == 0.5
    assert m["qmatrix.check_conditions_DE.self_s"] == pytest.approx(1_000 * 1e-9 / 2)
    assert m["rlcm.response_distribution.calls"] == 0.0


def test_metric_names_and_benchmark_file_agree():
    per_layer = tracing.metric_specs()
    for name, unit, better in per_layer + run.END_TO_END:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
        assert better in ("higher", "lower")
    assert len({n for n, _, _ in per_layer}) == len(per_layer)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [tuple(s) for s in per_layer]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == \
        [tuple(s) for s in run.END_TO_END]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_tracer_patches_every_binding_and_restores():
    originals = (estimate.exhaustive_search, cli.exhaustive_search, rlcm.response_distribution)
    tracer = Tracer()
    with tracer:
        assert cli.exhaustive_search is estimate.exhaustive_search
        assert cli.exhaustive_search is not originals[0]
        q = qmatrix.QMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        model = rlcm.RlcmModel(q, np.full((3, 4), 0.5), np.array([0.5, 0.5, 0.0, 0.0]))
        model.distribution()  # looks up rlcm.response_distribution at call time
    assert (estimate.exhaustive_search, cli.exhaustive_search,
            rlcm.response_distribution) == originals
    (span,) = tracer.spans
    assert span.name == "rlcm.response_distribution"
    assert span.attrs["computed_bytes"] == (1 << 3) * 8 * 2


def test_burnside_matches_enumeration():
    for (J, K), count in {(5, 2): 121, (4, 3): 400, (3, 4): 168, (2, 2): 4}.items():
        assert workloads.burnside_count(J, K) == count
        if J * K <= 12:
            assert len(qmatrix.enumerate_canonical(J, K)) == count
    assert workloads.burnside_count(6, 3) == 19_608


def _smoke(workload, tmp_path, seed, spoil):
    """Run once, check against a reference made from the same run, then
    check that a spoiled reference is caught."""
    inputs = workload.build(seed, tmp_path)
    _, out = run._timed(workload.run, inputs)
    entry = workload.reference_entry(inputs, out)
    reference = {"seeds": {str(seed): entry}} if workload.per_seed_reference else entry
    ok = workload.check(inputs, out, reference)
    assert ok.failed == 0 and ok.attempted > 0, ok.problems
    spoil(entry)
    bad = workload.check(inputs, out, reference)
    assert bad.failed > 0 and bad.problems


def test_census_smoke(tmp_path):
    class Small(workloads.Census):
        SHAPES = ((4, 2), (5, 2))

    def spoil(ref):
        shape = ref["shapes"]["5x2"]["dina"]
        strict = chr(ord("a") + ref["scenarios"].index("StrictlyIdentifiable"))
        other = chr(ord("a") + ref["scenarios"].index("GenericScenarioB2"))
        i = shape["verdicts"].index(strict)
        shape["verdicts"] = shape["verdicts"][:i] + other + shape["verdicts"][i + 1:]

    _smoke(Small(), tmp_path, 0, spoil)


def test_search_smoke(tmp_path):
    class Small(workloads.Search):
        SEARCH_RESTARTS = 1
        FIT_RESTARTS = 1

    def spoil(ref):
        ref["logliks"][7] += 1.0

    _smoke(Small(), tmp_path, 3, spoil)


def test_certify_smoke(tmp_path):
    class Small(workloads.Certify):
        COUNT = 2
        SAMPLED = 1

    def spoil(ref):
        ref["constructions"][-1]["count"] = 3

    _smoke(Small(), tmp_path, 5, spoil)


def test_decay_smoke(tmp_path):
    class Small(workloads.Decay):
        N_GRID = (100, 10_000)
        N_TRUTHS = 3
        REPLICATIONS = 2
        RESTARTS = 1

    def spoil(ref):
        ref["cells"][0][4] *= 10

    _smoke(Small(), tmp_path, 7, spoil)


def test_seeds_make_inputs(tmp_path):
    certify = workloads.WORKLOADS["certify"]
    a, b, c = (certify.build(seed, tmp_path)["merges"][1][3] for seed in (1, 1, 2))
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    search = workloads.WORKLOADS["search"]
    one, two = search.build(1, tmp_path / "a"), search.build(2, tmp_path / "b")
    # fixed data, seed-dependent EM starts
    assert one["counts"].read_text() == two["counts"].read_text()
    assert (one["seed"], two["seed"]) == (1, 2)
