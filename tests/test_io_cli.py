"""File formats, report determinism, and the command-line interface."""

import functools
import json
import os
import platform

import numpy as np
import pytest

from qident import DinaParams, QMatrix
from qident.catalog import equal_effects_theta
from qident.cli import main
from qident.errors import ParseError
from qident.io import (
    dataset_csv,
    dump_report,
    load_params_json,
    load_pattern_counts_csv,
    load_q,
    load_responses_csv,
    parse_q_text,
    save_params_json,
    save_pattern_counts_csv,
    save_q,
)
from qident.rlcm import Dataset, GdinaParams


class TestQFormats:
    def test_parse_csv_and_whitespace(self):
        a = parse_q_text("1,0\n0,1\n")
        b = parse_q_text("1 0\n0 1\n")
        assert a == b == QMatrix.from_rows([[1, 0], [0, 1]])

    def test_parse_compact_rows(self):
        q = parse_q_text("10;01;11")
        assert q == QMatrix.from_rows([[1, 0], [0, 1], [1, 1]])

    def test_bad_entry_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_q_text("1,0\n2,1\n")
        assert exc.value.line == 2 and exc.value.column == 1

    def test_ragged_rows(self):
        with pytest.raises(ParseError):
            parse_q_text("1,0\n1\n")

    def test_round_trip(self, tmp_path, rng):
        q = QMatrix((rng.random((4, 3)) < 0.5).astype(int))
        path = tmp_path / "q.txt"
        save_q(q, path)
        assert load_q(path) == q


class TestDatasetFormats:
    def test_responses_round_trip(self, tmp_path):
        data = Dataset.from_matrix(np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1]]))
        path = tmp_path / "d.csv"
        path.write_text(dataset_csv(data))
        back = load_responses_csv(path)
        assert back.n_items == 3 and back.n_subjects == 3
        assert (back.patterns == data.patterns).all()
        assert (back.counts == data.counts).all()

    def test_counts_round_trip(self, tmp_path):
        data = Dataset(3, np.array([0, 5]), np.array([2, 7]))
        path = tmp_path / "c.csv"
        save_pattern_counts_csv(data, path)
        back = load_pattern_counts_csv(path, 3)
        assert (back.patterns == data.patterns).all()
        assert (back.counts == data.counts).all()

    def test_counts_duplicate_pattern(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("pattern_bits,count\n0,5\n0,3\n")
        with pytest.raises(ParseError) as exc:
            load_pattern_counts_csv(path, 3)
        assert exc.value.line == 3
        with pytest.raises(ValueError):
            Dataset(3, np.array([0, 0]), np.array([5, 3]))

    def test_counts_negative(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("0,5\n1,-2\n")
        with pytest.raises(ParseError) as exc:
            load_pattern_counts_csv(path, 2)
        assert exc.value.line == 2
        qfile = tmp_path / "q.txt"
        save_q(QMatrix.from_rows([[1, 0], [0, 1]]), qfile)
        assert main([
            "fit", "--model", "dina", "--q", str(qfile), "--data", str(path), "--counts",
        ]) == 1
        assert capsys.readouterr().err.startswith("error: negative count")

    def test_counts_pattern_out_of_range(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("pattern_bits,count\n7,1\n8,1\n")
        with pytest.raises(ParseError) as exc:
            load_pattern_counts_csv(path, 3)
        assert exc.value.line == 3

    def test_bad_response_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("item1,item2\n1,2\n")
        with pytest.raises(ParseError):
            load_responses_csv(path)


_COUNTS = functools.partial(load_pattern_counts_csv, n_items=2)


@pytest.mark.parametrize("load, text, message", [
    (load_q, "\n \n", "no rows found"),
    (load_responses_csv, "", "empty dataset file"),
    (_COUNTS, "\n", "empty dataset file"),
    (load_responses_csv, "item1,item2\n", "dataset file has a header but no data rows"),
    (_COUNTS, "pattern_bits,count\n1,2,3\n", "expected two columns: pattern_bits,count"),
    (_COUNTS, "pattern_bits,count\n1,x\n", "non-integer entry in"),
    (load_params_json, '{"model": "foo"}', "unknown or missing model field: 'foo'"),
], ids=["design-no-rows", "responses-empty", "counts-empty", "header-only", "three-columns",
        "non-integer", "unknown-model"])
def test_parse_errors(tmp_path, load, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load(path)


def test_dump_report_deterministic():
    payload = {"b": [1.0 / 3.0, 2], "a": {"x": np.float64(0.1), "n": np.int64(3)}}
    assert dump_report(payload) == dump_report(json.loads(dump_report(payload)))
    # floats survive a round trip exactly
    decoded = json.loads(dump_report(payload))
    assert decoded["b"][0] == 1.0 / 3.0 and decoded["a"]["n"] == 3


class TestCli:
    def _write_paired_inputs(self, tmp_path, uniform=True):
        qfile = tmp_path / "q.txt"
        save_q(QMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]]), qfile)
        params = tmp_path / "params.json"
        p = [0.25, 0.25, 0.25, 0.25] if uniform else [0.2, 0.3, 0.3, 0.2]
        save_params_json(
            params, "dina",
            DinaParams(np.full(4, 0.2), np.full(4, 0.2)),
            np.array(p),
        )
        return qfile, params

    def test_check_human_and_json(self, tmp_path, capsys):
        qfile, _ = self._write_paired_inputs(tmp_path)
        assert main(["check", str(qfile), "--model", "dina"]) == 0
        out = capsys.readouterr().out
        assert "scenario b.2" in out
        assert "p(01) * p(10) != p(00) * p(11)" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["verdicts"]["dina"]["scenario"] == "GenericScenarioB2"
        assert payload["schema"] == "qident/1"

    def test_check_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1,2\n")
        assert main(["check", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_check_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_check_rejects_70_attributes(self, tmp_path, capsys):
        # wider than an int64 row mask: no row may read as zero
        qfile = tmp_path / "q.txt"
        qfile.write_text("\n".join(",".join(map(str, row))
                                   for row in np.tile(np.eye(70, dtype=int), (3, 1))) + "\n")
        assert main(["check", str(qfile)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: row masks hold at most 63 attributes, got K = 70\n"
        assert captured.out == ""

    def test_enumerate_counts(self, tmp_path):
        out = tmp_path / "enum"
        assert main(["enumerate", "5", "2", "--classify", "--out", str(out)]) == 0
        lines = (out / "designs.csv").read_text().strip().splitlines()
        assert len(lines) == 122  # header + 121 designs
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["machine"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpuCount": os.cpu_count(),
        }

    def test_enumerate_classifies_paired_design(self, tmp_path):
        out = tmp_path / "enum"
        main(["enumerate", "5", "2", "--classify", "--out", str(out)])
        rows = (out / "designs.csv").read_text().strip().splitlines()[1:]
        paired = [r for r in rows if sorted(r.split(",")[1].split(";")) == sorted(
            ["01", "10", "10", "01", "01"]
        )]
        assert paired and all(r.endswith("GenericScenarioB2") for r in paired)

    @pytest.mark.parametrize("sizes", [["3", "--", "-1"], ["--", "-1", "2"], ["0", "2"]])
    def test_enumerate_bad_size_exit_2(self, sizes, capsys):
        assert main(["enumerate", *sizes]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out

    def test_enumerate_rows_feed_check(self, tmp_path, capsys):
        out = tmp_path / "enum"
        main(["enumerate", "3", "2", "--out", str(out)])
        lines = (out / "designs.csv").read_text().strip().splitlines()[1:]
        rows_field = lines[0].split(",")[1]
        qfile = tmp_path / "q.txt"
        qfile.write_text(rows_field + "\n")
        assert main(["check", str(qfile), "--model", "dina"]) == 0
        capsys.readouterr()

    def test_simulate_fit_round_trip(self, tmp_path, capsys):
        qfile, params = self._write_paired_inputs(tmp_path, uniform=False)
        out = tmp_path / "sim"
        assert main([
            "simulate", "--q", str(qfile), "--params", str(params),
            "--n", "400", "--seed", "7", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main([
            "fit", "--model", "dina", "--q", str(qfile),
            "--data", str(out / "dataset.csv"), "--restarts", "2", "--seed", "1",
            "--tol", "1e-6",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert len(payload["s"]) == 4
        assert len(payload["restartLogliks"]) == len(payload["restartIterations"]) == 2
        assert max(payload["restartLogliks"]) == payload["loglik"]

    @pytest.mark.parametrize("command", ["fit", "search"])
    def test_zero_restarts_exit_2(self, tmp_path, capsys, command):
        qfile, params = self._write_paired_inputs(tmp_path, uniform=False)
        out = tmp_path / "sim"
        main(["simulate", "--q", str(qfile), "--params", str(params),
              "--n", "200", "--seed", "7", "--out", str(out)])
        capsys.readouterr()
        design = ["--q", str(qfile)] if command == "fit" else ["--truth", str(qfile)]
        assert main([
            command, "--model", "dina", *design,
            "--data", str(out / "dataset.csv"), "--restarts", "0",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "restarts must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1e-6", "inf"])
    def test_bad_tol_exit_2(self, tmp_path, capsys, tol):
        qfile, params = self._write_paired_inputs(tmp_path, uniform=False)
        out = tmp_path / "sim"
        main(["simulate", "--q", str(qfile), "--params", str(params),
              "--n", "200", "--seed", "7", "--out", str(out)])
        capsys.readouterr()
        assert main(["fit", "--model", "dina", "--q", str(qfile),
                     "--data", str(out / "dataset.csv"), f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert "tol must be finite and non-negative" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["simulate", "fit", "search", "witness"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        # numpy rejects negative seeds; the parser does so before any work
        qfile, params = self._write_paired_inputs(tmp_path)
        data = str(tmp_path / "dataset.csv")
        args = {
            "simulate": ["--q", str(qfile), "--params", str(params), "--n", "10"],
            "fit": ["--model", "dina", "--q", str(qfile), "--data", data],
            "search": ["--model", "dina", "--truth", str(qfile), "--data", data],
            "witness": ["--construction", "q24", "--params", str(params)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --seed: must be a non-negative integer, got '-1'" in captured.err
        assert captured.out == ""

    def test_non_integer_seed_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--q", "q.txt", "--params", "p.json", "--n", "1", "--seed", "abc"])
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer, got 'abc'" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["simulate", "witness"])
    def test_params_without_p_exit_2(self, tmp_path, capsys, command):
        qfile, params = self._write_paired_inputs(tmp_path)
        save_params_json(params, "dina", DinaParams(np.full(4, 0.2), np.full(4, 0.2)))
        argv = {
            "simulate": ["--q", str(qfile), "--params", str(params), "--n", "10"],
            "witness": ["--construction", "q24", "--params", str(params)],
        }[command]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: params file must carry a 'p' vector") and err.count("\n") == 1

    @pytest.mark.parametrize("items, data", [
        (65, "1," * 63 + "0,1"),  # item 64 never answered
        (64, "0," * 63 + "1"),  # bit 63 set
        (65, f"pattern_bits,count\n{1 << 64},3"),
    ], ids=["item-64-unanswered", "bit-63", "counts-2^64"])
    def test_more_than_63_items_exit_2(self, tmp_path, capsys, items, data):
        save_q(QMatrix(np.ones((items, 1), dtype=int)), tmp_path / "q.txt")
        (tmp_path / "data.csv").write_text(data + "\n")
        counts = ["--counts"] if data.startswith("pattern") else []
        assert main(["fit", "--model", "dina", "--q", str(tmp_path / "q.txt"),
                     "--data", str(tmp_path / "data.csv"), *counts]) == 2
        assert capsys.readouterr().err == (
            f"error: at most 63 items fit an int64 response pattern, got {items}\n")

    def test_tmatrix_past_12_items_exit_2(self, tmp_path, capsys):
        save_q(QMatrix.from_rows([[1, 0], [0, 1]] * 6 + [[1, 1]]), tmp_path / "q.txt")
        save_params_json(tmp_path / "params.json", "dina",
                         DinaParams(np.full(13, 0.2), np.full(13, 0.2)))
        assert main(["tmatrix", "--q", str(tmp_path / "q.txt"),
                     "--params", str(tmp_path / "params.json")]) == 2
        assert capsys.readouterr().err == "error: dense T-matrix export limited to J <= 12\n"

    def test_simulate_empty(self, tmp_path, capsys):
        qfile, params = self._write_paired_inputs(tmp_path)
        out = tmp_path / "sim0"
        assert main([
            "simulate", "--q", str(qfile), "--params", str(params),
            "--n", "0", "--out", str(out),
        ]) == 0
        text = (out / "dataset.csv").read_text().strip().splitlines()
        assert len(text) == 1  # header only
        capsys.readouterr()

    def test_simulate_prints_without_out(self, tmp_path, capsys, monkeypatch):
        # like every other report, the dataset goes to stdout without --out
        qfile, params = self._write_paired_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--q", str(qfile), "--params", str(params), "--n", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "item1,item2,item3,item4" and len(lines) == 6
        assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize("p, n, message", [
        ([0.5, 0.5], "10", "p has 2 entries but the design has 4 patterns"),
        ([0.125] * 8, "10", "p has 8 entries but the design has 4 patterns"),
        ([0.25] * 4, "-5", "the number of subjects must be nonnegative, got -5"),
    ])
    def test_simulate_bad_inputs_exit_2(self, tmp_path, capsys, p, n, message):
        qfile, params = self._write_paired_inputs(tmp_path)
        save_params_json(params, "dina", DinaParams(np.full(4, 0.2), np.full(4, 0.2)),
                         np.array(p))
        out = tmp_path / "sim"
        assert main(["simulate", "--q", str(qfile), "--params", str(params),
                     "--n", n, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "dataset.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "witness", "tmatrix"])
    @pytest.mark.parametrize("text", [
        '{"model": "dina"}',
        "{bad",
        json.dumps({"model": "dina", "s": [0.2] * 4, "g": [0.2, 0.2, 0.2, 1.5], "p": [0.25] * 4}),
        json.dumps({"model": "dina", "s": [0.2] * 4, "g": [0.2] * 4, "p": [0.5] + [0.25] * 3}),
        json.dumps({"model": "dina", "s": [0.2] * 4, "g": [0.2] * 4,
                    "p": [float("nan"), 0.5, 0.25, 0.25]}),
        json.dumps({"model": "dina", "s": [float("nan"), 0.1, 0.1, 0.1], "g": [0.2] * 4,
                    "p": [0.25] * 4}),
        json.dumps({"model": "gdina", "p": [0.25] * 4, "theta": [
            [float("nan"), 0.8, 0.2, 0.8], [0.2, 0.2, 0.8, 0.8],
            [0.2, 0.8, 0.2, 0.8], [0.2, 0.2, 0.8, 0.8]]}),
    ], ids=["missing-field", "bad-json", "g-out-of-range", "p-sum", "p-nan", "s-nan",
            "theta-nan"])
    def test_malformed_params_exit_1(self, tmp_path, capsys, command, text):
        qfile, params = self._write_paired_inputs(tmp_path)
        params.write_text(text)
        argv = {
            "simulate": ["--q", str(qfile), "--params", str(params), "--n", "10"],
            "witness": ["--construction", "q24", "--params", str(params)],
            "tmatrix": ["--q", str(qfile), "--params", str(params)],
        }[command]
        assert main([command, *argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_simulate_theta_off_design_exit_2(self, tmp_path, capsys):
        qfile, params = self._write_paired_inputs(tmp_path)
        theta = 1 - equal_effects_theta(load_q(qfile))  # capable subjects answer worse
        save_params_json(params, "gdina", GdinaParams(theta), np.full(4, 0.25))
        assert main(["simulate", "--q", str(qfile), "--params", str(params), "--n", "10",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: params do not fit the design: theta violates monotonicity\n"

    @pytest.mark.parametrize("command", [["tmatrix"], ["witness", "--construction", "gdina-one"]],
                             ids=["tmatrix", "witness"])
    def test_theta_off_design_exit_2(self, tmp_path, capsys, command):
        # every command that reads a GDINA table rejects it as simulate does
        qfile, params = tmp_path / "q.txt", tmp_path / "params.json"
        q = QMatrix.from_rows([[1, 0], [0, 1], [0, 1], [0, 1]])
        save_q(q, qfile)
        save_params_json(params, "gdina", GdinaParams(1 - equal_effects_theta(q)), np.full(4, 0.25))
        assert main([*command, "--q", str(qfile), "--params", str(params),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: params do not fit the design: theta violates monotonicity\n"
        assert not (tmp_path / "o").exists()

    def test_check_json_prints_one_document(self, tmp_path, capsys):
        qfile, _ = self._write_paired_inputs(tmp_path)
        assert main(["check", str(qfile), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)  # nothing but the document
        assert set(payload["verdicts"]) == {"dina", "gdina"}

    @pytest.mark.parametrize("command, filename", [
        ("simulate", "dataset.csv"), ("fit", "fit.json"), ("search", "search.json"),
        ("witness", "witness.json"), ("tmatrix", "tmatrix.csv"),
    ])
    def test_json_prints_the_file_it_writes(self, tmp_path, capsys, command, filename):
        qfile, params = self._write_paired_inputs(tmp_path)
        data = tmp_path / "sim" / "dataset.csv"
        assert main(["simulate", "--q", str(qfile), "--params", str(params), "--n", "200",
                     "--seed", "7", "--out", str(data.parent)]) == 0
        capsys.readouterr()
        argv = {
            "simulate": ["--q", str(qfile), "--params", str(params), "--n", "20"],
            "fit": ["--model", "dina", "--q", str(qfile), "--data", str(data), "--restarts", "1"],
            "search": ["--model", "dina", "--truth", str(qfile), "--data", str(data),
                       "--restarts", "1"],
            "witness": ["--construction", "q24", "--params", str(params)],
            "tmatrix": ["--q", str(qfile), "--params", str(params)],
        }[command]
        out = tmp_path / "o"
        assert main([command, *argv, "--out", str(out), "--json"]) == 0
        assert capsys.readouterr().out == (out / filename).read_text()
        assert sorted(path.name for path in out.iterdir()) == sorted([filename, "manifest.json"])

    def test_witness_q24(self, tmp_path, capsys):
        _, params = self._write_paired_inputs(tmp_path)
        assert main([
            "witness", "--construction", "q24", "--params", str(params),
            "--count", "2",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 2
        assert all(w["maxDiff"] < 1e-12 for w in payload["witnesses"])

    def test_witness_constraint_holds_exit(self, tmp_path, capsys):
        _, params = self._write_paired_inputs(tmp_path, uniform=False)
        assert main([
            "witness", "--construction", "q24", "--params", str(params),
        ]) == 2
        assert "constraint" in capsys.readouterr().err

    def test_tmatrix_export(self, tmp_path, capsys):
        qfile, params = self._write_paired_inputs(tmp_path)
        out = tmp_path / "t"
        assert main([
            "tmatrix", "--q", str(qfile), "--params", str(params), "--out", str(out),
        ]) == 0
        lines = (out / "tmatrix.csv").read_text().strip().splitlines()
        assert len(lines) == 17  # header + 2^4 response patterns
        capsys.readouterr()

    def test_reports_byte_identical(self, tmp_path, capsys):
        qfile, params = self._write_paired_inputs(tmp_path, uniform=False)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "simulate", "--q", str(qfile), "--params", str(params),
                "--n", "200", "--seed", "11", "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()

    def test_search_without_fittable_candidate(self, tmp_path, capsys):
        # empty data fails every candidate alike, so the sweep raises first
        qfile, _ = self._write_paired_inputs(tmp_path)
        counts = tmp_path / "counts.csv"
        counts.write_text("pattern_bits,count\n0,0\n")
        assert main([
            "search", "--model", "dina", "--data", str(counts), "--counts",
            "--truth", str(qfile), "--restarts", "1",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no observations\n"
        assert captured.out == ""

    def test_search_small(self, tmp_path, capsys):
        qfile, params = self._write_paired_inputs(tmp_path, uniform=False)
        out = tmp_path / "sim"
        main([
            "simulate", "--q", str(qfile), "--params", str(params),
            "--n", "800", "--seed", "3", "--out", str(out),
        ])
        capsys.readouterr()
        assert main([
            "search", "--model", "dina", "--data", str(out / "dataset.csv"),
            "--attributes", "2", "--truth", str(qfile),
            "--restarts", "2", "--seed", "2",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["candidates"]
        assert isinstance(payload["truthIsArgmax"], bool)
        assert all(c["iterations"] >= 1 for c in payload["candidates"])
        assert payload["unconverged"] == sum(not c["converged"] for c in payload["candidates"])

    @pytest.mark.parametrize("items, extra, shapes", [
        (4, ["--attributes", "3"], "(4, 3) vs (4, 2)"),  # attribute count
        (5, [], "(5, 2) vs (4, 2)"),  # item count of the responses
    ])
    def test_search_shape_mismatch_before_fit(self, tmp_path, capsys, monkeypatch,
                                              items, extra, shapes):
        from qident import cli

        qfile, _ = self._write_paired_inputs(tmp_path)
        data = tmp_path / "responses.csv"
        data.write_text(",".join(f"item{j + 1}" for j in range(items)) + "\n"
                        + ",".join("1" * items) + "\n")
        monkeypatch.setattr(cli, "exhaustive_search", lambda *a, **kw: pytest.fail("fit ran"))
        assert main(["search", "--model", "dina", "--data", str(data),
                     "--truth", str(qfile), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: shapes differ: {shapes}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("rows, flaw", [
        ([[1, 0], [0, 1], [0, 0], [1, 1], [0, 1]], "zero rows [3]"),
        ([[1, 0]] * 4, "attributes no item requires [2]"),
    ])
    def test_search_truth_outside_the_census_before_fit(self, tmp_path, capsys, monkeypatch,
                                                        rows, flaw):
        # the candidates have no zero row and use every attribute, so such a
        # truth can never be the argmax
        from qident import cli

        qfile, data = tmp_path / "q.txt", tmp_path / "responses.csv"
        save_q(QMatrix.from_rows(rows), qfile)
        data.write_text(",".join("1" * len(rows)) + "\n")
        monkeypatch.setattr(cli, "exhaustive_search", lambda *a, **kw: pytest.fail("fit ran"))
        assert main(["search", "--model", "dina", "--data", str(data),
                     "--truth", str(qfile)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: truth has {flaw}: no candidate design can equal it\n"
        assert captured.out == ""

    @pytest.mark.parametrize("truth, message", [
        (True, "shapes differ: (4, 0) vs (4, 2)"),
        (False, "need at least one row and one column, got (4, 0)"),
    ])
    def test_search_zero_attributes_exit_2(self, tmp_path, capsys, monkeypatch, truth, message):
        from qident import cli

        qfile, _ = self._write_paired_inputs(tmp_path)
        data = tmp_path / "responses.csv"
        data.write_text("item1,item2,item3,item4\n1,0,1,0\n")
        monkeypatch.setattr(cli, "exhaustive_search", lambda *a, **kw: pytest.fail("fit ran"))
        extra = ["--truth", str(qfile)] if truth else []
        assert main(["search", "--model", "dina", "--data", str(data),
                     "--attributes", "0", *extra]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("extra, message", [
        (["--counts"], "--counts needs --truth to fix the item count"),
        ([], "--attributes (or --truth) is required to enumerate candidates"),
    ])
    def test_search_without_truth_exit_2(self, tmp_path, capsys, extra, message):
        data = tmp_path / "responses.csv"
        data.write_text("1,0\n0,1\n")
        assert main(["search", "--model", "dina", "--data", str(data), *extra]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_search_stringent_without_eligible_candidate(self, tmp_path, capsys, monkeypatch):
        # the all-ones design as the only candidate, which cannot satisfy
        # the subset order on saturated-model data
        from qident import cli
        from qident.catalog import Q5X2_SINGLE_IDENTITY, equal_effects_theta
        from qident.rlcm import simulate

        q = Q5X2_SINGLE_IDENTITY
        data = simulate("gdina", q, equal_effects_theta(q), np.full(4, 0.25), 10_000, seed=0)
        counts, qfile = tmp_path / "counts.csv", tmp_path / "q.txt"
        save_pattern_counts_csv(data, counts)
        save_q(q, qfile)
        monkeypatch.setattr(cli, "enumerate_canonical", lambda J, K: np.full((1, J), 3))
        argv = ["search", "--model", "gdina", "--data", str(counts), "--counts",
                "--truth", str(qfile), "--restarts", "3", "--seed", "25", "--tol", "1e-6"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--stringent"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no fitted candidate satisfies the subset order\n"
        assert captured.out == ""


def _witness_inputs(tmp_path, rows, model="dina", s=None, g=None, qbar_rows=None):
    """Write --q (and --qbar) and a params file with uniform p; the
    construction-specific argv tail."""
    q = QMatrix.from_rows(rows)
    J, n = q.n_items, 1 << q.n_attributes
    save_q(q, tmp_path / "q.txt")
    argv = ["--q", str(tmp_path / "q.txt"), "--params", str(tmp_path / "params.json")]
    if qbar_rows is not None:
        save_q(QMatrix.from_rows(qbar_rows), tmp_path / "qbar.txt")
        argv += ["--qbar", str(tmp_path / "qbar.txt")]
    if model == "gdina":
        params = GdinaParams(equal_effects_theta(q))
    else:
        params = DinaParams(np.full(J, 0.2) if s is None else np.array(s),
                            np.full(J, 0.2) if g is None else np.array(g))
    save_params_json(tmp_path / "params.json", model, params, np.full(n, 1 / n))
    return argv


_PAIRED = [[1, 0], [0, 1], [1, 0], [0, 1]]
_LONELY = [[0, 1], [0, 1], [0, 1], [1, 0], [0, 1]]  # catalog Q5X2_LONELY_ATTRIBUTE
_FULL_ROW = [[1, 0], [0, 1], [1, 1], [0, 1]]  # catalog Q4X2_PAIR_WITH_FULL_ROW
_MERGE = ([[1, 0], [1, 1], [1, 1], [1, 0]], [[1, 0], [0, 1], [0, 1], [1, 0]])
_STRICT = [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]]


class TestWitnessCli:
    @pytest.mark.parametrize("construction, inputs", [
        ("q24", dict(rows=_PAIRED)),
        ("one-item", dict(rows=_LONELY)),
        ("scenario-a", dict(rows=_FULL_ROW)),
        ("gdina-one", dict(rows=[[1, 0], [0, 1], [0, 1], [0, 1]], model="gdina")),
        ("gdina-two", dict(rows=[[1, 1], [1, 0], [0, 1], [0, 1], [0, 1]], model="gdina")),
        ("gamma-merge", dict(rows=_MERGE[0], qbar_rows=_MERGE[1])),
    ])
    def test_every_construction_certifies(self, tmp_path, capsys, construction, inputs):
        argv = _witness_inputs(tmp_path, **inputs)
        assert main(["witness", "--construction", construction, *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["witnesses"]) >= 1
        assert all(w["maxDiff"] < 1e-12 for w in payload["witnesses"])

    @pytest.mark.parametrize("construction, rows, s, g, target", [
        # the default free value comes from the target item, not item 1,
        # whose values would put it out of range
        ("one-item", _LONELY, [.35, .2, .2, .1, .2], [.1, .2, .2, .6, .2], ("item", 4)),
        ("scenario-a", [[0, 1], [1, 0], [1, 1], [0, 1]], [.2, .45, .2, .2], [.6, .1, .2, .2],
         ("unit_item", 2)),
    ])
    def test_default_free_value_from_target_item(self, tmp_path, capsys, construction,
                                                 rows, s, g, target):
        argv = _witness_inputs(tmp_path, rows, s=s, g=g)
        assert main(["witness", "--construction", construction, *argv]) == 0
        (witness,) = json.loads(capsys.readouterr().out)["witnesses"]
        assert witness["maxDiff"] < 1e-12
        key, item = target
        assert witness["details"][key] == item

    @pytest.mark.parametrize("construction, rows, qbar_rows", [
        ("q24", _PAIRED, None),
        ("one-item", _LONELY, None),
        ("scenario-a", _FULL_ROW, None),
        ("gamma-merge", *_MERGE),
    ])
    def test_gdina_params_rejected(self, tmp_path, capsys, construction, rows, qbar_rows):
        argv = _witness_inputs(tmp_path, rows, model="gdina", qbar_rows=qbar_rows)
        assert main(["witness", "--construction", construction, *argv]) == 2
        assert "needs a params file with s and g" in capsys.readouterr().err

    @pytest.mark.parametrize("construction, rows, qbar_rows", [
        ("q24", _PAIRED, None),
        ("one-item", _LONELY, None),
        ("scenario-a", _FULL_ROW, None),
        ("gamma-merge", *_MERGE),
    ])
    def test_dino_params_rejected(self, tmp_path, capsys, construction, rows, qbar_rows):
        # a DINO file carries s and g too, but the constructions read them as DINA
        argv = _witness_inputs(tmp_path, rows, model="dino", qbar_rows=qbar_rows)
        out = tmp_path / "w"
        assert main(["witness", "--construction", construction, *argv, "--out", str(out)]) == 2
        assert "params file is for model 'dino'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected_first(self, tmp_path, capsys, count):
        argv = _witness_inputs(tmp_path, _PAIRED)
        out = tmp_path / "w"
        assert main(["witness", "--construction", "q24", *argv, "--count", str(count),
                     "--out", str(out), "--dump-table"]) == 2
        assert f"count must be at least 1, got {count}" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_table_limit_checked_first(self, tmp_path, capsys):
        argv = _witness_inputs(tmp_path, [[1, 0]] + [[0, 1]] * 16)
        out = tmp_path / "w"
        assert main(["witness", "--construction", "one-item", *argv,
                     "--out", str(out), "--dump-table"]) == 2
        assert "J <= 16" in capsys.readouterr().err
        assert not (out / "witness.json").exists()

    @pytest.mark.parametrize("qbar_rows", [_STRICT, [row[::-1] for row in _STRICT]])
    def test_gamma_merge_onto_relabeled_truth_exit_2(self, tmp_path, capsys, qbar_rows):
        argv = _witness_inputs(tmp_path, _STRICT, qbar_rows=qbar_rows)
        out = tmp_path / "w"
        assert main(["witness", "--construction", "gamma-merge", *argv, "--out", str(out)]) == 2
        assert "coincides" in capsys.readouterr().err
        assert not (out / "witness.json").exists()

    def test_dump_table(self, tmp_path, capsys):
        argv = _witness_inputs(tmp_path, _PAIRED)
        out = tmp_path / "w"
        assert main(["witness", "--construction", "q24", *argv, "--out", str(out),
                     "--dump-table"]) == 0
        lines = (out / "distributions.csv").read_text().splitlines()
        assert len(lines) == 17 and lines[0] == "pattern_bits,p_truth,p_alternative"
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert (table[:, 0] == np.arange(16)).all()
        assert np.abs(table[:, 1] - table[:, 2]).max() < 1e-12

    def test_dump_table_gdina_params(self, tmp_path, capsys):
        # the J <= 16 guard reads the item count of a GDINA params file
        argv = _witness_inputs(tmp_path, [[1, 1], [1, 0], [0, 1], [0, 1], [0, 1]], model="gdina")
        out = tmp_path / "w"
        assert main(["witness", "--construction", "gdina-two", *argv, "--out", str(out),
                     "--dump-table"]) == 0
        lines = (out / "distributions.csv").read_text().splitlines()
        assert len(lines) == 2**5 + 1 and lines[0] == "pattern_bits,p_truth,p_alternative"
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.abs(table[:, 1] - table[:, 2]).max() < 1e-12

    def test_design_file_required(self, tmp_path, capsys):
        argv = _witness_inputs(tmp_path, _LONELY)
        assert main(["witness", "--construction", "one-item", *argv[2:]]) == 2
        assert capsys.readouterr().err == (
            "error: --q is required for construction 'one-item'\n")

    def test_dump_table_needs_out(self, tmp_path, capsys):
        argv = _witness_inputs(tmp_path, _PAIRED)
        assert main(["witness", "--construction", "q24", *argv, "--dump-table"]) == 2
        assert "--dump-table needs --out" in capsys.readouterr().err

    @pytest.mark.parametrize("construction, inputs", [
        ("q24", dict(rows=_PAIRED)),
        ("gdina-one", dict(rows=[[1, 0], [0, 1], [0, 1], [0, 1]], model="gdina")),
        ("gdina-two", dict(rows=[[1, 1], [1, 0], [0, 1], [0, 1], [0, 1]], model="gdina")),
        ("gamma-merge", dict(rows=_MERGE[0], qbar_rows=_MERGE[1])),
    ])
    def test_free_rejected_where_ignored(self, tmp_path, capsys, construction, inputs):
        argv = _witness_inputs(tmp_path, **inputs)
        assert main(["witness", "--construction", construction, *argv, "--free", "0.5"]) == 2
        captured = capsys.readouterr()
        assert "--free is taken only by constructions 'one-item' and 'scenario-a'" in captured.err
        assert captured.out == ""
