"""File formats, report determinism, and the command-line interface."""

import json

import numpy as np
import pytest

from qident import DinaParams, QMatrix
from qident.cli import main
from qident.errors import ParseError
from qident.io import (
    dump_report,
    load_pattern_counts_csv,
    load_q,
    load_responses_csv,
    parse_q_text,
    save_dataset_csv,
    save_params_json,
    save_pattern_counts_csv,
    save_q,
)
from qident.rlcm import Dataset


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
        save_dataset_csv(data, path)
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


def test_dump_report_deterministic():
    payload = {"b": [1.0 / 3.0, 2], "a": {"x": np.float64(0.1)}}
    assert dump_report(payload) == dump_report(json.loads(dump_report(payload)))
    # floats survive a round trip exactly
    decoded = json.loads(dump_report(payload))
    assert decoded["b"][0] == 1.0 / 3.0


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

    def test_enumerate_counts(self, tmp_path):
        out = tmp_path / "enum"
        assert main(["enumerate", "5", "2", "--classify", "--out", str(out)]) == 0
        lines = (out / "designs.csv").read_text().strip().splitlines()
        assert len(lines) == 122  # header + 121 designs
        assert (out / "manifest.json").exists()

    def test_enumerate_classifies_paired_design(self, tmp_path):
        out = tmp_path / "enum"
        main(["enumerate", "5", "2", "--classify", "--out", str(out)])
        rows = (out / "designs.csv").read_text().strip().splitlines()[1:]
        paired = [r for r in rows if sorted(r.split(",")[1].split(";")) == sorted(
            ["01", "10", "10", "01", "01"]
        )]
        assert paired and all(r.endswith("GenericScenarioB2") for r in paired)

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
