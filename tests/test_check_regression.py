"""Tests for the CI benchmark-regression gate (benchmarks/check_regression)."""

import json

import pytest

from benchmarks.check_regression import load_means, main, write_step_summary


def write_bench(path, means):
    data = {
        "benchmarks": [
            {"fullname": name, "stats": {"mean": mean}}
            for name, mean in means.items()
        ],
    }
    path.write_text(json.dumps(data))


BASE = {"bench/a.py::test_a": 1.0, "bench/b.py::test_b": 2.0,
        "bench/c.py::test_c": 4.0, "bench/d.py::test_d": 0.5}


@pytest.fixture(autouse=True)
def isolate_step_summary(monkeypatch):
    """Keep unit-test runs of main() out of any real CI step summary."""
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)


class TestLoadMeans:
    def test_reads_fullname_to_mean(self, tmp_path):
        path = tmp_path / "bench.json"
        write_bench(path, BASE)
        assert load_means(str(path)) == BASE

    def test_missing_or_empty_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            load_means(str(tmp_path / "missing.json"))
        assert info.value.code == 2
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"benchmarks": []}))
        with pytest.raises(SystemExit) as info:
            load_means(str(empty))
        assert info.value.code == 2


class TestCompare:
    def _run(self, tmp_path, current, **kwargs):
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        write_bench(baseline_path, kwargs.pop("baseline", BASE))
        write_bench(current_path, current)
        argv = ["--baseline", str(baseline_path),
                "--current", str(current_path)]
        for name, value in kwargs.items():
            argv += [f"--{name.replace('_', '-')}", str(value)]
        return main(argv)

    def test_identical_passes(self, tmp_path, capsys):
        assert self._run(tmp_path, dict(BASE)) == 0
        assert "within threshold" in capsys.readouterr().out

    def test_single_regression_fails(self, tmp_path, capsys):
        current = dict(BASE)
        current["bench/b.py::test_b"] *= 1.5
        assert self._run(tmp_path, current) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "test_b" in captured.err

    def test_uniformly_slower_machine_passes(self, tmp_path, capsys):
        # A 2x slower runner shifts every benchmark equally; the median
        # drift correction keeps the job green.
        current = {name: mean * 2.0 for name, mean in BASE.items()}
        assert self._run(tmp_path, current) == 0
        assert "drift" in capsys.readouterr().out

    def test_relative_regression_on_slower_machine_fails(self, tmp_path):
        current = {name: mean * 2.0 for name, mean in BASE.items()}
        current["bench/c.py::test_c"] *= 1.4
        assert self._run(tmp_path, current) == 1

    def test_threshold_flag_respected(self, tmp_path):
        current = dict(BASE)
        current["bench/a.py::test_a"] *= 1.5
        assert self._run(tmp_path, current, max_regression=0.6) == 0

    def test_missing_baseline_benchmark_fails(self, tmp_path, capsys):
        current = dict(BASE)
        del current["bench/d.py::test_d"]
        assert self._run(tmp_path, current) == 1
        assert "did not run" in capsys.readouterr().err

    def test_new_benchmark_is_not_gated(self, tmp_path, capsys):
        current = dict(BASE)
        current["bench/e.py::test_new"] = 9.9
        assert self._run(tmp_path, current) == 0
        assert "not gated" in capsys.readouterr().out


class TestStepSummary:
    def test_noop_without_summary_env(self, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        assert not write_step_summary("anything")

    def _summary_after_run(self, tmp_path, monkeypatch, current):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        write_bench(baseline_path, BASE)
        write_bench(current_path, current)
        code = main(["--baseline", str(baseline_path),
                     "--current", str(current_path)])
        return code, summary.read_text()

    def test_markdown_table_written_on_pass(self, tmp_path, monkeypatch):
        current = dict(BASE)
        current["bench/a.py::test_a"] = 0.4  # a speedup
        current["bench/e.py::test_new"] = 9.9  # ungated newcomer
        code, text = self._summary_after_run(tmp_path, monkeypatch, current)
        assert code == 0
        assert "## Benchmark comparison" in text
        assert "| benchmark | baseline (s) | current (s) |" in text
        assert "| delta vs baseline |" in text
        assert "`bench/a.py::test_a`" in text
        assert ":zap: faster" in text
        assert ":new: not gated" in text
        assert "within threshold" in text

    def test_markdown_table_has_signed_deltas(self, tmp_path, monkeypatch):
        current = dict(BASE)
        current["bench/a.py::test_a"] = 0.5   # corrected 0.50x -> -50.0%
        current["bench/b.py::test_b"] = 2.4   # corrected 1.20x -> +20.0%
        code, text = self._summary_after_run(tmp_path, monkeypatch, current)
        assert code == 0
        row_a = next(line for line in text.splitlines() if "test_a" in line)
        row_b = next(line for line in text.splitlines() if "test_b" in line)
        assert "-50.0%" in row_a
        assert "+20.0%" in row_b
        # Ungated newcomers show no delta.
        current["bench/e.py::test_new"] = 9.9
        _code, text = self._summary_after_run(tmp_path, monkeypatch, current)
        row_new = next(line for line in text.splitlines()
                       if "test_new" in line)
        assert "| - | - " in row_new

    def test_markdown_table_flags_regressions(self, tmp_path, monkeypatch):
        current = dict(BASE)
        current["bench/b.py::test_b"] *= 1.8
        code, text = self._summary_after_run(tmp_path, monkeypatch, current)
        assert code == 1
        assert ":x: regression" in text
        assert "regressed beyond" in text

    def test_appends_to_existing_summary(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        summary.write_text("earlier step\n")
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert write_step_summary("benchmark table\n")
        assert summary.read_text() == "earlier step\nbenchmark table\n"
