"""Command-line interface: sub-commands, exit codes, determinism."""

import subprocess
import sys
from pathlib import Path

import pytest

from gapstream.builtin_specs import spec_text, trace_text

PKG = Path(__file__).resolve().parent.parent


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "gapstream", *args],
                          capture_output=True, text=True, cwd=PKG, **kw)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "reset-sum.spec").write_text(spec_text("reset-sum"))
    (tmp_path / "fig.trace").write_text(trace_text("reset-sum-fig"))
    (tmp_path / "gapped.trace").write_text(trace_text("reset-sum-gapped"))
    return tmp_path


class TestRun:
    def test_concrete_run(self, workdir):
        got = run_cli("run", str(workdir / "reset-sum.spec"),
                      str(workdir / "fig.trace"))
        assert got.returncode == 0
        assert "7: sum = 0" in got.stdout
        assert "8.3: sum = 4" in got.stdout

    def test_deterministic_output(self, workdir):
        a = run_cli("run", str(workdir / "reset-sum.spec"), str(workdir / "fig.trace"))
        b = run_cli("run", str(workdir / "reset-sum.spec"), str(workdir / "fig.trace"))
        assert a.stdout == b.stdout and a.returncode == 0

    def test_abstract_requires_flag(self, workdir):
        got = run_cli("run", str(workdir / "reset-sum.spec"),
                      str(workdir / "gapped.trace"))
        assert got.returncode == 2
        assert "abstract" in got.stderr

    def test_abstract_needs_unroll(self, workdir):
        got = run_cli("run", "--abstract", str(workdir / "reset-sum.spec"),
                      str(workdir / "gapped.trace"))
        assert got.returncode == 1
        assert "unroll" in got.stderr

    def test_native_and_encoded_agree(self, workdir):
        a = run_cli("run", "--abstract", "--unroll",
                    str(workdir / "reset-sum.spec"), str(workdir / "gapped.trace"))
        b = run_cli("run", "--abstract", "--path", "encoded",
                    str(workdir / "reset-sum.spec"), str(workdir / "gapped.trace"))
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        assert "9: sum = #top" in a.stdout

    def test_time_aware_recovers(self, workdir):
        got = run_cli("run", "--abstract", "--unroll", "--time-aware",
                      str(workdir / "reset-sum.spec"), str(workdir / "gapped.trace"))
        assert "9: sum = 0" in got.stdout
        assert "11: sum = #top" in got.stdout

    def test_missing_file(self, workdir):
        got = run_cli("run", str(workdir / "nope.spec"), str(workdir / "fig.trace"))
        assert got.returncode == 1

    def test_bad_trace(self, workdir, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("stream values : Int\n3: values = 1\n1: values = 2\nprogress 9\n")
        got = run_cli("run", str(workdir / "reset-sum.spec"), str(bad))
        assert got.returncode == 2

    def test_reserved_stream_name(self, workdir, tmp_path):
        spec = tmp_path / "reserved.spec"
        spec.write_text("in values : Events[Int]\n"
                        "def __sweeps__ := const(5)(values)\nout __sweeps__\n")
        got = run_cli("run", str(spec), str(workdir / "fig.trace"))
        assert got.returncode == 1
        assert "__sweeps__" in got.stderr and "Traceback" not in got.stderr


class TestCheck:
    def test_well_formed(self, workdir):
        got = run_cli("check", str(workdir / "reset-sum.spec"))
        assert got.returncode == 0 and "well-formed" in got.stdout

    def test_unguarded_cycle(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("in y : Events[Int]\ndef x := merge(x, y)\nout x\n")
        got = run_cli("check", str(bad))
        assert got.returncode == 1 and "x" in got.stdout

    def test_abstract_cycle_reported_then_fixed(self, workdir):
        spec = str(workdir / "reset-sum.spec")
        bad = run_cli("check", "--abstract", spec)
        assert bad.returncode == 1
        good = run_cli("check", "--abstract", "--unroll", spec)
        assert good.returncode == 0


class TestRender:
    def test_rows_and_gap(self, workdir):
        got = run_cli("render", str(workdir / "gapped.trace"))
        assert got.returncode == 0
        lines = got.stdout.splitlines()
        vrow = next(l for l in lines if l.strip().startswith("values"))
        assert "o" in vrow and "~" in vrow


class TestDepth:
    def test_overhead_reported(self, workdir):
        got = run_cli("depth", str(workdir / "reset-sum.spec"))
        assert got.returncode == 0
        parts = dict(p.split("=") for p in got.stdout.split())
        assert int(parts["d#"]) > int(parts["d"])


class TestIgnorance:
    def test_reports_equal_pair(self, tmp_path):
        (tmp_path / "s.spec").write_text(spec_text("reset-sum"))
        (tmp_path / "t.trace").write_text(trace_text("reset-sum-ign"))
        got = run_cli("ignorance", str(tmp_path / "s.spec"), str(tmp_path / "t.trace"),
                      "--time-aware", "--universe-grid", "2",
                      "--universe-values", "1,2",
                      "--universe-values", "values:1",
                      "--output", "sum")
        assert got.returncode == 0
        assert "optimal=1/4" in got.stdout and "abstract=1/4" in got.stdout

    def test_budget_exit_code(self, tmp_path):
        (tmp_path / "s.spec").write_text(spec_text("reset-sum"))
        (tmp_path / "t.trace").write_text(trace_text("reset-sum-gapped"))
        got = run_cli("ignorance", str(tmp_path / "s.spec"), str(tmp_path / "t.trace"),
                      "--universe-grid", "5,8,9", "--universe-values", "0,1,2,3",
                      "--budget", "3")
        assert got.returncode == 3
