"""Command-line interface: sub-commands, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gapstream.builtin_specs import spec_text, trace_text

from conftest import reverse_chain_spec

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

    def test_output_with_top_reads_back(self, workdir, tmp_path):
        # #top beside an exact non-integral payload: an Int declaration
        # would reject the payload when the output is read as a trace
        spec = tmp_path / "q8.spec"
        spec.write_text(spec_text("queue").replace("window_strip(5)", "window_strip(8)"))
        trace = tmp_path / "mixed.trace"
        trace.write_text("stream load : Real\n1: gap load\n2: known load\n"
                         "7: load = 0.1\n20: load = 0.5\nprogress 30\n")
        got = run_cli("run", "--abstract", "--unroll", str(spec), str(trace))
        assert got.returncode == 0, got.stderr
        assert "7: avg = #top" in got.stdout and "20: avg = 0.16" in got.stdout
        assert got.stdout.startswith("stream avg : Real\n")
        out = tmp_path / "out.trace"
        out.write_text(got.stdout)
        echo = tmp_path / "echo.spec"
        echo.write_text("in avg : Events[Real]\ndef copy := merge(avg, avg)\nout copy\n")
        again = run_cli("run", "--abstract", "--unroll", str(echo), str(out))
        assert again.returncode == 0, again.stderr

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

    @pytest.mark.parametrize("body, event, code", [
        ("const(1/0)(x)", "1", 1),
        ("lift(enq_bounded(top))(x, x, x)", "1", 1),
        ("merge(x)", "[3, 1]", 2),
    ])
    def test_bad_input_is_typed(self, tmp_path, body, event, code):
        spec = tmp_path / "bad.spec"
        spec.write_text(f"in x : Events[Interval]\ndef z := {body}\nout z\n")
        trace = tmp_path / "bad.trace"
        trace.write_text(f"stream x : Interval\n1: x = {event}\nprogress 2\n")
        got = run_cli("run", str(spec), str(trace))
        assert got.returncode == code
        assert "line 2" in got.stderr and "Traceback" not in got.stderr

    def test_queue_bound_below_two_is_typed(self, tmp_path):
        spec = tmp_path / "bounded.spec"
        spec.write_text(spec_text("finite-queue").replace("enq_bounded(3)", "enq_bounded(0)"))
        trace = tmp_path / "fig.trace"
        trace.write_text(trace_text("finite-queue-fig"))
        got = run_cli("run", "--abstract", "--unroll", str(spec), str(trace))
        assert got.returncode == 1
        assert "line 6" in got.stderr and "Traceback" not in got.stderr

    @pytest.mark.parametrize("old, new, line", [
        ("window_integral(5)", "window_integral(0)", "line 7"),
        ("window_strip(5)", "window_strip(0)", "line 5"),
    ])
    def test_window_length_not_positive_is_typed(self, tmp_path, old, new, line):
        # each failed at evaluation before: a division by zero in the
        # integral, an enqueue behind the queue's end after the strip
        spec = tmp_path / "queue.spec"
        spec.write_text(spec_text("queue").replace(old, new))
        trace = tmp_path / "fig.trace"
        trace.write_text(trace_text("queue-fig"))
        for mode in ((), ("--abstract", "--unroll")):
            got = run_cli("run", *mode, str(spec), str(trace))
            assert got.returncode == 1
            assert "bad parameters for function" in got.stderr
            assert line in got.stderr and "Traceback" not in got.stderr

    def test_timeout_offset_not_positive_is_typed(self, tmp_path):
        # it was well-formed before, and the abstract run stopped in delay
        spec = tmp_path / "self-updating.spec"
        spec.write_text(spec_text("self-updating-queue").replace("timeout_after(5)",
                                                                 "timeout_after(0)"))
        got = run_cli("check", str(spec))
        assert got.returncode == 1
        assert "bad parameters for function" in got.stderr
        assert "line 7" in got.stderr and "Traceback" not in got.stderr

    @pytest.mark.parametrize("stream_type, value, body", [
        ("Unit", "()", "lift(inc)(x)"),
        ("Int", "3", "lift(div)(x, const(0)(x))"),
    ])
    def test_value_function_failure_is_typed(self, tmp_path, stream_type, value, body):
        spec = tmp_path / "bad.spec"
        spec.write_text(f"in x : Events[{stream_type}]\ndef z := {body}\nout z\n")
        trace = tmp_path / "bad.trace"
        trace.write_text(f"stream x : {stream_type}\n1: x = {value}\nprogress 2\n")
        got = run_cli("run", str(spec), str(trace))
        assert got.returncode == 1
        assert "evaluation error" in got.stderr and "Traceback" not in got.stderr


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


class TestDeepSpec:
    @pytest.mark.parametrize("command, shows", [
        ("check", "well-formed (3001 equations, depth 3001)"), ("depth", "d=3001 ")])
    def test_reverse_chain(self, tmp_path, command, shows):
        spec = tmp_path / "chain.spec"
        spec.write_text(reverse_chain_spec(3000))
        got = run_cli(command, str(spec))
        assert got.returncode == 0 and "Traceback" not in got.stderr
        assert shows in got.stdout


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

    @pytest.mark.parametrize("command", ["run", "depth"])
    def test_bad_epsilon_is_typed(self, workdir, command):
        args = [str(workdir / "reset-sum.spec")]
        if command == "run":
            args.append(str(workdir / "fig.trace"))
        got = run_cli(command, *args, env={**os.environ, "GAPSTREAM_EPSILON": "fine"})
        assert got.returncode == 1
        assert "GAPSTREAM_EPSILON" in got.stderr and "Traceback" not in got.stderr

    @pytest.mark.parametrize("command", [
        ("depth",), ("run", "--abstract", "--path", "encoded")])
    def test_empty_abstract_merge_is_typed(self, workdir, tmp_path, command):
        spec = tmp_path / "empty.spec"
        spec.write_text("in values : Events[Int]\ndef z := merge_abs()\nout z\n")
        args = [str(spec)]
        if command[0] == "run":
            args.append(str(workdir / "gapped.trace"))
        got = run_cli(*command, *args)
        assert got.returncode == 1
        assert "merge_abs" in got.stderr and "Traceback" not in got.stderr


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

    def test_interval_measure_keeps_optimal_below_abstract(self, tmp_path):
        # the concrete sum takes 3 at time 2, outside the universe values;
        # the abstract side's gap must still reach the measure's bounds
        (tmp_path / "s.spec").write_text(spec_text("reset-sum"))
        (tmp_path / "t.trace").write_text(trace_text("reset-sum-ign"))
        got = run_cli("ignorance", str(tmp_path / "s.spec"), str(tmp_path / "t.trace"),
                      "--time-aware", "--universe-grid", "2",
                      "--universe-values", "1,2", "--output", "sum",
                      "--measure", "interval:0,4")
        assert got.returncode == 0
        assert "optimal=1/8" in got.stdout and "abstract=1/4" in got.stdout

    def test_budget_exit_code(self, tmp_path):
        (tmp_path / "s.spec").write_text(spec_text("reset-sum"))
        (tmp_path / "t.trace").write_text(trace_text("reset-sum-gapped"))
        got = run_cli("ignorance", str(tmp_path / "s.spec"), str(tmp_path / "t.trace"),
                      "--universe-grid", "5,8,9", "--universe-values", "0,1,2,3",
                      "--budget", "3")
        assert got.returncode == 3

    @pytest.mark.parametrize("extra, env, named", [
        (["--universe-grid", "abc"], {}, "--universe-grid"),
        (["--universe-values", "1,x"], {}, "--universe-values"),
        (["--measure", "interval:1"], {}, "--measure"),
        (["--measure", "bogus"], {}, "--measure"),
        ([], {"GAPSTREAM_BUDGET": "lots"}, "GAPSTREAM_BUDGET"),
    ], ids=["grid", "values", "interval-arity", "unknown-measure", "budget-env"])
    def test_bad_option_is_typed(self, tmp_path, extra, env, named):
        (tmp_path / "s.spec").write_text(spec_text("reset-sum"))
        (tmp_path / "t.trace").write_text(trace_text("reset-sum-ign"))
        got = run_cli("ignorance", str(tmp_path / "s.spec"), str(tmp_path / "t.trace"),
                      "--time-aware", "--universe-grid", "2", "--universe-values", "1,2",
                      *extra, env={**os.environ, **env})
        assert got.returncode == 1
        assert named in got.stderr and "Traceback" not in got.stderr
