"""Golden outputs: `gapstream run` on every bundled spec/trace pair.

Each run's output is compared byte for byte with a file under golden/.
The files were generated once and are never regenerated to make a change
pass: they pin the native path's output independently of the encoded path,
which the native == encoded acceptance check cannot do when a change
touches both.  Gap-free traces run plain; every trace also runs abstract
and unrolled, with and without the time-aware rewrites.  Each bundled
ignorance setup also runs `gapstream ignorance`, pinning the exact optimal
and abstract ignorance it prints, and `gapstream depth` runs on every bundled spec,
plain and time-aware, pinning the depth-overhead table.
"""

from importlib import resources
from pathlib import Path

import pytest

from gapstream import cli
from gapstream.builtin_specs import IGNORANCE_SETUPS
from gapstream.values import UNIT

GOLDEN = Path(__file__).resolve().parent / "golden"

PAIRS = (
    ("running-count", "running-count"),
    ("reset-count", "reset-count-gapped"),
    ("reset-sum", "reset-sum-fig"),
    ("reset-sum", "reset-sum-gapped"),
    ("reset-sum", "reset-sum-ign"),
    ("filter-example", "filter-example-gapped"),
    ("variable-period", "variable-period-gapped"),
    ("bursts", "bursts-gapped"),
    ("queue", "queue-fig"),
    ("finite-queue", "finite-queue-fig"),
    ("self-updating-queue", "self-updating-queue-gapped"),
)
GAP_FREE = {"running-count", "reset-sum-fig"}
MODES = {
    "plain": (),
    "abstract-unroll": ("--abstract", "--unroll"),
    "abstract-unroll-time-aware": ("--abstract", "--unroll", "--time-aware"),
}


def golden_runs():
    """(file name, CLI arguments) of every golden run."""
    bundled = resources.files("gapstream") / "bundled"
    for spec, trace in PAIRS:
        for mode, flags in MODES.items():
            if mode == "plain" and trace not in GAP_FREE:
                continue
            args = ("run", *flags, str(bundled / f"{spec}.spec"),
                    str(bundled / f"{trace}.trace"))
            yield f"{spec}__{trace}__{mode}.out", args


RUNS = dict(golden_runs())


def _universe_value(v) -> str:
    return "()" if v is UNIT else str(v)


def ignorance_runs():
    """(file name, CLI arguments) of one ignorance run per bundled setup."""
    bundled = resources.files("gapstream") / "bundled"
    for name, setup in sorted(IGNORANCE_SETUPS.items()):
        args = ["ignorance", str(bundled / f"{name}.spec"),
                str(bundled / f"{setup.trace_key}.trace"),
                "--universe-grid", ",".join(map(str, setup.grid)),
                "--universe-values", ",".join(map(_universe_value, setup.values)),
                "--output", setup.output]
        for stream, values in setup.per_stream:
            args += ["--universe-values",
                     f"{stream}:{','.join(map(_universe_value, values))}"]
        if setup.measure != "set":
            _, lo, hi = setup.measure
            args += ["--measure", f"interval:{lo},{hi}"]
        if setup.time_aware:
            args.append("--time-aware")
        yield f"ignorance__{name}.out", tuple(args)


IGNORANCE_RUNS = dict(ignorance_runs())


def depth_runs():
    """(file name, CLI arguments) of a depth run per bundled spec, plain and time-aware."""
    bundled = resources.files("gapstream") / "bundled"
    for spec in sorted({spec for spec, _ in PAIRS}):
        path = str(bundled / f"{spec}.spec")
        yield f"depth__{spec}.out", ("depth", path)
        yield f"depth__{spec}__time-aware.out", ("depth", path, "--time-aware")


DEPTH_RUNS = dict(depth_runs())


def test_every_golden_file_is_used():
    assert (sorted(p.name for p in GOLDEN.glob("*.out"))
            == sorted({**RUNS, **IGNORANCE_RUNS, **DEPTH_RUNS}))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv("GAPSTREAM_EPSILON", raising=False)
    out = tmp_path / name
    assert cli.main([*RUNS[name], "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(IGNORANCE_RUNS))
def test_golden_ignorance(name, capsys, monkeypatch):
    monkeypatch.delenv("GAPSTREAM_BUDGET", raising=False)
    assert cli.main(list(IGNORANCE_RUNS[name])) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(DEPTH_RUNS))
def test_golden_depth(name, capsys, monkeypatch):
    monkeypatch.delenv("GAPSTREAM_EPSILON", raising=False)
    assert cli.main(list(DEPTH_RUNS[name])) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
