"""Golden outputs: `gapstream run` on every bundled spec/trace pair.

Each run's output is compared byte for byte with a file under golden/.
The files were generated once and are never regenerated to make a change
pass: they pin the native path's output independently of the encoded path,
which the native == encoded acceptance check cannot do when a change
touches both.  Gap-free traces run plain; every trace also runs abstract
and unrolled, with and without the time-aware rewrites.
"""

from importlib import resources
from pathlib import Path

import pytest

from gapstream import cli

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


def test_every_golden_file_is_used():
    assert sorted(p.name for p in GOLDEN.glob("*.out")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv("GAPSTREAM_EPSILON", raising=False)
    out = tmp_path / name
    assert cli.main([*RUNS[name], "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
