#!/usr/bin/env python3
"""End-to-end demo: one spec, one lossy trace, all four evaluation modes.

Prints the rendered input, then the outputs of: concrete evaluation on the
loss-free variant, abstract evaluation (unrolled), the time-aware variant,
and the concrete-operator encoding, which must agree with the native run
byte for byte: the script exits 1 when it does not.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from gapstream.builtin_specs import spec_text, trace_text


def run(*args):
    got = subprocess.run([sys.executable, "-m", "gapstream", *args],
                         capture_output=True, text=True)
    if got.returncode != 0:
        raise SystemExit(f"command failed: {args}\n{got.stderr}")
    return got.stdout


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec = tmp / "reset-sum.spec"
        spec.write_text(spec_text("reset-sum"))
        fig = tmp / "fig.trace"
        fig.write_text(trace_text("reset-sum-fig"))
        gapped = tmp / "gapped.trace"
        gapped.write_text(trace_text("reset-sum-gapped"))

        print("== lossy input trace ==")
        print(run("render", str(gapped)))
        print("== concrete run on the loss-free trace ==")
        print(run("run", str(spec), str(fig)))
        print("== abstract run (gaps propagate, recovery after resets) ==")
        native = run("run", "--abstract", "--unroll", str(spec), str(gapped))
        print(native)
        print("== time-aware abstract run (timestamp comparisons stay exact) ==")
        print(run("run", "--abstract", "--unroll", "--time-aware",
                  str(spec), str(gapped)))
        print("== concrete-operator encoding agrees with the native run ==")
        encoded = run("run", "--abstract", "--path", "encoded",
                      str(spec), str(gapped))
        print("byte-identical:", encoded == native)
        if encoded != native:
            raise SystemExit("the encoded run differs from the native one")


if __name__ == "__main__":
    main()
