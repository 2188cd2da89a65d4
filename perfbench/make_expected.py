"""Regenerate ``expected_outputs.json``: the reference output of every
suite program at its training and evaluation input.

The outputs come from the reference interpreter on the un-optimised
module, which takes several seconds for the suite -- too slow to repeat
at every benchmark set-up.  Each entry records the program's source
hash and inputs, so set-up refuses an entry that no longer matches.

Run from the repository root: ``python3 perfbench/make_expected.py``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.benchsuite.programs import SUITE  # noqa: E402
from workloads import EXPECTED_PATH, reference_output, source_digest  # noqa: E402


def main() -> None:
    programs = {}
    for bench in SUITE:
        programs[bench.name] = {
            "sha256": source_digest(bench.source),
            "train_n": bench.train_n,
            "eval_n": bench.eval_n,
            "train": reference_output(bench.source, bench.name, bench.train_n),
            "eval": reference_output(bench.source, bench.name, bench.eval_n),
        }
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"programs": programs}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
