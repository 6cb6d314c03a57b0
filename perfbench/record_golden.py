"""Record the golden CSVs: one call of every workload at the default seed.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Run it from the root of a source checkout whose outputs are known good; the
files land in ``perfbench/golden/`` and ``run.py`` counts the data rows that
differ from them as ``output_mismatch`` whenever it runs at the default seed.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import run


def main(names: list[str]) -> int:
    run.import_package()
    import workloads

    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        workdir = tempfile.mkdtemp(prefix="_work-", dir=run.HERE)
        try:
            workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, workdir, False)
            outcome = workload.call()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        errors = workload.invariant_errors(outcome)
        if outcome.failed or errors:
            print(f"error: {name}: {outcome.failed} failed items, {errors[:5]}",
                  file=sys.stderr)
            return 1
        workload.golden_path.write_text(outcome.text)
        print(f"{workload.golden_path.relative_to(run.ROOT)}: "
              f"{len(outcome.text.splitlines())} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
