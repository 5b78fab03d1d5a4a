"""Record ``reference.json``: the values the oracle compares at the
default seed (estimates, interval ends, sweep estimates, edge set and
separating set), taken from one oracle-checked job of each job kind.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter those outputs, and say so.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, HERE, ROOT, SRC
from workloads import JOBS, generate

sys.path.insert(0, str(SRC))

from loop import run_job  # noqa: E402
from oracle import Oracle  # noqa: E402
from surveysense import cli  # noqa: E402


def record(workload: str, work: Path) -> dict:
    inputs = generate(workload, DEFAULT_SEED, work / workload)
    oracle = Oracle(inputs, Path(cli.__file__).parent / "schemas" / "report.schema.json")
    for name in inputs.jobs:
        out = Path(tempfile.mkdtemp(dir=work))
        _, problems = run_job(cli, inputs, name, out)
        problems = problems or oracle.check(name, out)
        if problems:
            raise SystemExit(f"{workload} {name}: {problems}")
    return oracle.observed


def main() -> None:
    work = ROOT / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        reference = {w: record(w, work) for w in JOBS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
