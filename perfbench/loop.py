"""One workload's closed loop of CLI jobs, run in its own process.

Runs rounds of the workload's jobs (each job once per round,
in-process through ``surveysense.cli.main``, from one thread) until the
deadline, then prints one JSON object with every job's wall time and the
oracle's verdict. Round 0 warms caches and lazy imports and is not timed.
After each of the first ``--probes`` rounds a fresh interpreter times the
set-up (``setup_probe.py``), so set-up samples spread over the run. With
``--trace 1`` odd rounds run traced and even rounds untraced, so the same
process gives per-layer metrics and the tracing overhead.

    python3 perfbench/loop.py INPUTS_JSON --seconds S --trace 0|1 \
        --probes K [--trace-file PATH] [--reference PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from oracle import Oracle
from tracer import Tracer, module_self_times, raised, round_metrics
from workloads import Inputs, subcommand

#: timed rounds run even past the deadline, so a run always has samples
#: and a traced run has at least two traced and two untraced rounds
MIN_TIMED_ROUNDS = 4
PROBE_TIMEOUT_S = 60


def blas_info() -> dict:
    """OpenBLAS build and thread count of the loaded numpy."""
    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_job(cli, inputs: Inputs, name: str, out: Path) -> tuple[float, list[str]]:
    """Run job ``name`` in-process into ``out``. Returns its wall time and
    the problems of the run itself: a non-zero exit code or an exception,
    either of which counts as a failed job, not as a failed benchmark."""
    argv = [subcommand(name), "--config", inputs.configs[name], "--out", str(out)]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as err:
        return time.perf_counter() - start, [f"raised {type(err).__name__}: {err}"]
    wall = time.perf_counter() - start
    return wall, [f"exit code {code}"] if code != 0 else []


def probe_setup(inputs: Inputs) -> dict:
    """Set-up times of one fresh interpreter (see ``setup_probe.py``)."""
    first = inputs.jobs[0]
    stage = "table" if subcommand(first) == "detect" else "pipeline"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         inputs.configs[first], stage],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run(inputs: Inputs, seconds: float, trace: bool, probes: int,
        reference: dict | None, trace_file: Path | None) -> dict:
    from surveysense import cli

    schema = Path(cli.__file__).parent / "schemas" / "report.schema.json"
    oracle = Oracle(inputs, schema, reference)
    tracer = Tracer() if trace else None
    jobs_dir = inputs.root / "jobs"
    jobs_dir.mkdir(exist_ok=True)
    records, layers, setups = [], [], []
    origin = time.perf_counter()
    deadline = origin + seconds
    round_no = 0
    while (round_no <= MIN_TIMED_ROUNDS or len(setups) < probes
           or time.perf_counter() < deadline):
        traced = trace and round_no % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            first_design = len(tracer.designs)
            tracer.install()
        for name in inputs.jobs:
            out = Path(tempfile.mkdtemp(dir=jobs_dir))
            gc.collect()  # each job starts from a clean heap, as a fresh CLI would
            if traced:
                tracer.begin_job(len(records), subcommand(name))
            wall, problems = run_job(cli, inputs, name, out)
            if traced:
                tracer.end_job().counts["bytes_written"] = _bytes_under(out)
            problems = problems or oracle.check(name, out)
            shutil.rmtree(out)
            records.append({
                "job": name, "round": round_no, "traced": traced,
                "wall_s": wall, "problems": problems,
            })
        if traced:
            tracer.uninstall()
            spans = tracer.spans[first_span:]
            metrics = round_metrics(spans, tracer.designs[first_design:])
            metrics["modules_self_s"] = module_self_times(spans)
            metrics["raised"] = raised(spans)
            layers.append(metrics)
        if len(setups) < probes:
            setups.append(probe_setup(inputs))
        round_no += 1
    if tracer is not None and trace_file is not None:
        tracer.write_jsonl(trace_file, origin)
    return {
        "jobs": records,
        "layers": layers,
        "setups": setups,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            **blas_info(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--reference", type=Path)
    args = parser.parse_args(argv)
    inputs = Inputs.load(args.inputs)
    reference = None
    if args.reference is not None:
        reference = json.loads(args.reference.read_text()).get(inputs.workload)
    result = run(inputs, args.seconds, bool(args.trace), args.probes, reference, args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
