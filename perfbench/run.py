"""surveysense benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cells-5k|rows-10k|graph-16 \
        --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (numpy only), then runs the
workload's jobs as a closed loop in one worker process for the
``--seconds`` window, checking every artifact with the oracle. Between its
first rounds the worker times the set-up every subcommand pays in fresh
interpreters. The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. The lines before it print each job's median and
quartile times with its sample count, the failure share, the environment
and, when traced, the tracing overhead and span coverage; spans go to
``.perfbench/traces/`` as JSON lines.

Runs from the root of a source checkout and imports the package from its
``src`` directory; without one it exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import COUNT_METRICS, TIME_METRICS
from workloads import JOBS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
SETUP_PROBES = 5
#: the loop may overrun its window by its minimum rounds and probes
WORKER_GRACE_S = 100

END_TO_END = {"analysis_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {"cli.import_s": "s", **TIME_METRICS, **COUNT_METRICS, "trace.overhead_share": "ratio"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    """Jobs pass no thread or output override: drop the program's knobs."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SURVEYSENSE_THREADS", "SURVEYSENSE_OUT")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(args: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, *args], env=_child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{Path(args[0]).name} timed out after {timeout:.0f} s") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{Path(args[0]).name} exited with {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _job_times(jobs: list[dict], name: str, traced: bool = False) -> list[float]:
    """Wall times of ``name`` in the timed rounds: of its successful jobs,
    or of all of them when none succeeded (the result is then incorrect)."""
    timed = [j for j in jobs if j["round"] > 0 and j["job"] == name and j["traced"] == traced]
    return [j["wall_s"] for j in timed if not j["problems"]] or [j["wall_s"] for j in timed]


def measure(workload: str, seed: int, seconds: int, trace: bool,
            sizes: dict | None = None, probes: int = SETUP_PROBES) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, detail lines)."""
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    traces = ROOT / ".perfbench" / "traces"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = generate(workload, seed, work / "inputs", sizes)
        loop_args = [str(HERE / "loop.py"), str(work / "inputs" / "inputs.json"),
                     "--seconds", str(seconds), "--trace", str(int(trace)),
                     "--probes", str(probes)]
        trace_file = traces / f"{workload}-seed{seed}.jsonl"
        if trace:
            traces.mkdir(parents=True, exist_ok=True)
            loop_args += ["--trace-file", str(trace_file)]
        if seed == DEFAULT_SEED:
            loop_args += ["--reference", str(HERE / "reference.json")]
        worker = _child(loop_args, seconds + WORKER_GRACE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, seconds, trace, inputs, worker, trace_file)


def summarize(workload, seed, seconds, trace, inputs, worker, trace_file):
    jobs = worker["jobs"]
    setups = worker["setups"]
    env = worker["env"]
    lines = [
        f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        "shape " + " ".join(f"{k}={v}" for k, v in inputs.shape.items()),
    ]
    failed = [j for j in jobs if j["problems"]]
    for j in failed[:5]:
        lines.append(f"FAILED {j['job']} round {j['round']}: {'; '.join(j['problems'][:3])}")

    medians = {}
    for name in inputs.jobs:
        times = _job_times(jobs, name)
        medians[name] = statistics.median(times)
        lo, hi = _quartiles(times)
        lines.append(
            f"metric {name}_s {medians[name]:.4f} s (median of n={len(times)}, "
            f"quartiles {lo:.4f}-{hi:.4f}, min {min(times):.4f})"
        )
    lines.append(f"metric failed_frac {len(failed) / len(jobs):.4g} ratio "
                 f"(n={len(jobs)} jobs, warm-up round included)")
    setup_s = statistics.median(s["total_s"] for s in setups)
    parts = {k: statistics.median(s[k] for s in setups) for k in ("import_s", "config_s", "build_s")}
    lines.append(
        f"metric setup_s {setup_s:.4f} s (median of n={len(setups)}: "
        + ", ".join(f"{k} {v:.4f}" for k, v in parts.items()) + ")"
    )
    analysis = sum(medians.values())
    lines.append(f"metric analysis_s {analysis:.4f} s (sum of the medians of "
                 + ", ".join(inputs.jobs) + ")")
    correct = not failed

    if not trace:
        lines.append(f"metric peak_rss_mb {worker['rss_mb']:.1f} MiB (n=1, worker process)")
        values = {"analysis_s": analysis, "setup_s": setup_s, "peak_rss_mb": worker["rss_mb"]}
        units = END_TO_END
    else:
        layer_lines, values, exact = _layers(inputs, jobs, worker["layers"], parts["import_s"])
        lines += layer_lines
        lines.append(f"trace file {trace_file.relative_to(ROOT)}")
        correct = correct and exact
        units = PER_LAYER
    result = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }
    return result, lines


def _layers(inputs, jobs, layers, import_s):
    if len(layers) < 2:
        raise BenchError("a traced run needs at least two traced rounds")
    lines = []
    values = {"cli.import_s": import_s}
    for key in TIME_METRICS:
        values[key] = statistics.median(r[key] for r in layers)
    exact = True
    for key in COUNT_METRICS:
        seen = {r[key] for r in layers}
        if len(seen) > 1:
            exact = False
            lines.append(f"COUNT MISMATCH {key}: {sorted(seen)} over {len(layers)} traced rounds")
        values[key] = layers[0][key]
    if exact:
        lines.append(f"exact counts: identical over {len(layers)} traced rounds")
    traced_sum = untraced_sum = 0.0
    for name in inputs.jobs:
        on = statistics.median(_job_times(jobs, name, traced=True))
        off = statistics.median(_job_times(jobs, name))
        traced_sum, untraced_sum = traced_sum + on, untraced_sum + off
        lines.append(f"overhead {name} median traced {on:.4f} s untraced {off:.4f} s "
                     f"({100.0 * (on / off - 1.0):+.1f}%)")
    values["trace.overhead_share"] = traced_sum / untraced_sum - 1.0
    modules = {}
    for r in layers:
        for layer, s in r["modules_self_s"].items():
            modules.setdefault(layer, []).append(s)
    lines.append("self time per round " + " ".join(
        f"{k}={statistics.median(v):.4f}s"
        for k, v in sorted(modules.items(), key=lambda kv: -statistics.median(kv[1]))
    ))
    lines.append("raised per round " + (" ".join(
        f"{k}={v}" for k, v in sorted(layers[0]["raised"].items())) or "none"))
    lines.append(f"span coverage of job wall time (lowest job of a round, median over rounds) "
                 f"{values['trace.coverage']:.4f}")
    return lines, values, exact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="surveysense benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "surveysense" / "__init__.py").is_file():
        print(f"perfbench: no surveysense sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
