"""dtgen benchmark: one workload per call, end to end or traced per layer.

    python3 benchmarks/run.py --workload city-generate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; dtgen is imported from ``src/``.
Inputs are generated from the seed into ``.bench_work/inputs`` once and reused.
The workload runs in a fresh worker process (``dtbench.worker``), its outputs
are checked (``dtbench.checks``), and the last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. See ``benchmarks/README.md``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from dtbench.tracing import balanced_median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("city-generate", "track-generate", "gap-replay")
CPUS = sorted(os.sched_getaffinity(0))

SETUP_REPEATS = 5  # per CPU
IMPORTTIME_REPEATS = 3  # per CPU
PIN = "import os; os.sched_setaffinity(0, {{{cpu}}}); "
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import dtgen; "
    "print(repr(time.perf_counter() - start))"
)
WORKER_TIMEOUT_S = 150


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def _python(args: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=_env(), cwd=ROOT, timeout=timeout, check=True, **kwargs
    )


def make_inputs(workload: str, seed: int) -> Path:
    """Write the seed's inputs once, in their own process; later runs reuse
    them. The manifest is written last, so it marks a complete set."""
    target = WORK / "inputs" / f"{workload}-s{seed}"
    if not (target / "manifest.json").is_file():
        _python(["-m", "dtbench.inputs", workload, str(seed), str(target)], timeout=170)
    return target


def measure_setup() -> float:
    """Wall time to ``import dtgen`` in a fresh interpreter: the balanced
    median over probes pinned to each CPU in turn, as the worker runs."""
    _python(["-c", "import dtgen"], timeout=60)  # compiles the bytecode cache
    samples = []
    for _ in range(SETUP_REPEATS):
        for cpu in CPUS:
            done = _python(["-c", PIN.format(cpu=cpu) + IMPORT_PROBE], timeout=60,
                           capture_output=True, text=True)
            samples.append((cpu, float(done.stdout)))
    return balanced_median(samples)


def measure_import_times() -> dict[str, float]:
    """Cumulative import time of the two modules that pull in the heavy
    dependencies, from ``python -X importtime`` (requests arrives with
    ``dtgen.osm``, numpy with ``dtgen.replay``)."""
    wanted = {"dtgen.osm": "osm.import_s", "dtgen.replay": "replay.import_s"}
    samples: dict[str, list[tuple[int, float]]] = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORTTIME_REPEATS):
        for cpu in CPUS:
            done = _python(["-X", "importtime", "-c", PIN.format(cpu=cpu) + "import dtgen"],
                           timeout=60, capture_output=True, text=True)
            for line in done.stderr.splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() in wanted:
                    samples[wanted[fields[2].strip()]].append((cpu, float(fields[1]) / 1e6))
    return {metric: balanced_median(values) for metric, values in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dtgen" / "__init__.py").is_file():
        print(f"run.py: no dtgen sources under {SRC}; run it from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]

    started = perf_counter()
    inputs = make_inputs(args.workload, args.seed)
    print(f"inputs ready in {perf_counter() - started:.1f} s: {inputs}")
    run_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    if args.trace:
        import_times = measure_import_times()
    else:
        setup_s = measure_setup()

    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        _python(
            ["-m", "dtbench.worker", "--workload", args.workload, "--inputs", str(inputs),
             "--run", str(run_dir), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=WORKER_TIMEOUT_S, stdout=out, stderr=err,
        )
    worker = json.loads((run_dir / "worker.json").read_text(encoding="utf-8"))
    if Path(worker["dtgen_file"]).resolve() != (SRC / "dtgen" / "__init__.py").resolve():
        print(f"run.py: worker imported dtgen from {worker['dtgen_file']}", file=sys.stderr)
        return 2

    from dtbench.checks import CheckFailed, check

    codes = worker["codes"]
    failed = sum(1 for code in codes if code != 0)
    outputs = [Path(p) for p in worker["outputs"]]
    started = perf_counter()
    try:
        summary = check(args.workload, inputs, outputs)
        correct = True
        print(f"checks passed in {perf_counter() - started:.1f} s: {json.dumps(summary)}")
    except (CheckFailed, OSError) as exc:
        correct = False
        print(f"checks FAILED: {exc}")
    output_bytes = outputs[0].stat().st_size if outputs[0].is_file() else 0
    for path in outputs:  # a city world is 38 MB; runs keep only their records
        path.unlink(missing_ok=True)

    if args.trace:
        values = {**worker["layers"], **import_times}
        print(f"spans written to {run_dir / 'spans.json'}")
    else:
        for cpu in CPUS:
            seconds = sorted(s for c, s in worker["untraced_s"] if c == cpu)
            print(f"cpu {cpu}: {len(seconds)} calls, median {statistics.median(seconds):.4f} s, "
                  f"min {seconds[0]:.4f} s, max {seconds[-1]:.4f} s")
        values = {
            "setup_s": setup_s,
            "command_s": worker["command_s"],
            "output_bytes": output_bytes,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"run.py: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": len(codes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
