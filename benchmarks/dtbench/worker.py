"""The measured process: runs one workload's CLI command call after call.

Started by ``run.py`` in a fresh interpreter, so its peak RSS is the program's
alone; input generation and the correctness checks happen elsewhere. Each
operation is one in-process ``dtgen.cli.main`` call, the path a developer or a
CI job takes through the CLI. Calls alternate between two output files so the
checks can compare two generations byte for byte.
"""

import argparse
import gc
import json
import os
import resource
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter


def command(workload: str, inputs: Path, out: Path) -> list[str]:
    if workload == "gap-replay":
        return [
            "gap",
            "--recorded", str(inputs / "trace.csv"),
            "--controls", str(inputs / "controls.csv"),
            "--config", str(inputs / "config.json"),
            "--vehicle", "ego",
            "--out", str(out),
        ]
    return [
        "generate",
        "--config", str(inputs / "config.json"),
        "--osm", str(inputs / "map.osm"),
        "--out", str(out),
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--run", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from dtgen import cli

    from .tracing import Tracer, balanced_median

    suffix = ".json" if args.workload == "gap-replay" else ".sdf"
    outputs = [args.run / f"out0{suffix}", args.run / f"out1{suffix}"]
    tracer = Tracer() if args.trace else None
    untraced: list[tuple[int, float]] = []
    codes: list[int] = []
    cpus = sorted(os.sched_getaffinity(0))

    def call(traced: bool, cpu: int, memory: bool = False) -> None:
        argv = command(args.workload, args.inputs, outputs[len(codes) % 2])
        gc.collect()
        if traced:
            with tracer.installed():
                tracer.begin_call(cpu, memory)
                with tracer.span("cli.main"):
                    code = cli.main(argv)
        else:
            start = perf_counter()
            code = cli.main(argv)
            untraced.append((cpu, perf_counter() - start))
        codes.append(code)

    # Whole rounds only: on each CPU in turn, pinned to it, an untraced call
    # plus a traced one in traced runs. The CPUs of a shared machine can run
    # at unequal speeds; every run weighs them the same. At least two calls,
    # so every run has two outputs to compare.
    start = perf_counter()
    while len(codes) < 2 or perf_counter() - start < args.seconds:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            call(traced=False, cpu=cpu)
            if tracer is not None:
                call(traced=True, cpu=cpu)
    os.sched_setaffinity(0, cpus)

    result = {
        "codes": codes,
        "untraced_s": untraced,
        "command_s": balanced_median(untraced),
        "outputs": [str(p) for p in outputs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "dtgen_file": sys.modules["dtgen"].__file__,
    }
    if tracer is not None:
        if args.workload != "gap-replay":  # the peaks are of generation stages
            tracemalloc.start()
            call(traced=True, cpu=cpus[0], memory=True)
            tracemalloc.stop()
        tracer.write(args.run / "spans.json")
        result["layers"] = tracer.layer_metrics(untraced)
    (args.run / "worker.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
