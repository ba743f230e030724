"""Benchmark for sessrec: training, evaluation and serving, one workload per process.

    python3 perfbench/run.py --workload train-37k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root. sessrec is imported from ``src/`` of the tree
this file sits in; the run fails if that tree has no sessrec. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the per-layer
metrics with ``--trace 1``). Every run also writes a results file, with the
environment, under ``perfbench/out/``. With ``--workload all`` each workload
runs untraced and then traced, each in its own process, and the tracing
overhead is reported per workload.

The exit code is 0 only when every output check passed.
"""

import os

# Pinned before NumPy loads; one thread is at or below every core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_TIMEOUT_S = 170
# Phases of fixed work; set-up and fits repeat for a minimum time instead.
OVERHEAD_PHASES = ("train", "modelio", "serve")


def import_sessrec():
    """Import sessrec from this tree's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sessrec", "__init__.py")):
        raise SystemExit(f"error: no sessrec sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import sessrec

    if not os.path.abspath(sessrec.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: sessrec imported from {sessrec.__file__}, not {src}")
    return sessrec


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 -- the field is informational
        blas = "unknown"
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "seed": seed,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import pipeline
    import sessrec

    w = pipeline.WORKLOADS[name]
    tag = f"{name}-s{seed}-t{int(trace)}"
    workdir = os.path.join(OUT, f"tmp-{tag}-{os.getpid()}")
    t0 = time.perf_counter()
    try:
        result = pipeline.run_workload(w, seed, seconds, trace, workdir)
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(OUT, f"{tag}.spans.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result["per_layer"] if trace else result["end_to_end"]
    correct = result["failed"] == 0 and not result["problems"]
    record = {
        "workload": name, "seconds": seconds, "trace": trace,
        "wall_s": time.perf_counter() - t0, "sessrec": sessrec.__version__,
        "environment": environment(seed), "correct": correct,
        "error_rate": result["failed"] / result["attempted"], **result,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=list)

    shown = dict(metrics) if trace else {**metrics, **result["quality"]}
    for key, (value, unit) in shown.items():
        print(f"{name}\t{key}\t{value:.6g}\t{unit}")
    print(f"{name}\terror_rate\t{record['error_rate']:.6g}\tfailed/attempted"
          f"\t({result['failed']}/{result['attempted']})")
    print(f"{name}\trecommend_requests\t{result['counts']['recommend_requests']}\tcount")
    for problem in result["problems"]:
        print(f"{name}\tCHECK FAILED\t{problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, one process each; overhead per workload."""
    import pipeline

    summary, ok = {}, True
    for name in pipeline.WORKLOADS:
        phase_s = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S,
            )
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-4000:])
                ok = False
                break
            with open(os.path.join(OUT, f"{name}-s{seed}-t{trace}.json"), encoding="utf-8") as f:
                times = json.load(f)["phase_s"]
            phase_s[trace] = sum(times[p] for p in OVERHEAD_PHASES)
        if len(phase_s) < 2:
            continue
        overhead = phase_s[1] / phase_s[0] - 1.0
        print(f"{name}\ttrace_overhead\t{100 * overhead:.1f}\t% of untraced time in "
              f"{'+'.join(OVERHEAD_PHASES)} ({phase_s[0]:.2f} s untraced, "
              f"{phase_s[1]:.2f} s traced)")
        summary[name] = {"untraced_s": phase_s[0], "traced_s": phase_s[1],
                         "overhead": overhead}
    with open(os.path.join(OUT, f"all-s{seed}.json"), "w", encoding="utf-8") as f:
        json.dump({"seed": seed, "seconds": seconds, "trace_overhead": summary}, f, indent=1)
    print(json.dumps({"correct": ok, "trace_overhead": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="train-37k, train-10k-dsum, serve-10k, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT, exist_ok=True)
    import_sessrec()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(pipeline.WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
