"""Run every workload over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 101-110 --out perfbench/out/spread.json

Every workload in BENCHMARK.json runs untraced for its ``run_seconds``, once
per seed. The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median. Each run is
its own ``run.py`` process; the runs go one after the other.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--out", help="write the values and spreads as JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])

    report, ok = {}, True
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not last.get("correct"):
                print(f"{name} seed {seed}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                ok = False
                continue
            for key, m in last["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        report[name] = {}
        for key, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(key)
            report[name][key] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "bound": bound, "values": v}
            flag = "" if bound is None or spread < bound / 3 else "  (above a third of its bound)"
            print(f"{name:15s} {key:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:6.3f}{flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"seeds": args.seeds, "seconds": seconds, "workloads": report}, f,
                      indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
