"""Steadiness check: run sets of benchmark runs on one commit and print each
end-to-end metric's spread against its bound.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads cosim

Each run is one fresh process of the command in BENCHMARK.json, with its
own seed, at ``run_seconds``.  For every workload and metric the tool
prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, the interquartile distance as a share of the median, against the
metric's bound and a third of it.  With two or more sets it also prints
how much worse each set's median is than the first set's.  Export digests
must be identical across all runs of a workload.  Exits 1 when a spread
or a median shift exceeds its bound, when a run fails its output checks,
or when digests differ.  Set ``s`` uses seeds ``1 + 1000*s`` onwards.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(cmd: list, workload: str, seed: int, seconds: int) -> tuple:
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-full-seed{seed}-trace0.json").read_text())
    return result, record["digests"]


def spread(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    delta = (later - first) if better == "lower" else (first - later)
    return delta / first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    t_start = time.monotonic()
    for w in workloads:
        sets = []
        digests: dict = {}
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = 1 + 1000 * s + i
                result, dig = one_run(bench["command"], w, seed, bench["run_seconds"])
                if not result["correct"]:
                    print(f"{w} seed {seed}: output checks failed ({result['failed']} of "
                          f"{result['attempted']})")
                    ok = False
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                for fname, ds in dig.items():
                    digests.setdefault(fname, set()).update(ds)
            sets.append(values)
        print(f"== {w}: {args.sets} set(s) of {args.runs} runs")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            for s, values in enumerate(sets):
                med, q1, q3, sp = spread(values[name])
                if sp > bound:
                    verdict = "OVER BOUND"
                    ok = False
                elif sp >= bound / 3:
                    verdict = "over bound/3"
                else:
                    verdict = "ok"
                line = (f"  {name:12s} set {s}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                        f"spread {sp:.4f} bound {bound} {verdict}")
                if s > 0:
                    shift = worse_by(statistics.median(sets[0][name]), med, m["better"])
                    line += f"; worse than set 0 by {shift:+.4f}"
                    if shift > bound:
                        line += " OVER BOUND"
                        ok = False
                print(line)
        for fname, ds in sorted(digests.items()):
            state = "identical" if len(ds) == 1 else f"DIFFER ({len(ds)} distinct)"
            print(f"  digest {fname}: {state}")
            ok = ok and len(ds) == 1
    print(f"elapsed {time.monotonic() - t_start:.0f} s; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
