"""hybridpi benchmark: one workload, one fresh process.

    python3 perfbench/run.py --workload network --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; hybridpi is imported from
``src/`` (nothing is installed).  The process imports the package once
with its dependencies (numpy, scipy).  A set-up imports hybridpi's own
modules afresh, with the dependencies still loaded, and builds the
workload's inputs.  The process repeats the timed phase until
``--seconds`` would be exceeded, with one set-up after each of the first
repetitions until ``SETUPS`` have run, and garbage collected before
each.  Every repetition's outputs are checked against known answers.
The last line of standard output is the JSON result; the full record
(all samples, raw and scaled, export digests, problems, spans) goes to
``.perfbench_out/`` in the checkout.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
first traced one, plus the tracing overhead.

Times are scaled to a fixed machine speed.  The machine is shared: its
speed swings by a third within seconds and drifts over minutes, and the
process's CPU time swings with its wall time, so neither medians nor the
fastest sample of a run hold still.  A fixed pure-Python reference loop
runs right before and right after every timed sample; the sample's wall
time is multiplied by ``REF_S`` over the mean of those two reference
times.  ``setup_s`` and ``wall_s`` are medians of the scaled samples.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups per run, the first before the timed phase and one after each
# repetition from then on.  ``peak_rss_mb`` is read once the last of them
# has run: each fresh import leaves about 0.5 MB behind, and a ``cosim``
# repetition as much again, so the process's high-water mark at the end
# would grow with the number of repetitions that fit in the budget.
SETUPS = 24
# The reference loop's fastest wall time on the 2-core x86-64 machine the
# baseline in README.md was measured on.  It only sets the scale of the
# reported times; the loop and this constant stay fixed, so that figures
# from different commits compare.
REF_S = 0.0075


def metric_units(section: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no hybridpi sources)."""


def import_hybridpi() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "hybridpi" / "__init__.py").is_file():
        raise SetupError(f"no hybridpi sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import hybridpi
    from hybridpi import certificates, equivalence, kernel, parser, simulator, zoo

    if Path(hybridpi.__file__).resolve().parent != src / "hybridpi":
        raise SetupError(f"hybridpi imported from {hybridpi.__file__}, not from {src}")
    return SimpleNamespace(certificates=certificates, equivalence=equivalence, kernel=kernel,
                           parser=parser, simulator=simulator, zoo=zoo)


def _hybridpi_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "hybridpi" or k.startswith("hybridpi.")}


def warm_import_s() -> float:
    """Seconds to import hybridpi's own modules again while its
    dependencies stay loaded.  The modules loaded before are put back
    afterwards, so callers keep the objects they hold."""
    loaded = _hybridpi_modules()
    for name in loaded:
        del sys.modules[name]
    try:
        t = time.perf_counter()
        import_hybridpi()
        return time.perf_counter() - t
    finally:
        for name in _hybridpi_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


def reference_s() -> float:
    """Wall seconds of one pass of the fixed reference loop."""
    t = time.perf_counter()
    d: dict = {}
    for i in range(40_000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def compiled_steppers(hp) -> int:
    """Steppers in the kernel's compile cache (0 if the cache is gone)."""
    return len(getattr(hp.kernel, "_compiled_cache", ()))


def quartiles(xs: list) -> tuple:
    """(q1, median, q3) of the samples."""
    if len(xs) < 2:
        return (xs[0],) * 3 if xs else (0.0,) * 3
    return tuple(statistics.quantiles(xs, n=4))


def _digest_report(name: str, size: str, digests: dict) -> list:
    ref_path = HERE / "digests.json"
    ref = json.loads(ref_path.read_text()).get(name, {}).get(size, {})
    lines = []
    for fname, seen in sorted(digests.items()):
        if len(seen) > 1:
            lines.append(f"digest {fname}: differs between repetitions")
            continue
        (d,) = seen
        if fname not in ref:
            note = "no reference"
        elif ref[fname] == d:
            note = "matches reference"
        else:
            note = f"CHANGED, reference {ref[fname]}"
        lines.append(f"digest {fname}: sha256 {d} {note}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        expect: dict | None = None, out_dir: Path | None = None) -> dict:
    """Runs one workload in this process and returns the result object; the
    record of the run is written to ``out_dir`` when one is given."""
    t0 = time.perf_counter()
    hp = import_hybridpi()
    cold_import_s = time.perf_counter() - t0
    import bench_trace
    import bench_workloads

    wl = bench_workloads.WORKLOADS[workload](size, expect)
    tracer = bench_trace.Tracer() if trace else None
    compiled0 = compiled_steppers(hp)

    imports, builds, setups = [], [], []  # raw import and build s; scaled set-up s

    def set_up(ctx=contextlib.nullcontext()):
        ref = reference_s()
        imports.append(warm_import_s())
        t = time.perf_counter()
        with ctx:
            built = wl.build(hp, seed)
        builds.append(time.perf_counter() - t)
        ref = (ref + reference_s()) / 2
        setups.append((imports[-1] + builds[-1]) * REF_S / ref)
        return built

    def set_up_outside_budget() -> float:
        t = time.perf_counter()
        gc.collect()
        set_up()
        return time.perf_counter() - t

    inputs = set_up(tracer.traced(f"{workload}/setup") if tracer else contextlib.nullcontext())

    # traced? -> repetition seconds, raw and scaled
    walls: dict = {False: [], True: []}
    scaled: dict = {False: [], True: []}
    attempted = failed = 0
    problems: list = []
    digests: dict = {}
    peak_rss_mb = None
    start = time.perf_counter()
    rep = 0
    while True:
        traced = trace and rep % 2 == 1
        gc.collect()
        ctx = tracer.traced(f"{workload}/{rep}") if traced else contextlib.nullcontext()
        ref = reference_s()
        t = time.perf_counter()
        try:
            with ctx:
                out = wl.phase(hp, inputs)
        except Exception:
            out = None
            problems.append(f"rep {rep}: {traceback.format_exc()}")
            traceback.print_exc()
        dur = time.perf_counter() - t
        ref = (ref + reference_s()) / 2
        walls[traced].append(dur)
        scaled[traced].append(dur * REF_S / ref)
        if out is None:
            # the repetition's outputs all count as failed; repeating would
            # fail the same way
            attempted += wl.items
            failed += wl.items
            break
        for item, errs in wl.check(hp, inputs, out):
            attempted += 1
            failed += bool(errs)
            problems.extend(f"rep {rep}: {item}: {e}" for e in errs)
        for fname, text in wl.exports(out).items():
            digests.setdefault(fname, set()).add(hashlib.sha256(text.encode()).hexdigest())
        del out
        if len(setups) < SETUPS:
            start += set_up_outside_budget()  # set-up time is not part of the budget
            if len(setups) == SETUPS:
                peak_rss_mb = max_rss_mb()
        rep += 1
        if trace and rep < 2:
            continue  # a traced run needs one untraced and one traced repetition
        if time.perf_counter() - start + dur > seconds:
            break
    while len(setups) < SETUPS:
        set_up_outside_budget()
    if peak_rss_mb is None:
        peak_rss_mb = max_rss_mb()

    untraced = scaled[False]
    q1, med, q3 = quartiles(untraced)
    sq1, smed, sq3 = quartiles(setups)
    rq1, rmed, rq3 = quartiles(walls[False])
    record = {
        "workload": workload, "seed": seed, "size": size, "trace": int(trace),
        "seconds": seconds, "cold_import_s": cold_import_s, "ref_s": REF_S,
        "setup_s": setups, "setup_imports_raw_s": imports, "setup_builds_raw_s": builds,
        "wall_s": untraced, "wall_raw_s": walls[False],
        "traced_wall_s": scaled[True], "traced_wall_raw_s": walls[True],
        "problems": problems, "digests": {k: sorted(v) for k, v in digests.items()},
    }
    lines = [f"{workload} seed={seed} size={size} reps={len(untraced) + len(scaled[True])} "
             f"wall_s median={med:.4f} q1={q1:.4f} q3={q3:.4f} n={len(untraced)} "
             f"(raw median={rmed:.4f} q1={rq1:.4f} q3={rq3:.4f})",
             f"setup_s median={smed:.4f} q1={sq1:.4f} q3={sq3:.4f} n={len(setups)} "
             f"(raw median import {statistics.median(imports):.4f}, "
             f"build {statistics.median(builds):.4f}); cold import {cold_import_s:.4f}"]
    lines += _digest_report(workload, size, digests)
    lines += [f"FAILED {p.strip()}" for p in problems]

    if trace:
        overhead = statistics.median(scaled[True]) / med - 1.0 if scaled[True] else 0.0
        compiled = compiled_steppers(hp) - compiled0
        values = bench_trace.per_layer_metrics(tracer, f"{workload}/setup", f"{workload}/1",
                                               compiled, overhead)
        units = metric_units("per_layer")
        record["span_summary"] = tracer.summary(f"{workload}/1")
        for name, row in sorted(record["span_summary"].items()):
            lines.append(f"span {name}: calls={row['calls']} total_s={row['total_s']:.4f} "
                         f"self_s={row['self_s']:.4f}")
            row.pop("info")
    else:
        values = {
            "setup_s": smed,
            "wall_s": med,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = metric_units("end_to_end")
    record["metrics"] = values

    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        stem = f"{workload}-{size}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if tracer is not None:
            tracer.write(out_dir / f"{stem}.spans.jsonl")
    for line in lines:
        print(line)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("network", "cosim", "trajectory", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny", "roadmap"), default="full")
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                     out_dir=ROOT / ".perfbench_out")
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
