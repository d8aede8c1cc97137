"""Benchmark driver for matroid-forge: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 60 --trace 0

The program is imported from ``src/`` and runs in this process on one
thread.  Set-up (a fresh import of the program plus input generation) is
timed before the first pass and again, in a throwaway copy, after each
pass, and reported as a median.  Passes over the workload's instances
run until the time is spent; each instance's answer is checked after its
pass, outside the timed region.  Every timed stretch is bracketed by
host-speed probes and reported at reference speed (see ``probe.py``).
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced and the second half traced, and the line carries the per-layer
metrics (see ``tracer.py``).  Progress and failures go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 7


def _fresh_import(name: str):
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    return importlib.import_module(name)


def _set_up(workload: str, seed: int):
    """Import the program and build the workload's inputs from scratch."""
    _fresh_import("matroid_forge")
    for module in ("cli", "reproduce"):
        importlib.import_module(f"matroid_forge.{module}")
    minors = importlib.import_module("matroid_forge.minors")
    # the seven-point targets are built once per process, as in the CLI
    minors.fano_matroid()
    minors.non_fano_matroid()
    _fresh_import("generators")
    workloads = _fresh_import("workloads")
    return workloads.WORKLOADS[workload](seed, OUT / "work")


def _timed_set_up(workload: str, seed: int, keep: bool = False):
    """Time one set-up between two probes; returns the workload and the timing.

    The timing is ``(seconds, probe before, probe after)``.  Unless
    ``keep`` is set, the modules in use before are put back, so that the
    passes keep running on the same, warm, program.
    """
    saved = {k: v for k, v in sys.modules.items() if _set_up_module(k)}
    before = probe.probe()
    start = perf_counter()
    built = _set_up(workload, seed)
    elapsed = perf_counter() - start
    timing = (elapsed, before, probe.probe())
    if not keep:
        for key in [k for k in sys.modules if _set_up_module(k)]:
            del sys.modules[key]
        sys.modules.update(saved)
    return built, timing


def _set_up_module(name: str) -> bool:
    return name.split(".")[0] in ("matroid_forge", "generators", "workloads")


def _time_pass(workload, mark=None, probed=True) -> tuple[list[list], list]:
    """Run every instance once; returns stage timings and (output, error) pairs.

    Each instance's entry lists its stages, split where its ``run`` calls
    ``lap``, as ``(seconds, probe before, probe after)``; the host-speed
    probes run between stages, untimed, or read None when ``probed`` is
    false.  ``mark``, when given, is called before each instance and after
    the last.
    """
    gc.collect()
    times, outputs = [], []
    for instance in workload.instances:
        if mark:
            mark()
        stages: list[tuple] = []
        last: list = []  # (start, probe before) of the running stage

        def lap():
            end = perf_counter()
            speed = probe.probe() if probed else None
            if last:
                start, before = last.pop()
                stages.append((end - start, before, speed))
            last.append((perf_counter(), speed))

        lap()
        try:
            outputs.append((workload.run(instance, lap), None))
        except Exception as exc:  # an instance that raises has failed
            outputs.append((None, exc))
        lap()
        times.append(stages)
    if mark:
        mark()
    return times, outputs


def _check_pass(workload, outputs, failures: list[str]) -> int:
    """Check each answer, untimed; returns the number of failed instances."""
    failed = 0
    for instance, (output, exc) in zip(workload.instances, outputs):
        label = instance.label
        if exc is not None:
            found = [f"{label}: raised "
                     + "".join(traceback.format_exception_only(exc)).strip()]
        else:
            try:
                found = workload.check(instance, output)
            except Exception as check_exc:
                found = [f"{label}: check raised {check_exc!r}"]
        failed += bool(found)
        failures += found
    return failed


def _run_pass(workload, failures: list[str]) -> tuple[list[list], int]:
    times, outputs = _time_pass(workload)
    return times, _check_pass(workload, outputs, failures)


def _passes(one_pass, budget_s: float) -> list[tuple[list[list], int]]:
    """Run passes while the next one, judged by the last, fits the budget."""
    runs = []
    start = perf_counter()
    last = 0.0
    while not runs or perf_counter() - start + last <= budget_s:
        begin = perf_counter()
        runs.append(one_pass())
        last = perf_counter() - begin
    return runs


def _code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")) + sorted(HERE.glob("*.py")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _counts_drift(workload: str, seed: int, counts: dict) -> str | None:
    """Compare counts with the snapshot left by an earlier run of this code."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"counts-{workload}-{seed}.json"
    code = _code_digest()
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["code"] == code and previous["counts"] != counts:
            changed = sorted(k for k in counts
                             if previous["counts"].get(k) != counts[k])
            return f"counts drifted from the last run: {', '.join(changed)}"
    path.write_text(json.dumps({"code": code, "counts": counts},
                               indent=1, sort_keys=True))
    return None


def _write_trace(workload: str, seed: int, spans: list[list],
                 instances: dict) -> None:
    """Spans of the first traced pass, and per-instance layer metrics.

    Each instance lists the index range of its spans and the layer metrics
    of that range on its own.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    origin = spans[0][2] if spans else 0.0
    rows = [[name, parent, round(start - origin, 7), round(end - origin, 7)]
            for name, parent, start, end, *_ in spans]
    (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "instances": instances,
         "fields": ["name", "parent", "start_s", "end_s"], "spans": rows}))


def _per_instance(runs, estimate) -> list[float]:
    """Each instance's time: the sum over its stages of ``estimate``.

    ``estimate`` maps one stage's timings over all passes to a time.  An
    instance whose stages differ in number between passes (it raised in
    one) is estimated as a single stage.
    """
    out = []
    for passes in zip(*(times for times, _ in runs)):
        if len({len(stages) for stages in passes}) > 1:
            passes = [[(sum(t for t, _, _ in stages), stages[0][1],
                        stages[-1][2])] for stages in passes]
        out.append(sum(estimate(column) for column in zip(*passes)))
    return out


def _fastest(runs) -> list[float]:
    """Each instance's raw time: its stages' fastest times, summed."""
    return _per_instance(runs, lambda timings: min(t for t, _, _ in timings))


def _at_reference_speed(runs) -> list[float]:
    """Each instance's time at reference host speed.

    Each stage's time is scaled by the probes taken around it (see
    ``probe.py``), and the median over the passes is taken.
    """
    return _per_instance(runs, lambda timings: statistics.median(
        probe.adjusted(*timing) for timing in timings))


def _rss_mb() -> float:
    """The process's resident memory now."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * resource.getpagesize() / 2**20


def _end_to_end(runs, setup_timings, probe_mb: float) -> dict:
    """The end-to-end metrics; ``probe_mb`` is the probe's resident memory."""
    best = _at_reference_speed(runs)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (sum(best), "s"),
        "slowest_instance_s": (max(best), "s"),
        "peak_rss_mb": (peak_mb - probe_mb, "MB"),
        "setup_s": (statistics.median(probe.adjusted(*timing)
                                      for timing in setup_timings), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bundled", "ladder", "arrangements"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matroid_forge" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    before_probe_mb = _rss_mb()
    probe.load()
    probe_mb = _rss_mb() - before_probe_mb
    workload, setup_first = _timed_set_up(args.workload, args.seed, keep=True)
    setup_timings = [setup_first]

    def sample_set_up():
        setup_timings.append(_timed_set_up(args.workload, args.seed)[1])

    failures: list[str] = []
    if args.trace:
        runs, metrics = _traced_run(workload, args, failures)
    else:
        def one_pass():
            result = _run_pass(workload, failures)
            sample_set_up()
            return result

        # the first pass warms the heap and the program's caches; it is
        # checked but not timed
        start = perf_counter()
        runs = [one_pass()]
        runs += _passes(one_pass, args.seconds - (perf_counter() - start))
        while len(setup_timings) < SETUP_REPEATS:
            sample_set_up()
        metrics = _end_to_end(runs[1:], setup_timings, probe_mb)
    attempted = sum(len(times) for times, _ in runs)
    failed = sum(f for _, f in runs)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(runs)} passes, "
          f"{attempted} instances", file=sys.stderr)
    print("raw instance times per pass: " + json.dumps(
        [[round(sum(t for t, _, _ in stages), 4) for stages in times]
         for times, _ in runs]), file=sys.stderr)
    print("raw fastest: " + json.dumps([round(t, 4) for t in _fastest(runs)]),
          file=sys.stderr)
    speeds = [p for times, _ in runs for stages in times
              for _, p, _ in stages if p is not None]
    if speeds:
        print(f"probe: median {statistics.median(speeds):.5f} s, "
              f"reference {probe.REFERENCE_S} s", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _traced_run(workload, args, failures: list[str]):
    """Untraced passes, then traced ones; per-layer metrics of the latter."""
    import tracer

    untraced = _passes(lambda: _run_pass(workload, failures), args.seconds / 2)
    trace = tracer.Tracer()
    per_pass: list[dict] = []
    first: dict = {}

    def traced_pass():
        marks = []
        calls = trace.begin_pass()
        times, outputs = _time_pass(
            workload, probed=False, mark=lambda: marks.append((len(trace.spans),
                                                 tuple(trace.calls))))
        spans, delta = trace.end_pass(calls)
        per_pass.append(tracer.layer_metrics(spans, delta))
        if not first:
            first["spans"] = spans
            first["instances"] = {
                instance.label: {
                    "spans": [start[0], stop[0]],
                    "metrics": tracer.layer_metrics(
                        *tracer.slice_pass(spans, start, stop))}
                for instance, start, stop in zip(workload.instances, marks,
                                                 marks[1:])}
        return times, _check_pass(workload, outputs, failures)

    trace.install()
    try:
        traced = _passes(traced_pass, args.seconds / 2)
    finally:
        trace.uninstall()

    metrics = {}
    for name, unit in tracer.LAYER_METRICS:
        if name in per_pass[0]:
            values = [m[name] for m in per_pass]
            metrics[name] = (min(values) if unit == "s" else values[0], unit)
    traced_wall = sum(_fastest(traced))
    metrics["trace.pass_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - sum(_fastest(untraced)), "s")

    counts = {k: v for k, (v, unit) in metrics.items() if unit != "s"}
    if any(m[k] != v for m in per_pass for k, v in counts.items()):
        failures.append("counts differ between traced passes of one run")
    drift = _counts_drift(args.workload, args.seed, counts)
    if drift:
        failures.append(drift)
    _write_trace(args.workload, args.seed, first["spans"], first["instances"])
    return untraced + traced, metrics


if __name__ == "__main__":
    sys.exit(main())
