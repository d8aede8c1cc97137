"""Self-tests of the benchmark: seeded generators, tracer patching, counts.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import generators  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(generators.GENERATORS))
def test_same_seed_gives_identical_texts(name):
    make = generators.GENERATORS[name]
    assert make(7) == make(7)
    assert [i.texts for i in make(7)] != [i.texts for i in make(8)]


def test_ladder_straddles_the_rank_table_limit():
    from matroid_forge.matroid import RANK_TABLE_LIMIT

    sizes = generators.LADDER_SIZES
    assert min(sizes) <= RANK_TABLE_LIMIT < max(sizes)


@pytest.mark.parametrize("name", sorted(generators.GENERATORS))
def test_seeds_change_coordinates_not_the_combinatorial_type(name):
    make = generators.GENERATORS[name]
    assert [i.facts for i in make(1)] == [i.facts for i in make(2)]


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # arrangements is run by hand only (see README.md)
    assert {w["name"] for w in spec["workloads"]} == set(
        workloads.WORKLOADS) - {"arrangements"}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracer.LAYER_METRICS)
    stage = (1.0, 0.005, 0.005)
    e2e = run._end_to_end([([[stage], [stage, stage]], 0)], [stage], 0.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]


def _stages(*seconds, speed=probe.REFERENCE_S):
    return [(t, speed, speed) for t in seconds]


def test_fastest_sums_each_stage_best_time():
    runs = [([_stages(1.0, 3.0), _stages(2.0)], 0),
            ([_stages(2.0, 1.0), _stages(1.5)], 0)]
    assert run._fastest(runs) == [2.0, 1.5]
    # an instance that raised in one pass has fewer stages there
    assert run._fastest([([_stages(1.0, 3.0)], 1),
                         ([_stages(2.5)], 0)]) == [2.5]


def test_reference_speed_scales_by_the_probes_around_each_stage():
    slow = probe.REFERENCE_S * 2
    runs = [([_stages(2.0, 4.0, speed=slow)], 0),
            ([_stages(1.0, 2.0)], 0),
            ([[(1.5, slow, probe.REFERENCE_S), (2.0, slow, slow)]], 0)]
    # stage medians over the passes: of 1.0, 1.0, 1.0 and of 2.0, 2.0, 1.0
    assert run._at_reference_speed(runs) == [pytest.approx(3.0)]


def test_probe_times_a_fixed_task():
    assert 0 < probe.probe() < 1
    assert probe.adjusted(2.0, probe.REFERENCE_S, 3 * probe.REFERENCE_S) \
        == pytest.approx(1.0)


def test_set_up_samples_leave_the_running_program_in_place():
    workload, _ = run._timed_set_up("arrangements", 0, keep=True)
    from matroid_forge import linalg

    _, (elapsed, before, after) = run._timed_set_up("arrangements", 0)
    assert elapsed > 0 and before > 0 and after > 0
    assert sys.modules["matroid_forge.linalg"] is linalg
    assert sys.modules["workloads"].Arrangements is type(workload)


def test_tracer_rebinds_every_namespace_and_restores():
    run._set_up("arrangements", 0)
    from matroid_forge import matroid, minors, properties, reproduce

    original = matroid.contract
    trace = tracer.Tracer()
    trace.install()
    try:
        assert minors.contract is matroid.contract is reproduce.contract
        assert matroid.contract.__wrapped__ is original
        assert properties.formalization_quotient_failures.__wrapped__
    finally:
        trace.uninstall()
    assert minors.contract is original is matroid.contract


def test_traced_counts_repeat_and_answers_check():
    workload = run._set_up("arrangements", 0)
    workload.instances = workload.instances[:1]
    units = dict(tracer.LAYER_METRICS)
    trace = tracer.Tracer()
    trace.install()
    counts = []
    try:
        for _ in range(2):
            calls = trace.begin_pass()
            times, outputs = run._time_pass(workload)
            spans, delta = trace.end_pass(calls)
            metrics = tracer.layer_metrics(spans, delta)
            counts.append({k: v for k, v in metrics.items()
                           if units[k] != "s"})
            whole = tracer.layer_metrics(*tracer.slice_pass(
                spans, (0, (0, 0, 0)), (len(spans), delta)))
            assert whole == metrics
            assert run._check_pass(workload, outputs, []) == 0
    finally:
        trace.uninstall()
    assert counts[0] == counts[1]
    assert counts[0]["linalg.rref_calls"] > 0


def test_missing_program_exits_nonzero(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "ladder", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
