"""Tests of the benchmark's own logic: spans, tail choice, checks, verdicts.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
from worker import Outcome  # noqa: E402


# --- self time ---------------------------------------------------------------


def test_self_time_nested_and_adjacent_spans():
    recorded = [
        ["root", 0, 100, -1],
        ["child", 10, 40, 0],
        ["grandchild", 20, 30, 1],
        ["adjacent", 40, 70, 0],
    ]
    own = spans.self_times(recorded)
    assert own == [40, 20, 10, 30]
    assert sum(own) == 100  # self times under a root add up to its duration


def test_self_time_counts_overlapping_children_once():
    recorded = [["root", 0, 100, -1], ["a", 10, 50, 0], ["b", 30, 60, 0]]
    assert spans.self_times(recorded)[0] == 100 - 50


def test_tracer_records_parents_and_restores_patches():
    owner = SimpleNamespace(outer=None, inner=lambda x: x + 1)
    owner.outer = lambda x: owner.inner(x) * 2
    tracer = spans.Tracer()
    original = owner.inner
    tracer.patch(owner, "outer", "layer.outer")
    tracer.patch(owner, "inner", "layer.inner")
    assert owner.outer(1) == 4
    tracer.unpatch()
    assert owner.inner is original
    recorded, _, _ = tracer.take()
    assert [(s[0], s[3]) for s in recorded] == [("layer.outer", -1), ("layer.inner", 0)]
    assert sum(spans.self_times(recorded)) == recorded[0][2] - recorded[0][1]


# --- tail percentile ---------------------------------------------------------


def test_tail_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        summary.tail(list(range(19)))
    assert summary.tail(list(range(20))) == (50.0, 9, 10)
    assert summary.tail(list(range(39)))[0] == 50.0
    assert summary.tail(list(range(40))) == (75.0, 29, 10)
    assert summary.tail(list(range(100)))[0] == 90.0
    assert summary.tail(list(range(1000)))[0] == 99.0


def test_tail_percentile_is_fixed_by_the_guaranteed_sample_count():
    assert summary.tail(list(range(300)), guaranteed=42)[0] == 75.0
    assert summary.tail(list(range(300)), guaranteed=100)[0] == 90.0


def test_tail_does_not_count_ties_as_beyond():
    values = [1.0] * 30 + [2.0] * 9
    with pytest.raises(ValueError):
        summary.tail(values)
    p, value, beyond = summary.tail([1.0] * 30 + [2.0] * 10)
    assert (p, value, beyond) == (75.0, 1.0, 10)


# --- correctness checks ------------------------------------------------------


def _checker(argv, stdout, code=0):
    key = " ".join(argv)
    return oracle.CliChecker({key: {"sha256": oracle.sha256(stdout), "exit": code}})


def test_checker_counts_corrupted_stdout_and_wrong_exit():
    argv = ("validate",)
    good = b"catalog  rows  status\nnikulin  75    complete\n"
    checker = _checker(argv, good)
    assert checker.check(argv, 0, good) == []
    assert checker.check(argv, 0, good.replace(b"75", b"74"))
    assert checker.check(argv, 1, good)
    outcome = Outcome()
    for found in checker.check_pass([(argv, 0, good), (argv, 0, good + b"x")]):
        outcome.record(found)
    assert (outcome.attempted, outcome.failed) == (2, 1)


def test_structure_check_catches_wrong_totals_even_with_matching_golden():
    argv = ("enumerate", "emb", "--format", "csv")
    header = "b2,b3,mode,n,condition,block1,block2,simply_connected,flags\n"
    stdout = (header + "0,67,EMB_A,0,BOTH,fano(3.2),fano(3.2),True,\n").encode()
    found = _checker(argv, stdout).check(argv, 0, stdout)
    assert any("1 rows, expected 8211" in e for e in found)


def test_all_modes_union_failure_fails_the_betti_lists():
    results = []
    golden = {}
    for mode in oracle.UNION_MODES:
        stdout = f"b2  b3\n{mode.__len__()}   35\n".encode()
        results.append((("betti-list", mode), 0, stdout))
        golden[f"betti-list {mode}"] = {"sha256": oracle.sha256(stdout), "exit": 0}
    found = oracle.CliChecker(golden).check_pass(results)
    assert all(any("over all modes" in e for e in f) for f in found)


def _analysis(rank=2, sig=(1, 1), det=-4, diag=(2, 2), l=2, delta=0, u=None, v=None):
    n = len(diag)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    s = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    snf = SimpleNamespace(U=u or identity, S=s, V=v or identity)
    disc = SimpleNamespace(is_2_elementary=True, l=l, delta=delta)
    return (rank, sig, det, snf, disc)


def test_model_check_catches_a_wrong_invariant():
    model = {"r": 2, "a": 2, "delta": 0, "source": "U(2)"}
    assert oracle.model_errors(model, _analysis()) == []
    assert oracle.model_errors(model, _analysis(delta=1))
    assert oracle.model_errors(model, _analysis(sig=(0, 2)))
    assert oracle.model_errors(model, _analysis(l=1))


def test_gram_check_catches_wrong_smith_form_and_signature():
    item = {"gram": [[2, 0], [0, 2]], "transform": [[1, 1], [0, 1]]}
    good = _analysis(sig=(2, 0), det=4)
    assert oracle.gram_errors(item, good, (2, 0)) == []
    assert oracle.gram_errors(item, _analysis(sig=(2, 0), det=4, diag=(1, 4)), (2, 0))
    assert oracle.gram_errors(item, _analysis(sig=(2, 0), det=8), (2, 0))
    assert oracle.gram_errors(item, good, (1, 1))


# --- comparison verdicts -----------------------------------------------------


def test_verdicts_follow_pair_rule_and_bound():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict(parent, [x * 0.8 for x in parent], "lower", 0.1) == "better"
    assert compare.verdict(parent, [x * 1.2 for x in parent], "lower", 0.1) == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1) == "same"
    assert compare.verdict(parent, [x * 0.8 for x in parent[:9]], "lower", 0.1) != "better"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.0, 1.4, 0.6, 1.2, 0.9]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, [x * 1.2 for x in parent], "higher", 0.1) == "better"


def test_reference_factor_uses_the_references_around_each_pass():
    import reference

    assert reference.factors([0.1, 0.1, 0.3], 0.1) == [1.0, 0.5]


def test_compare_refuses_a_series_without_every_workload():
    import json

    spec = json.loads((Path(compare.__file__).parent.parent / "BENCHMARK.json").read_text())
    run = {"metrics": {m["name"]: 1.0 for m in spec["end_to_end"]}, "detail": {}}
    full = {"workloads": {w: {"runs": [run]} for w in ("records", "reports", "lattice")}}
    partial = {"workloads": {"records": {"runs": [run]}}}
    assert all(row[2] == "same" for row in compare.compare(full, full, spec))
    with pytest.raises(ValueError, match="reports"):
        compare.compare(full, partial, spec)


# --- reported metrics ----------------------------------------------------------


def test_report_refuses_a_missing_or_undeclared_metric():
    import run

    declared = [{"name": "a_s", "unit": "s"}, {"name": "b", "unit": "count"}]
    result = {"metrics": {"a_s": 0.5, "b": 0.0}, "attempted": 3, "failed": 0}
    line = run.report(result, declared)
    assert line["metrics"] == {"a_s": {"value": 0.5, "unit": "s"}, "b": {"value": 0.0, "unit": "count"}}
    assert line["correct"]
    with pytest.raises(RuntimeError, match="missing"):
        run.report({**result, "metrics": {"a_s": 0.5}}, declared)
    with pytest.raises(RuntimeError, match="undeclared"):
        run.report({**result, "metrics": {"a_s": 0.5, "b": 1, "c": 2}}, declared)


def _lattice_job(mode, tmp_path):
    import inputs

    return {
        "mode": mode,
        "seed": 3,
        "seconds": 0.0,
        "models": inputs.read_models()[:2],
        "grams": inputs.gram_battery(3, count=5),
        "spans_path": str(tmp_path / "spans.jsonl"),
    }


def test_traced_lattice_run_reports_every_layer_metric(tmp_path):
    import json

    import worker

    spec = json.loads((Path(worker.__file__).parent.parent / "BENCHMARK.json").read_text())
    result = worker.run_trace_lattice(_lattice_job("trace-lattice", tmp_path))
    from_runner = {"startup.interp_s", "startup.import_s"}
    assert set(result["metrics"]) | from_runner == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["catalog.load_s"] == 0.0
    assert result["metrics"]["lattice_core.signature_calls.grams"] == 5
    assert result["outcome"]["failed"] == 0


def test_lattice_peak_rss_is_taken_after_a_fixed_number_of_passes(tmp_path):
    import worker
    from inputs import MIN_PASSES

    result = worker.run_lattice(_lattice_job("lattice", tmp_path))
    assert result["peak_rss_kb"] > 0
    assert len(result["speed_s"]) == MIN_PASSES["lattice"] + 1
