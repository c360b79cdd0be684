"""Smoke test of the benchmark harness on a tiny S(2,3,7) rung.

Runs both measurement paths (untraced closed loop and traced passes),
checks the compare verdicts on synthetic result sets, and checks that
BENCHMARK.json matches the workload and metric tables.
"""

import json

import run
from workloads import END_TO_END, PER_LAYER, SMOKE


def test_untraced_rung_reports_every_metric():
    rec = run.bench_one(SMOKE, 0, 0.5, trace=False)
    assert rec["failed"] == 0, rec["errors"]
    assert rec["iterations"] >= 1
    assert rec["attempted"] == rec["iterations"] * len(SMOKE.steps)
    for m in END_TO_END:
        if m.name in ("verify_s", "analyze_s"):
            assert m.name not in rec["metrics"]  # the rung runs neither command
        else:
            assert m.name in rec["metrics"]
    assert rec["metrics"]["error_rate"] == 0
    line = json.loads(run.result_line(rec, [m for m in END_TO_END if m.gated]))
    assert line["correct"] and line["attempted"] == rec["attempted"]
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_rung_decomposes_the_layers():
    rec = run.bench_one(SMOKE, 0, 0.5, trace=True)
    assert rec["failed"] == 0, rec["errors"]
    m = rec["metrics"]
    assert set(m) == {x.name for x in PER_LAYER}
    assert m["construct.blocks_n"] == 336
    assert m["netsim.propagate_n"] == 20  # one DAG per trial of the first simulate
    assert m["codes.decode_n"] == m["flatspace.aff_closure_n"] == 40
    assert 0 < m["codes.decode_ok_ratio"] <= 1
    assert m["design.verify_ms"] == m["codes.meet_pairs_n"] == 0  # not run
    for st in rec["steps"]:
        spans = st["layers"]["spans"]
        assert spans[0]["name"] == "cli.main" and spans[0]["parent"] == -1
        assert all(s["start_ns"] <= s["end_ns"] for s in spans)
        assert all(s["run_id"] == spans[0]["run_id"] for s in spans)


def _recs(metric, values):
    return [{"kind": "e2e", "env": {"workload": "sim7"}, "metrics": {metric: v}}
            for v in values]


def test_compare_verdicts(tmp_path):
    wall = next(m for m in END_TO_END if m.name == "wall_s")
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert run.verdict(wall, steady, [1.01, 1.00, 1.02, 0.99, 1.00]) == "ok"
    assert run.verdict(wall, steady, [1.30, 1.31, 1.29, 1.30, 1.32]) == "regressed"
    assert run.verdict(wall, steady, [0.5, 1.5, 0.8, 1.9, 1.0]) == "unresolved"
    # a spread wider than the bound still resolves when every run is better
    assert run.verdict(wall, steady, [0.5, 0.9, 0.6, 0.7, 0.8]) == "ok"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_recs("wall_s", steady)))
    b.write_text(json.dumps(_recs("wall_s", [1.30, 1.31, 1.29, 1.30, 1.32])))
    assert run.compare(a, a) == 0
    assert run.compare(a, b) == 1


def test_manifest_matches_benchmark_json():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest()
