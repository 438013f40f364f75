"""Self-check of the benchmark's tracer on a short traced run.

Checks that every span closes, that children lie inside their parents, that
per-session self times sum to the session's wall time within TOLERANCE_S,
that uninstalling restores every wrapped binding, and that the workload and
metric names agree with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracer as tr  # noqa: E402
from workloads import END_TO_END, WORKLOADS  # noqa: E402

# self times are differences of the same perf_counter readings, so they sum
# to the session span's duration up to floating-point rounding
TOLERANCE_S = 1e-6

# (protocol, keys, mode, trials): one short session mix touching every layer
SHORT_RUN = [
    ("uniformity", {"k": 1024, "epsilon": 0.75, "allow_small_epsilon": True}, "ideal", 1),
    ("purity", {"d": 4}, "ideal", 2),
    ("tomo", {"d": 2, "epsilon": 0.9}, "sampled", 1),
    ("stab", {"n": 2, "epsilon": 0.4}, "ideal", 2),
]
SESSIONS = sum(run[3] for run in SHORT_RUN)


def _bindings():
    import ipsim.cli  # noqa: F401

    out = {}
    for name, module in sys.modules.items():
        if name.startswith("ipsim."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def _short_traced_run(tmp_path):
    from ipsim import cli

    tracer = tr.Tracer(keep_sessions=SESSIONS)
    patches = tr.install(tracer)
    try:
        results = []
        for protocol, keys, mode, trials in SHORT_RUN:
            cfg = cli.ExperimentConfig(
                protocol=protocol, trials=trials, seed=5, mode=mode, protocol_keys=dict(keys)
            )
            report, res = cli.run_experiment(cfg)
            cli.emit_report(report, res, str(tmp_path))
            results.extend(res)
    finally:
        tr.uninstall(patches)
    return tracer, results


def test_spans_close_nest_and_sum_to_session_wall_time(tmp_path):
    before = _bindings()
    tracer, results = _short_traced_run(tmp_path)
    assert _bindings() == before, "uninstall left a wrapped binding behind"

    dump = tracer.spans_dump()
    assert tracer.stack == []
    assert dump["opened"] == dump["closed"] == len(dump["id"])
    assert tracer.sessions == SESSIONS == len(results)

    spans = {
        sid: (dump["names"][nid], parent, session, start, end)
        for sid, nid, parent, session, start, end in zip(
            dump["id"], dump["name"], dump["parent"], dump["session"], dump["start"], dump["end"]
        )
    }
    child_s = defaultdict(float)
    for sid, (name, parent, session, start, end) in spans.items():
        assert start <= end, name
        if parent:
            p_name, _, p_session, p_start, p_end = spans[parent]
            assert p_start <= start and end <= p_end, f"{name} outside {p_name}"
            assert session == p_session or p_session == -1, f"{name} crosses sessions"
            child_s[parent] += end - start

    self_sum = defaultdict(float)
    roots = {}
    for sid, (name, _, session, start, end) in spans.items():
        if session >= 0:
            self_sum[session] += (end - start) - child_s[sid]
            if name.endswith(".run_one"):
                roots[session] = end - start
    assert sorted(roots) == list(range(SESSIONS))
    for session, wall in roots.items():
        assert abs(self_sum[session] - wall) <= TOLERANCE_S
        assert abs(tracer.session_self_s[session] - wall) <= TOLERANCE_S
        assert results[session].wall_time <= wall

    for layer in ("m61.vmul", "stream_ip.prover_round", "harness.with_unitary",
                  "harness.delegated_measure", "stab_ip.all_fidelities", "cli.emit_report"):
        assert tracer.totals(layer)[0] > 0, f"{layer} was not traced"


def test_metric_names_match_benchmark_json(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in END_TO_END.items()
    ]
    tracer, results = _short_traced_run(tmp_path)
    layers = tr.layer_metrics(tracer, results, report_bytes=1, cold_ms=0.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, m["unit"]) for name, m in layers.items()
    ]
