import json
import random

import pytest

from repobench import flow, lot, run, serve
from repobench.common import OracleMismatch
from repobench.loadgen import Outcome, PhaseResult, Request


def test_flow_mismatch_fails_the_run_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(flow, "load_oracle", lambda: {})
    assert run.run_workload("flow", 0, 0.1, False) == 1
    captured = capsys.readouterr()
    assert "ORACLE MISMATCH" in captured.err
    assert '"metrics"' not in captured.out


def test_flow_oracle_covers_the_whole_geometry_grid():
    from repobench.common import geometry_grid, geometry_key

    oracle = flow.load_oracle()
    assert {geometry_key(g) for g in geometry_grid()} <= set(oracle)


def test_lot_digest_mismatch_raises():
    table = {"1": "0" * 64}
    with pytest.raises(OracleMismatch, match="lot seed 1"):
        lot.check(table, [(1, "f" * 64)], "lot")
    lot.check(table, [(1, "0" * 64)], "lot")


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    files = serve.write_databases(random.Random(0),
                                  tmp_path_factory.mktemp("dbs"))
    return serve.ResponseOracle(list(files))


def _phase(request, status, headers, body):
    out = Outcome(request, 0.0, 0.001, status, headers, body)
    return PhaseResult([out], [0], 0.001)


def test_serve_body_must_match_the_named_generation(oracle):
    body = json.dumps({"queries": [{"geometry": {
        "rows": 64, "columns": 4, "bits_per_word": 8}}]}).encode()
    request = Request(0.0, "POST", "/v1/estimate", body, 200, "estimate")
    first, second = oracle.etags
    good = oracle.expected(first, body)
    serve.check_outcomes(_phase(request, 200, {"etag": f'"{first}"'}, good),
                         oracle, {})
    # The same bytes labelled with the other generation are wrong.
    with pytest.raises(OracleMismatch):
        serve.check_outcomes(
            _phase(request, 200, {"etag": f'"{second}"'}, good), oracle, {})
    with pytest.raises(OracleMismatch):
        serve.check_outcomes(
            _phase(request, 200, {"etag": '"unknown"'}, good), oracle, {})


def test_serve_malformed_body_must_get_its_named_error(oracle):
    body, status, code = serve.MALFORMED[0]
    request = Request(0.0, "POST", "/v1/estimate", body, status, code)
    named = json.dumps({"error": {"code": code, "detail": "x"}}).encode()
    serve.check_outcomes(_phase(request, status, {}, named), oracle, {})
    wrong = json.dumps({"error": {"code": "bad-kind",
                                  "detail": "x"}}).encode()
    with pytest.raises(OracleMismatch):
        serve.check_outcomes(_phase(request, status, {}, wrong), oracle, {})


def test_the_two_databases_differ(oracle):
    assert len(set(oracle.etags)) == 2
