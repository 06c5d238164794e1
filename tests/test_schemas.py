"""Schema regression tests for every JSON artifact the repo commits.

Guards against silent format drift: the committed ``BENCH_obs.json``
must match its declared schema in :mod:`repro.obs.schema`, a freshly
recorded trace must pass the trace validator, and the validator itself
must actually reject the malformed shapes it claims to catch (a validator that accepts everything
passes every regression test and catches nothing).
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.nn import Sequential
from repro.nn.layers import Dense
from repro.obs import (
    BENCH_OBS_SCHEMA,
    TRACE_SCHEMA_VERSION,
    SchemaError,
    TraceRecorder,
    read_jsonl,
    trace_records,
    validate,
    validate_trace,
    write_jsonl,
)
from repro.obs.schema import TRACE_RECORD_SCHEMAS, arr, obj

REPO_ROOT = Path(__file__).resolve().parent.parent

ARTIFACTS = [
    ("BENCH_obs.json", BENCH_OBS_SCHEMA),
]


@pytest.mark.parametrize("name,schema", ARTIFACTS, ids=[n for n, _ in ARTIFACTS])
def test_committed_artifact_matches_schema(name, schema):
    path = REPO_ROOT / name
    if not path.exists():
        pytest.skip(f"{name} not present (benchmark not yet run on this checkout)")
    validate(json.loads(path.read_text()), schema)


@pytest.mark.parametrize("name,schema", ARTIFACTS, ids=[n for n, _ in ARTIFACTS])
def test_artifact_schema_rejects_drift(name, schema):
    """Each schema must notice a dropped section and a reshaped one."""
    path = REPO_ROOT / name
    if not path.exists():
        pytest.skip(f"{name} not present (benchmark not yet run on this checkout)")
    doc = json.loads(path.read_text())

    # Dropping any top-level required section must fail.
    key = sorted(doc)[0]
    pruned = {k: v for k, v in doc.items() if k != key}
    with pytest.raises(SchemaError):
        validate(pruned, schema)

    # A renamed top-level key (the classic silent reshape) must fail too.
    renamed = dict(doc)
    renamed[f"{key}_v2"] = renamed.pop(key)
    with pytest.raises(SchemaError):
        validate(renamed, schema)


class TestTraceSchema:
    def _trace(self, tmp_path):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((32, 5)), rng.integers(0, 3, 32)
        model = Sequential().add(Dense(8)).add(Dense(3))
        rec = TraceRecorder()
        with rec:
            model.fit(x, y, epochs=2, batch_size=16, loss="cross_entropy",
                      lr=1e-3, seed=0)
        path = tmp_path / "trace.jsonl"
        write_jsonl(rec, path)
        return read_jsonl(path)

    def test_fresh_trace_validates(self, tmp_path):
        records = self._trace(tmp_path)
        counts = validate_trace(records)
        assert counts["span"] > 0 and counts["metric"] > 0
        assert records[0]["schema_version"] == TRACE_SCHEMA_VERSION

    def test_every_record_matches_its_dispatch_schema(self, tmp_path):
        for record in self._trace(tmp_path):
            validate(record, TRACE_RECORD_SCHEMAS[record["type"]])

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda r: r.pop(0),                                     # no header
            lambda r: r[0].update(schema_version=999),              # future version
            lambda r: r[0].update(spans=r[0]["spans"] + 1),         # count drift
            lambda r: r[1].update(id=r[2]["id"]),                   # duplicate id
            lambda r: r[-1].update(type="mystery"),                 # unknown type
            lambda r: r[1].pop("dur_wall"),                         # missing field
            lambda r: r[1].update(parent=10 ** 6),                  # dangling parent
        ],
        ids=["no-header", "bad-version", "count-drift", "dup-id",
             "unknown-type", "missing-field", "dangling-parent"],
    )
    def test_validator_rejects_corruption(self, tmp_path, corrupt):
        records = [copy.deepcopy(r) for r in self._trace(tmp_path)]
        corrupt(records)
        with pytest.raises(SchemaError):
            validate_trace(records)

    def test_balanced_trace_required_for_export(self):
        rec = TraceRecorder()
        rec.begin("left-open", kind="test")
        with pytest.raises(Exception):
            trace_records(rec)


class TestValidatorSemantics:
    """The mini JSON-Schema validator itself: accept/reject fundamentals."""

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})
        with pytest.raises(SchemaError):
            validate(True, {"type": "number"})

    def test_minimum_enforced(self):
        validate(0, {"type": "integer", "minimum": 0})
        with pytest.raises(SchemaError):
            validate(-1, {"type": "integer", "minimum": 0})

    def test_additional_properties_false_rejects_extras(self):
        schema = obj({"a": {"type": "integer"}})
        validate({"a": 1}, schema)
        with pytest.raises(SchemaError):
            validate({"a": 1, "b": 2}, schema)

    def test_required_key_missing(self):
        with pytest.raises(SchemaError) as exc:
            validate({}, obj({"a": {"type": "integer"}}))
        assert "'a'" in str(exc.value)

    def test_nested_error_reports_json_path(self):
        schema = obj({"rows": arr(obj({"ms": {"type": "number"}}))})
        with pytest.raises(SchemaError) as exc:
            validate({"rows": [{"ms": 1.0}, {"ms": "fast"}]}, schema)
        assert "$.rows[1].ms" in str(exc.value)

    def test_null_union(self):
        schema = {"type": ["number", "null"]}
        validate(None, schema)
        validate(1.5, schema)
        with pytest.raises(SchemaError):
            validate("x", schema)

    def test_enum(self):
        schema = {"enum": ["counter", "gauge"]}
        validate("gauge", schema)
        with pytest.raises(SchemaError):
            validate("timer", schema)

    def test_any_of(self):
        schema = {"anyOf": [{"type": "string"}, {"type": "integer"}]}
        validate("s", schema)
        validate(3, schema)
        with pytest.raises(SchemaError):
            validate(3.5, schema)
