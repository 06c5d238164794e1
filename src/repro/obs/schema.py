"""Explicit schemas for every JSON artifact the repo emits, plus the
tiny validator that checks them.

Silent format drift is the failure mode: a benchmark runner reshapes its
output, nothing notices, and three PRs later the regression tooling is
comparing fields that no longer exist.  Each artifact therefore gets a
declared schema — the trace JSONL records (versioned via
:data:`~repro.obs.trace.TRACE_SCHEMA_VERSION`) and ``BENCH_obs.json``,
the live tracing-overhead gate — and ``tests/test_schemas.py`` validates
the files against them.

The validator is a deliberately small JSON-Schema subset (type /
required / properties / items / enum / anyOf / minimum / null-unions /
additionalProperties) so it needs no third-party dependency; it raises
:class:`SchemaError` with a JSON-path to the offending value.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union


class SchemaError(ValueError):
    """A JSON value does not match its declared schema."""


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # bool is an int subclass in Python; a schema saying "integer" must
    # not silently accept True.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(value: Any, schema: Dict, path: str = "$") -> None:
    """Check ``value`` against ``schema``; raises :class:`SchemaError`."""
    if "anyOf" in schema:
        errors = []
        for i, sub in enumerate(schema["anyOf"]):
            try:
                validate(value, sub, path)
                break
            except SchemaError as e:
                errors.append(str(e))
        else:
            raise SchemaError(f"{path}: no anyOf branch matched ({'; '.join(errors)})")
        return

    declared = schema.get("type")
    if declared is not None:
        types = declared if isinstance(declared, (list, tuple)) else (declared,)
        if not any(_TYPE_CHECKS[t](value) for t in types):
            raise SchemaError(
                f"{path}: expected {'/'.join(types)}, got {type(value).__name__} ({value!r})"
            )

    if "enum" in schema and value not in schema["enum"]:
        raise SchemaError(f"{path}: {value!r} not in {schema['enum']}")

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            raise SchemaError(f"{path}: {value!r} < minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            raise SchemaError(f"{path}: {value!r} > maximum {schema['maximum']}")

    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise SchemaError(f"{path}: missing required key {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                validate(item, props[key], f"{path}.{key}")
            elif extra is False:
                raise SchemaError(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                validate(item, extra, f"{path}.{key}")

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]")


# ----------------------------------------------------------------------
# Shorthand constructors (schemas below would be unreadable longhand)
# ----------------------------------------------------------------------
NUM: Dict = {"type": "number"}
NONNEG: Dict = {"type": "number", "minimum": 0}
NONNEG_INT: Dict = {"type": "integer", "minimum": 0}
STR: Dict = {"type": "string"}
BOOL: Dict = {"type": "boolean"}
#: A number or null — sim-clock fields when no sim clock is attached,
#: and measured values that may be NaN (JSON round-trips them as floats).
OPT_NUM: Dict = {"type": ["number", "null"]}


def obj(required: Dict, optional: Optional[Dict] = None, extra: Union[bool, Dict] = False) -> Dict:
    """Object schema from {key: subschema} dicts; required keys enforced."""
    props = dict(required)
    if optional:
        props.update(optional)
    return {
        "type": "object",
        "required": sorted(required),
        "properties": props,
        "additionalProperties": extra,
    }


def arr(items: Dict) -> Dict:
    return {"type": "array", "items": items}


# ----------------------------------------------------------------------
# Trace JSONL records (schema_version 1)
# ----------------------------------------------------------------------
TRACE_HEADER_SCHEMA = obj(
    {
        "type": {"enum": ["header"]},
        "schema_version": {"type": "integer", "minimum": 1},
        "generator": STR,
        "spans": NONNEG_INT,
        "events": NONNEG_INT,
        "metrics": NONNEG_INT,
    },
)

TRACE_SPAN_SCHEMA = obj(
    {
        "type": {"enum": ["span"]},
        "id": {"type": "integer", "minimum": 1},
        "parent": {"type": ["integer", "null"]},
        "name": STR,
        "kind": STR,
        "t_wall": NONNEG,
        "dur_wall": NONNEG,
        "t_sim": OPT_NUM,
        "dur_sim": OPT_NUM,
        "attrs": {"type": "object"},
    },
)

TRACE_EVENT_SCHEMA = obj(
    {
        "type": {"enum": ["event"]},
        "id": {"type": "integer", "minimum": 1},
        "parent": {"type": ["integer", "null"]},
        "name": STR,
        "kind": STR,
        "t_wall": NONNEG,
        "t_sim": OPT_NUM,
        "attrs": {"type": "object"},
    },
)

TRACE_METRIC_SCHEMA = obj(
    {
        "type": {"enum": ["metric"]},
        "metric": {"enum": ["counter", "gauge", "histogram"]},
        "name": STR,
    },
    extra=True,  # per-instrument payload: value/min/max or bucket summary
)

#: Dispatch table the trace validator uses, keyed on the record's "type".
TRACE_RECORD_SCHEMAS = {
    "header": TRACE_HEADER_SCHEMA,
    "span": TRACE_SPAN_SCHEMA,
    "event": TRACE_EVENT_SCHEMA,
    "metric": TRACE_METRIC_SCHEMA,
}


# ----------------------------------------------------------------------
# Benchmark artifact
# ----------------------------------------------------------------------
BENCH_OBS_SCHEMA = obj(
    {
        "acceptance": obj(
            {"overhead_ok": BOOL, "overhead_frac": NUM, "gate_frac": NONNEG},
        ),
        "overhead": obj(
            {"detached_ms": NONNEG, "attached_ms": NONNEG, "overhead_frac": NUM,
             "steps": NONNEG_INT, "shape": STR},
        ),
        "trace": obj(
            {"records": NONNEG_INT, "records_per_step": NONNEG},
        ),
        "meta": obj({"numpy": STR, "reps": {"type": "integer", "minimum": 1}, "smoke": BOOL}),
    },
)
