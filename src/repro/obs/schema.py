"""Explicit schemas for every JSON artifact the repo emits, plus the
tiny validator that checks them.

Silent format drift is the failure mode: a benchmark runner reshapes its
output, nothing notices, and three PRs later the regression tooling is
comparing fields that no longer exist.  Each artifact therefore gets a
declared schema — the trace JSONL records (versioned via
:data:`~repro.obs.trace.TRACE_SCHEMA_VERSION`) and ``BENCH_obs.json``,
the live tracing-overhead gate — and ``tests/test_schemas.py`` validates
the files against them.  The other eight ``BENCH_*`` schemas pin the
committed last readings of per-subsystem drivers that ``bench/``
superseded and this repository no longer carries; nothing regenerates
those files, so their schemas are frozen with them.

The validator is a deliberately small JSON-Schema subset (type /
required / properties / items / enum / anyOf / minimum / null-unions /
additionalProperties) so it needs no third-party dependency; it raises
:class:`SchemaError` with a JSON-path to the offending value.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union


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
INT: Dict = {"type": "integer"}
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
# Benchmark artifacts
# ----------------------------------------------------------------------
_KERNEL_ROW = obj(
    {"shape": STR, "ref_ms": NONNEG, "new_ms": NONNEG, "speedup": NONNEG, "max_diff": NONNEG},
)
_FUSED_ROW_COMMON = {
    "fused_ms": NONNEG, "unfused_ms": NONNEG, "speedup": NONNEG, "ok": BOOL,
}

BENCH_KERNELS_SCHEMA = obj(
    {
        "acceptance": obj(
            {
                "parity_ok": BOOL,
                "conv2d_forward_speedup_geomean": NONNEG,
                "mlp_train_step_speedup": NONNEG,
                "cnn_train_step_speedup": NONNEG,
            },
        ),
        "gemm": arr(obj({"shape": STR, "ms": NONNEG, "gflops": NONNEG})),
        "conv1d_forward": arr(_KERNEL_ROW),
        "conv2d_forward": arr(_KERNEL_ROW),
        "fused": obj(
            {
                "linear_act": obj({"max_grad_diff": NONNEG, **_FUSED_ROW_COMMON}),
                "softmax_cross_entropy": obj({"max_diff": NONNEG, **_FUSED_ROW_COMMON}),
                "tol": NONNEG,
            },
        ),
        "dtype": obj(
            {
                "shape": STR,
                "rows": arr(obj(
                    {"format": {"enum": ["fp64", "fp32", "bf16", "fp16"]},
                     "ms": NONNEG, "speedup_vs_fp64": NONNEG, "max_fwd_diff": NONNEG},
                )),
                "int8_linear": obj(
                    {"fp32_ms": NONNEG, "int8_ms": NONNEG, "speedup_vs_fp32": NONNEG,
                     "max_diff_vs_fp32": NONNEG, "exact_f32_path": BOOL},
                ),
            },
        ),
        "train_step": obj(
            {
                "mlp": arr(obj(
                    {"role": STR, "shape": STR, "ref_ms": NONNEG, "new_ms": NONNEG,
                     "speedup": NONNEG, "first_loss_diff": NONNEG},
                )),
                "cnn": obj(
                    {"shape": STR, "ref_ms": NONNEG, "new_ms": NONNEG,
                     "speedup": NONNEG, "first_loss_diff": NONNEG},
                ),
            },
        ),
        "meta": obj({"numpy": STR, "reps": {"type": "integer", "minimum": 1}, "smoke": BOOL}),
    },
)

_LATENCY_SUMMARY = obj(
    {"count": NONNEG_INT, "mean_s": NONNEG, "min_s": NONNEG, "max_s": NONNEG,
     "p50_s": NONNEG, "p95_s": NONNEG, "p99_s": NONNEG},
)

BENCH_SERVING_SCHEMA = obj(
    {
        "acceptance": obj(
            {"parity_ok": BOOL, "accounting_ok": BOOL, "speedup": NONNEG,
             "speedup_min": NONNEG, "speedup_ok": BOOL},
        ),
        "batched": obj(
            {"accounted": BOOL, "batch_occupancy": NONNEG, "batches": NONNEG_INT,
             "busy_time_s": NONNEG, "completed": NONNEG_INT, "elapsed_s": NONNEG,
             "latency": _LATENCY_SUMMARY, "mean_batch_size": NONNEG, "shed": NONNEG_INT,
             "submitted": NONNEG_INT, "throughput_rps": NONNEG, "timed_out": NONNEG_INT,
             "utilization": NONNEG},
        ),
        "single": obj(
            {"elapsed_s": NONNEG, "max_abs_diff_vs_batched": NONNEG,
             "mean_latency_s": NONNEG, "requests": NONNEG_INT, "throughput_rps": NONNEG},
        ),
        "overload": obj(
            {"accounted": BOOL, "burst": NONNEG_INT, "completed": NONNEG_INT,
             "handle_statuses": {"type": "object", "additionalProperties": NONNEG_INT},
             "max_queue": NONNEG_INT, "shed": NONNEG_INT, "timed_out": NONNEG_INT},
        ),
        "registry": obj(
            {"evictions": NONNEG_INT, "hits": NONNEG_INT, "loads": NONNEG_INT,
             "registered": NONNEG_INT, "resident": NONNEG_INT},
        ),
        "service_time": obj({"base_s": NUM, "per_sample_s": NUM}),
        "sweep": arr(obj(
            {"accounted": BOOL, "batch_occupancy": NONNEG, "offered_rps": NONNEG,
             "p50_s": NONNEG, "p95_s": NONNEG, "p99_s": NONNEG, "shed": NONNEG_INT,
             "throughput_rps": NONNEG, "timed_out": NONNEG_INT, "utilization": NONNEG},
        )),
        "benchmark": STR,
        "max_batch_size": NONNEG_INT,
        "n_requests": NONNEG_INT,
        "smoke": BOOL,
    },
)

BENCH_REGISTRY_SCHEMA = obj(
    {
        "acceptance": obj(
            {"parity_ok": BOOL, "integrity_ok": BOOL, "churn_zero_torn": BOOL,
             "hit_rate": NONNEG, "hit_rate_min": NONNEG, "hit_rate_ok": BOOL,
             "alias_shared": BOOL, "dedup_ok": BOOL,
             "single_read_speedup": NONNEG, "single_read_speedup_min": NONNEG,
             "single_read_speedup_ok": BOOL, "scan_loads_flat": BOOL},
        ),
        "churn": obj(
            {"n_artifacts": NONNEG_INT, "n_readers": NONNEG_INT,
             "publish_elapsed_s": NONNEG, "publishes_per_s": NONNEG,
             "reader_reads": NONNEG_INT, "reader_errors": NONNEG_INT,
             "reads_per_s": NONNEG, "last_error": STR, "versions": NONNEG_INT},
        ),
        "load": obj(
            {"reps": NONNEG_INT, "double_read_ms": NONNEG,
             "single_read_ms": NONNEG, "speedup": NONNEG},
        ),
        "cache": obj(
            {"names": NONNEG_INT, "distinct_contents": NONNEG_INT,
             "accesses": NONNEG_INT, "hits": NONNEG_INT, "loads": NONNEG_INT,
             "evictions": NONNEG_INT, "dedup_hits": NONNEG_INT,
             "hit_rate": NONNEG, "alias_shared": BOOL, "dedup_ok": BOOL,
             "objects": NONNEG_INT},
        ),
        "scan": obj(
            {"models": NONNEG_INT, "scans": NONNEG_INT, "loads_before": NONNEG_INT,
             "loads_after": NONNEG_INT, "loads_flat": BOOL},
        ),
        "benchmark": STR,
        "smoke": BOOL,
    },
)

_REPLAY_REPORT = {
    "n_requests": NONNEG_INT,
    "elapsed_s": NONNEG,
    "submitted": NONNEG_INT,
    "completed": NONNEG_INT,
    "shed": NONNEG_INT,
    "timed_out": NONNEG_INT,
    "retried_away": NONNEG_INT,
    "retries": NONNEG_INT,
    "respawns": NONNEG_INT,
    "invariant_ok": BOOL,
    "parity_checked": NONNEG_INT,
    "parity_ok": BOOL,
}

BENCH_SERVING_SCALE_SCHEMA = obj(
    {
        "acceptance": obj(
            {
                "speedup": NONNEG,
                "speedup_min": NONNEG,
                "speedup_ok": BOOL,
                "parity_ok": BOOL,
                "accounting_ok": BOOL,
                "chaos_zero_lost": BOOL,
                "respawns_ok": BOOL,
            },
        ),
        "single": obj(
            {"requests": NONNEG_INT, "batches": NONNEG_INT, "elapsed_s": NONNEG,
             "throughput_rps": NONNEG},
        ),
        "distributed": obj(
            {**_REPLAY_REPORT, "throughput_rps": NONNEG, "latency": _LATENCY_SUMMARY},
        ),
        "mixes": arr(obj(
            {
                "mix": {"enum": ["poisson", "bursty", "diurnal"]},
                "offered_rps": NONNEG,
                "n_requests": NONNEG_INT,
                "completed": NONNEG_INT,
                "shed": NONNEG_INT,
                "shed_rate": NONNEG,
                "timed_out": NONNEG_INT,
                "retried_away": NONNEG_INT,
                "throughput_rps": NONNEG,
                "p50_s": NONNEG,
                "p99_s": NONNEG,
                "invariant_ok": BOOL,
                "parity_ok": BOOL,
            },
        )),
        "chaos": obj(
            {
                **_REPLAY_REPORT,
                "fault_counts": {"type": "object", "additionalProperties": NONNEG_INT},
                "supervisor": obj(
                    {"probes": NONNEG_INT, "probe_failures": NONNEG_INT,
                     "corrupt_detected": NONNEG_INT, "recycled": NONNEG_INT},
                ),
                "autoscale_events": NONNEG_INT,
                "breaker_opens": NONNEG_INT,
            },
        ),
        "benchmark": STR,
        "n_replicas": {"type": "integer", "minimum": 1},
        "max_batch_size": {"type": "integer", "minimum": 1},
        "n_requests": NONNEG_INT,
        "stall_per_batch_s": NONNEG,
        "smoke": BOOL,
        "meta": obj(
            {"numpy": STR, "cpus": {"type": "integer", "minimum": 1},
             "start_method": STR, "smoke": BOOL},
        ),
    },
)

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

_POS_INT: Dict = {"type": "integer", "minimum": 1}

BENCH_PARALLEL_SCHEMA = obj(
    {
        "acceptance": obj(
            {
                "parity_ok": BOOL,
                "ddp_parity_max_abs_diff": NONNEG,
                "hpo_best_match": BOOL,
                "hpo_speedup_4w": NONNEG,
                "hpo_speedup_min": NONNEG,
                "hpo_speedup_ok": BOOL,
                "ddp_speedup_2r": NONNEG,
                "ddp_speedup_min": NONNEG,
                "ddp_speedup_ok": BOOL,
            },
        ),
        "hpo": obj(
            {
                "n_trials": NONNEG_INT,
                "trial_stall_s": NONNEG,
                "serial": obj({"elapsed_s": NONNEG, "best_value": NUM}),
                "workers": arr(obj(
                    {"n_workers": _POS_INT, "elapsed_s": NONNEG, "speedup": NONNEG,
                     "best_value": NUM, "best_match": BOOL, "trials": NONNEG_INT},
                )),
            },
        ),
        "ddp": obj(
            {
                "world": _POS_INT,
                "epochs": NONNEG_INT,
                "steps": NONNEG_INT,
                "stall_per_batch_s": NONNEG,
                "serial": obj({"elapsed_s": NONNEG, "steps_per_s": NONNEG, "final_loss": NUM}),
                "process": obj(
                    {"elapsed_s": NONNEG, "steps_per_s": NONNEG, "final_loss": NUM,
                     "speedup": NONNEG},
                ),
                "parity_max_abs_diff": NONNEG,
                "loss_match": BOOL,
            },
        ),
        "prefetch": obj(
            {"plain_s": NONNEG, "prefetch_s": NONNEG, "speedup": NONNEG,
             "batches": NONNEG_INT, "stall_s": NONNEG},
        ),
        "meta": obj(
            {"numpy": STR, "cpus": _POS_INT, "start_method": STR,
             "smoke": BOOL, "blas_pinned": BOOL},
        ),
    },
)

#: ``BENCH_precision.json`` — the end-to-end reduced-precision benchmark
#: (frozen record; its driver is retired): measured p1b2 train-step time
#: per storage format, int8 serving throughput vs the fp32 single-stream
#: baseline, AUC parity, and the CI acceptance gates.
BENCH_PRECISION_SCHEMA = obj(
    {
        "meta": obj(
            {"numpy": STR, "smoke": BOOL, "reps": _POS_INT, "benchmark": STR},
        ),
        "train": obj(
            {
                "n_samples": NONNEG_INT,
                "n_features": NONNEG_INT,
                "batch_size": _POS_INT,
                "epochs": _POS_INT,
                # One row per trained format.  ``fp32_emulated`` is the
                # pre-existing PrecisionPolicy("fp32") emulation path
                # (float64 datapath + rounding) — the baseline the bf16
                # gate is scored against; the others run the real
                # narrow-storage datapath via Model.fit(precision=...).
                "rows": arr(obj(
                    {
                        "format": {
                            "enum": ["fp64", "fp32", "bf16", "fp16", "fp32_emulated"],
                        },
                        "step_ms": NONNEG,
                        "speedup_vs_fp64": NONNEG,
                        "final_loss": NUM,
                        "loss_dev_vs_fp64": NONNEG,
                    },
                    optional={"skipped_steps": NONNEG_INT, "final_loss_scale": NONNEG},
                )),
                "bf16_vs_emulated_fp32_speedup": NONNEG,
                "bf16_vs_fp32_speedup": NONNEG,
                "bf16_vs_fp64_speedup": NONNEG,
            },
        ),
        "serving": obj(
            {
                "n_eval": NONNEG_INT,
                "auc": obj({"fp64": NONNEG, "fp32": NONNEG, "int8": NONNEG}),
                "auc_drop_int8_vs_fp32": NUM,
                "fp32_single_stream_rps": NONNEG,
                "fp32_batched_rps": NONNEG,
                "int8_single_stream_rps": NONNEG,
                "int8_batched_rps": NONNEG,
                "served_bit_identical": BOOL,
                "weight_bytes": obj(
                    {"fp64": NONNEG_INT, "fp32": NONNEG_INT, "int8": NONNEG_INT},
                ),
            },
        ),
        "acceptance": obj(
            {
                "bf16_train_speedup": NONNEG,
                "bf16_train_speedup_min": NONNEG,
                "bf16_train_ok": BOOL,
                "int8_serving_speedup": NONNEG,
                "int8_serving_speedup_min": NONNEG,
                "int8_serving_ok": BOOL,
                "int8_auc_drop": NUM,
                "int8_auc_drop_max": NONNEG,
                "int8_auc_ok": BOOL,
                "train_parity_ok": BOOL,
                "served_bit_identical": BOOL,
                "gates_enforced": BOOL,
            },
        ),
    },
)


BENCH_HPO_SCALE_SCHEMA = obj(
    {
        "smoke": BOOL,
        "sim": obj(
            {"n_trials": _POS_INT, "n_workers": _POS_INT, "elapsed_s": NONNEG,
             "trials_per_s": NONNEG, "sim_makespan": NONNEG, "best_value": NUM,
             "promotions": NONNEG_INT, "claims": NONNEG_INT, "acks": NONNEG_INT},
        ),
        "real": obj(
            {"n_trials": _POS_INT, "n_workers": _POS_INT, "completed": NONNEG_INT,
             "elapsed_s": NONNEG, "ideal_s": NONNEG, "overhead_frac": NUM,
             "trials_per_s": NONNEG, "failures": NONNEG_INT,
             "retries": NONNEG_INT},
        ),
        "replay": obj(
            {"n_trials": _POS_INT, "n_workers": _POS_INT,
             "consumer_kills": NONNEG_INT, "workers_killed": NONNEG_INT,
             "reclaims": NONNEG_INT, "duplicate_acks": NONNEG_INT,
             "lost": INT, "duplicated": INT, "resumed_trials": NONNEG_INT,
             "bit_identical": BOOL},
        ),
        "asha_vs_sync": obj(
            {"n_trials": _POS_INT, "n_workers": _POS_INT, "seeds": arr(INT),
             "per_seed": arr(obj(
                 {"seed": INT, "target": NUM, "asha_tta": NUM, "sync_tta": NUM,
                  "asha_best": NUM, "sync_best": NUM},
             )),
             "asha_tta": NONNEG, "sync_tta": NONNEG, "tta_ratio": NONNEG},
        ),
        "acceptance": obj(
            {"sim_trials": _POS_INT, "sim_trials_ok": BOOL,
             "real_trials": NONNEG_INT, "real_trials_ok": BOOL,
             "overhead_frac": NUM, "overhead_gate": NONNEG, "overhead_ok": BOOL,
             "replay_lost": INT, "replay_duplicated": INT, "replay_ok": BOOL,
             "resume_bit_identical": BOOL, "tta_ratio": NONNEG,
             "asha_not_slower": BOOL},
        ),
    },
)


#: ``BENCH_ddp_overlap.json`` — the overlapped bucketed gradient
#: allreduce benchmark (frozen record; its driver, the monolithic engine
#: and the comm-stall option it names are all retired): step
#: throughput per engine (monolithic / bucketed / bucketed+overlap /
#: bucketed+overlap on the fp32 wire) at 2 and 4 ranks under a
#: calibrated comm stall, measured bytes-on-wire per wire dtype, and
#: the per-(comm, wire-dtype) process-vs-serial bit-parity audit.
_DDP_ENGINE_ROW = obj(
    {"elapsed_s": NONNEG, "steps_per_s": NONNEG, "n_buckets": _POS_INT,
     "overlap_fraction": NONNEG, "final_loss": NUM},
    optional={"speedup": NONNEG},
)

BENCH_DDP_OVERLAP_SCHEMA = obj(
    {
        "acceptance": obj(
            {
                "parity_ok": BOOL,
                "overlap_speedup_4r": NONNEG,
                "overlap_speedup_4r_f64": NONNEG,
                "overlap_speedup_min": NONNEG,
                "overlap_speedup_ok": BOOL,
                "overlap_fraction_4r": NONNEG,
                "fp32_wire_bytes_ratio": NONNEG,
                "fp32_wire_halves_bytes": BOOL,
            },
        ),
        "throughput": obj(
            {
                "epochs": _POS_INT,
                "steps_per_epoch": _POS_INT,
                "stall_s_per_step": NONNEG,
                "stall_s_per_mib": NONNEG,
                "vec_mib": NONNEG,
                "worlds": arr(obj(
                    {"world": _POS_INT, "monolithic": _DDP_ENGINE_ROW,
                     "bucketed_noverlap": _DDP_ENGINE_ROW,
                     "bucketed": _DDP_ENGINE_ROW,
                     "bucketed_fp32": _DDP_ENGINE_ROW},
                )),
            },
        ),
        "wire": obj(
            {
                "world": _POS_INT,
                "rows": arr(obj(
                    {"wire_dtype": {"enum": ["float64", "float32", "bf16"]},
                     "wire_bytes_per_step": _POS_INT,
                     "bytes_ratio_vs_f64": NONNEG, "final_loss": NUM},
                )),
            },
        ),
        "parity": obj(
            {
                "rows": arr(obj(
                    {"comm": {"enum": ["monolithic", "bucketed"]},
                     "wire_dtype": {"enum": ["float64", "float32", "bf16"]},
                     "max_abs_diff": NONNEG, "bit_identical": BOOL,
                     "loss_match": BOOL},
                )),
                "overlap_invariant": BOOL,
            },
        ),
        "meta": obj(
            {"numpy": STR, "cpus": _POS_INT, "start_method": STR,
             "smoke": BOOL, "blas_pinned": BOOL},
        ),
    },
)
