"""The observability layer: recorder semantics, export, and the wired hooks.

Covers the tentpole contract end to end: span-stack invariants (balanced
open/close, unwind-on-exception), dual clocks, the metrics registry, the
versioned JSONL schema round-trip, the Chrome trace conversion, the
summary report — and an instrumented campaign whose trace contains
balanced spans from all six hook points (campaign driver, HPO scheduler,
``Model.fit``, op profiler, resilience, serving)."""

import json

import numpy as np
import pytest

from repro.hpo.space import Float, Int, SearchSpace
from repro.nn import Sequential
from repro.nn.layers import Activation, Dense
from repro.obs import (
    BENCH_OBS_SCHEMA,
    Counter,
    Gauge,
    MetricsRegistry,
    SchemaError,
    TRACE_SCHEMA_VERSION,
    TraceError,
    TraceRecorder,
    format_summary,
    get_recorder,
    maybe_span,
    read_jsonl,
    set_recorder,
    summarize_trace,
    to_chrome_trace,
    trace_records,
    validate,
    validate_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.perf import OpProfiler
from repro.resilience import CRASH, FaultSchedule
from repro.serve import BatchPolicy, InferenceServer
from repro.workflow.campaign import run_campaign


class TestTraceRecorder:
    def test_nested_spans_parent_and_balance(self):
        rec = TraceRecorder()
        outer = rec.begin("outer", kind="a")
        inner = rec.begin("inner", kind="b", depth=1)
        assert rec.open_spans == ["outer", "inner"]
        rec.end(inner)
        rec.end(outer)
        assert rec.balanced
        spans = rec.spans()
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["attrs"] == {"depth": 1}

    def test_close_order_is_record_order(self):
        rec = TraceRecorder()
        a = rec.begin("a")
        b = rec.begin("b")
        rec.end(b)
        rec.end(a)
        assert [s["name"] for s in rec.spans()] == ["b", "a"]

    def test_end_wrong_span_raises(self):
        rec = TraceRecorder()
        a = rec.begin("a")
        rec.begin("b")
        with pytest.raises(TraceError, match="unbalanced"):
            rec.end(a)

    def test_end_with_no_open_span_raises(self):
        rec = TraceRecorder()
        with pytest.raises(TraceError, match="no open span"):
            rec.end(1)

    def test_span_contextmanager_marks_aborted_and_unwinds(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError, match="boom"):
            with rec.span("outer"):
                rec.begin("leaked")  # explicit begin never end()ed
                raise RuntimeError("boom")
        # The original exception propagated (not a masking TraceError),
        # the leaked inner span was closed aborted, and the trace is
        # still balanced.
        assert rec.balanced
        by_name = {s["name"]: s for s in rec.spans()}
        assert by_name["leaked"]["attrs"]["aborted"] is True
        assert by_name["outer"]["attrs"]["aborted"] is True

    def test_durations_monotone(self):
        rec = TraceRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        by_name = {s["name"]: s for s in rec.spans()}
        assert by_name["inner"]["dur_wall"] >= 0.0
        assert by_name["outer"]["dur_wall"] >= by_name["inner"]["dur_wall"]

    def test_sim_clock_attaches_and_stamps(self):
        t = {"now": 10.0}
        rec = TraceRecorder(sim_clock=lambda: t["now"])
        sid = rec.begin("trial")
        t["now"] = 25.0
        span = rec.end(sid)
        assert span["t_sim"] == 10.0
        assert span["dur_sim"] == pytest.approx(15.0)

    def test_no_sim_clock_means_none(self):
        rec = TraceRecorder()
        rec.end(rec.begin("s"))
        span = rec.spans()[0]
        assert span["t_sim"] is None and span["dur_sim"] is None

    def test_events_carry_stack_position(self):
        rec = TraceRecorder()
        rec.event("orphan")
        sid = rec.begin("parent")
        rec.event("nested", kind="fault", fault="crash")
        rec.end(sid)
        orphan, nested = rec.events()
        assert orphan["parent"] is None
        assert nested["parent"] == sid
        assert nested["attrs"]["fault"] == "crash"

    def test_add_complete_nests_under_open_span(self):
        rec = TraceRecorder()
        sid = rec.begin("step")
        rec.add_complete("gemm", kind="op", dur_wall=1e-4)
        rec.end(sid)
        op = rec.spans(kind="op")[0]
        assert op["parent"] == sid
        assert op["dur_wall"] == pytest.approx(1e-4)

    def test_context_manager_installs_and_restores(self):
        assert get_recorder() is None
        rec = TraceRecorder()
        with rec:
            assert get_recorder() is rec
            inner = TraceRecorder()
            with inner:
                assert get_recorder() is inner
            assert get_recorder() is rec
        assert get_recorder() is None

    def test_context_not_reentrant(self):
        rec = TraceRecorder()
        with rec:
            with pytest.raises(TraceError, match="not reentrant"):
                with rec:
                    pass  # pragma: no cover

    def test_clean_exit_with_open_spans_raises(self):
        rec = TraceRecorder()
        with pytest.raises(TraceError, match="open spans"):
            with rec:
                rec.begin("dangling")
        assert get_recorder() is None  # restored despite the raise

    def test_exceptional_exit_closes_open_spans(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            with rec:
                rec.begin("dangling")
                raise ValueError("original")
        assert rec.balanced
        assert rec.spans()[0]["attrs"]["aborted"] is True

    def test_maybe_span_none_is_noop(self):
        with maybe_span(None, "x") as span:
            assert span is None

    def test_set_recorder_returns_previous(self):
        rec = TraceRecorder()
        assert set_recorder(rec) is None
        assert set_recorder(None) is rec


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("steps").inc()
        reg.counter("steps").inc(3)
        reg.gauge("loss").set(2.0)
        reg.gauge("loss").set(0.5)
        reg.histogram("latency").observe(1e-3)
        assert reg.counter("steps").value == 4
        g = reg.gauge("loss")
        assert (g.value, g.n, g.min, g.max) == (0.5, 2, 0.5, 2.0)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_name_collision_across_types(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_records_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.gauge("b").set(1.0)
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert [m["name"] for m in snap] == ["a", "b"]
        assert all(m["type"] == "metric" for m in snap)


class TestExportRoundTrip:
    def _recorded(self):
        rec = TraceRecorder()
        with rec.span("root", kind="phase", label="x"):
            with rec.span("child", kind="work"):
                rec.event("tick", kind="beat", n=1)
        rec.metrics.counter("c").inc(2)
        return rec

    def test_jsonl_roundtrip_validates(self, tmp_path):
        rec = self._recorded()
        path = write_jsonl(rec, tmp_path / "t.jsonl")
        records = read_jsonl(path)
        counts = validate_trace(records)
        assert counts == {"header": 1, "span": 2, "event": 1, "metric": 1}
        assert records[0]["schema_version"] == TRACE_SCHEMA_VERSION

    def test_export_refuses_open_spans(self):
        rec = TraceRecorder()
        rec.begin("open")
        with pytest.raises(TraceError, match="open spans"):
            trace_records(rec)

    def test_nonfinite_attrs_become_strings(self, tmp_path):
        rec = TraceRecorder()
        rec.end(rec.begin("s", bad=float("nan"), arr=np.float64(2.5)))
        path = write_jsonl(rec, tmp_path / "t.jsonl")
        span = read_jsonl(path)[1]
        assert span["attrs"]["bad"] == "nan"
        assert span["attrs"]["arr"] == 2.5  # numpy scalar -> plain float

    def test_validator_rejects_bad_version(self):
        records = trace_records(self._recorded())
        records[0]["schema_version"] = 999
        with pytest.raises(SchemaError, match="version"):
            validate_trace(records)

    def test_validator_rejects_duplicate_id(self):
        records = trace_records(self._recorded())
        spans = [r for r in records if r["type"] == "span"]
        spans[1]["id"] = spans[0]["id"]
        with pytest.raises(SchemaError, match="duplicate id"):
            validate_trace(records)

    def test_validator_rejects_unknown_parent(self):
        records = trace_records(self._recorded())
        next(r for r in records if r["type"] == "span")["parent"] = 10_000
        with pytest.raises(SchemaError, match="parent"):
            validate_trace(records)

    def test_validator_rejects_count_mismatch(self):
        records = trace_records(self._recorded())
        records[0]["spans"] = 99
        with pytest.raises(SchemaError, match="declares"):
            validate_trace(records)

    def test_validator_rejects_missing_header(self):
        records = trace_records(self._recorded())
        with pytest.raises(SchemaError, match="header"):
            validate_trace(records[1:])

    def test_chrome_trace_shape(self, tmp_path):
        records = trace_records(self._recorded())
        chrome = to_chrome_trace(records)
        phs = [e["ph"] for e in chrome["traceEvents"]]
        assert phs.count("M") == 2          # process + thread name
        assert phs.count("X") == 2          # the two spans
        assert phs.count("i") == 1          # the event
        x = next(e for e in chrome["traceEvents"] if e["ph"] == "X" and e["name"] == "child")
        assert x["cat"] == "work" and x["dur"] >= 0
        # And the file written is strict JSON (no NaN literals).
        path = write_chrome_trace(records, tmp_path / "c.json")
        json.loads(path.read_text())

    def test_summary_fields(self):
        records = trace_records(self._recorded())
        summary = summarize_trace(records, record_cost_s=1e-6)
        assert summary["spans"] == 2 and summary["events"] == 1
        assert set(summary["kinds"]) == {"phase", "work"}
        # Self time of the root excludes the child.
        root = summary["kinds"]["phase"]
        assert root["self_wall_s"] <= root["total_wall_s"]
        assert [hop["name"] for hop in summary["critical_path"]] == ["root", "child"]
        assert summary["overhead"]["per_record_s"] == 1e-6
        text = format_summary(summary)
        assert "critical path" in text and "phase" in text


class TestSchemaValidator:
    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError):
            validate(True, {"type": "number"})

    def test_bench_obs_schema_accepts_bench_output(self):
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
        from bench_obs_overhead import run_overhead_bench
        results = run_overhead_bench(smoke=True, reps=1)
        validate(results, BENCH_OBS_SCHEMA)


class TestWiredHooks:
    """Each subsystem hook, exercised in isolation under a recorder."""

    def _fit_mlp(self, epochs=2):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((48, 6))
        y = rng.standard_normal((48, 2))
        model = Sequential()
        model.add(Dense(8)).add(Activation("relu")).add(Dense(2))
        model.fit(x, y, epochs=epochs, batch_size=16, loss="mse", lr=1e-3, seed=0)

    def test_fit_spans_and_gauges(self):
        rec = TraceRecorder()
        with rec:
            self._fit_mlp(epochs=2)
        assert rec.balanced
        assert len(rec.spans(kind="fit")) == 1
        assert len(rec.spans(kind="fit.epoch")) == 2
        steps = rec.spans(kind="fit.step")
        assert len(steps) == 6  # 3 batches x 2 epochs
        for s in steps:
            assert np.isfinite(s["attrs"]["loss"])
            assert s["attrs"]["grad_norm"] >= 0.0
        assert rec.metrics.counter("fit.steps").value == 6
        assert rec.metrics.gauge("fit.grad_norm").n == 6

    def test_fit_detached_records_nothing(self):
        rec = TraceRecorder()
        self._fit_mlp()  # recorder never installed
        assert len(rec) == 0

    def test_op_spans_nest_under_fit_steps(self):
        rec = TraceRecorder()
        with rec:
            with OpProfiler():
                self._fit_mlp(epochs=1)
        ops = rec.spans(kind="op")
        assert ops, "op profiler recorded no spans"
        step_ids = {s["id"] for s in rec.spans(kind="fit.step")}
        assert any(op["parent"] in step_ids for op in ops)

    def test_serve_batch_spans_and_queue_gauge(self):
        rng = np.random.default_rng(0)
        model = Sequential()
        model.add(Dense(4)).add(Dense(2))
        model.build((3,), rng)
        rec = TraceRecorder()
        with rec:
            server = InferenceServer(model, BatchPolicy(max_batch_size=4, max_wait_s=0.0))
            for i in range(6):
                server.submit(rng.normal(size=3))
            server.drain()
        batches = rec.spans(kind="serve.batch")
        assert batches and sum(b["attrs"]["batch_size"] for b in batches) == 6
        assert rec.metrics.counter("serve.batches").value == len(batches)
        assert rec.metrics.gauge("serve.queue_depth").n > 0

    def test_shed_event_on_overload(self):
        rng = np.random.default_rng(0)
        model = Sequential()
        model.add(Dense(2))
        model.build((3,), rng)
        rec = TraceRecorder()
        with rec:
            server = InferenceServer(
                model, BatchPolicy(max_batch_size=2, max_wait_s=10.0, max_queue=2)
            )
            for i in range(5):
                server.submit(rng.normal(size=3))
            server.drain()
        assert rec.events(kind="serve.shed")

    def test_hpo_trial_spans_on_sim_clock(self):
        from repro.hpo.strategies import RandomSearch

        space = SearchSpace({"lr": Float(1e-4, 1e-2, log=True)})
        from repro.hpo.scheduler import run_parallel

        rec = TraceRecorder()

        def objective(cfg, budget):
            with rec.span("fit", kind="fit"):
                return cfg["lr"]

        with rec:
            log = run_parallel(
                RandomSearch(space, seed=0), objective,
                n_trials=4, n_workers=2,
                cost_model=lambda cfg, budget: 2.0,
            )
        assert rec.balanced
        trials = rec.spans(kind="hpo.trial")
        assert len(trials) == 4
        # The scheduler attached its simulated clock to the recorder: trial
        # spans are stamped in simulated seconds and detach afterwards.
        assert all(t["t_sim"] is not None and t["dur_sim"] is not None for t in trials)
        assert rec.sim_clock is None
        # The span is a real begin/end around the objective call: what
        # the objective records nests under its trial, the wall time is
        # measured, and the sim stamps are the interval the trial held
        # its worker.
        fits = rec.spans(kind="fit")
        assert [f["parent"] for f in fits] == [t["id"] for t in trials]
        assert all(t["dur_wall"] >= f["dur_wall"] > 0 for t, f in zip(trials, fits))
        assert [(t["t_sim"], t["dur_sim"]) for t in trials] == [(0.0, 2.0)] * 2 + [(2.0, 2.0)] * 2
        assert [t.sim_time for t in log.trials] == [2.0, 2.0, 4.0, 4.0]

    def test_fault_events_and_counters(self):
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        space = SearchSpace({"x": Float(0.0, 1.0)})
        rec = TraceRecorder()
        with rec:
            log = run_parallel(RandomSearch(space, seed=0), lambda c, b=1: c["x"], 20, 4,
                               constant_cost(1.0), faults=FaultSchedule(nan=0.5, seed=1))
        hit = log.stats["faults"]["nan"]
        assert hit > 0
        assert len(rec.events(kind="fault")) == hit
        total = sum(
            rec.metrics.counter(f"faults.{k}").value
            for k in ("nan",)
        )
        assert total == hit

    def test_resilient_training_spans_and_restart_events(self, tmp_path):
        from repro.resilience import run_resilient_training

        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 5))
        y = rng.standard_normal((40, 1))
        model = Sequential()
        model.add(Dense(4)).add(Dense(1))
        rec = TraceRecorder()
        with rec:
            history, report = run_resilient_training(
                model, x, y, checkpoint_dir=tmp_path / "ck",
                epochs=2, batch_size=10, checkpoint_every=3,
                faults=FaultSchedule(entries={("step", 0, 4): CRASH}),
            )
        assert report.restarts == 1
        assert rec.balanced
        fits = rec.spans(kind="fit")
        assert len(fits) == 2  # crashed incarnation + the successful one
        assert fits[0]["attrs"].get("aborted") is True
        assert len(rec.events(kind="resilience.restart")) == 1
        assert rec.events(kind="resilience.checkpoint")


    def test_policy_trainer_records_what_fit_records(self):
        """Every trainer is in the trace: train_with_policy and the three
        distributed-SGD studies are Model.fit, so each records the same
        fit / epoch / step spans and the same fit.steps count (one per
        batch run) on the same data."""
        from repro.precision import PrecisionPolicy, train_with_policy
        from repro.nn import SGD
        from repro.parallel import fit_data_parallel
        from repro.workflow import train_async_sgd, train_topk_sgd

        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 5))
        y = rng.standard_normal((40, 1))
        trainers = [
            lambda m: m.fit(x, y, epochs=2, batch_size=10),
            lambda m: train_with_policy(m, x, y, PrecisionPolicy("fp16"), epochs=2, batch_size=10),
            lambda m: train_async_sgd(m, x, y, 2, staleness=2, epochs=2, batch_size=10),
            lambda m: train_topk_sgd(m, x, y, fraction=0.1, epochs=2, batch_size=10),
            lambda m: fit_data_parallel(m, x, y, world=2, backend="serial", batch_size=10, drop_last=True,
                                        optimizer_factory=lambda p: SGD(p, lr=1e-2), epochs=2),
        ]
        for train in trainers:
            model = Sequential()
            model.add(Dense(4)).add(Dense(1))
            rec = TraceRecorder()
            with rec:
                train(model)
            assert rec.balanced
            counts = [len(rec.spans(kind=k)) for k in ("fit", "fit.epoch", "fit.step")]
            assert counts + [rec.metrics.counter("fit.steps").value] == [1, 2, 8, 8]

    def test_resilient_training_step_spans_match_its_ledger(self, tmp_path):
        """Every executed step — useful or replayed — is one fit.step
        span and one fit.steps count; a crash fires between steps, so no
        step span is ever aborted."""
        from repro.resilience import run_resilient_training

        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 5))
        y = rng.standard_normal((40, 1))
        model = Sequential()
        model.add(Dense(4)).add(Dense(1))
        rec = TraceRecorder()
        with rec:
            _, report = run_resilient_training(
                model, x, y, checkpoint_dir=tmp_path / "ck", epochs=2, batch_size=10,
                checkpoint_every=3, faults=FaultSchedule(entries={("step", 0, 5): CRASH}),
            )
        assert report.restarts == 1 and report.steps_replayed > 0
        steps = rec.spans(kind="fit.step")
        assert len(steps) == report.useful_steps + report.steps_replayed
        assert rec.metrics.counter("fit.steps").value == len(steps)
        assert not any(s["attrs"].get("aborted") for s in steps)
        # The epoch the crash interrupted is the one aborted epoch span.
        assert sum(bool(e["attrs"].get("aborted")) for e in rec.spans(kind="fit.epoch")) == 1


class TestInstrumentedCampaignEndToEnd:
    """Acceptance criterion: a full run_campaign under one recorder
    exports a schema-valid JSONL trace with balanced spans from all six
    hook points, converting to a loadable Chrome trace."""

    SIX_KINDS = ("campaign", "hpo.trial", "fit", "op", "fault", "serve.batch")

    def test_trace_covers_all_six_hook_points(self, tmp_path):
        space = SearchSpace({
            "lr": Float(1e-4, 1e-2, log=True),
            "hidden1": Int(4, 16),
            "batch_size": Int(8, 32),
        })
        rec = TraceRecorder()
        with rec:
            with OpProfiler():
                run_campaign(
                    "p1b1", space, n_trials=2, n_workers=2,
                    final_epochs=1, max_search_samples=50, seed=1,
                    faults=FaultSchedule(nan=0.4, seed=5),
                    checkpoint_dir=tmp_path / "ck",
                )
            # Serve the same process's model under the same recorder so
            # the timeline spans training *and* inference.
            rng = np.random.default_rng(0)
            model = Sequential()
            model.add(Dense(4)).add(Dense(1))
            model.build((5,), rng)
            server = InferenceServer(model, BatchPolicy(max_batch_size=4, max_wait_s=0.0))
            for i in range(6):
                server.submit(rng.normal(size=5))
            server.drain()
        assert rec.balanced

        path = write_jsonl(rec, tmp_path / "campaign.jsonl")
        records = read_jsonl(path)
        counts = validate_trace(records)
        assert counts["span"] > 0 and counts["event"] > 0 and counts["metric"] > 0

        kinds = {r["kind"] for r in records[1:] if r["type"] in ("span", "event")}
        for needed in self.SIX_KINDS:
            assert any(k == needed or k.startswith(needed + ".") for k in kinds), (
                f"hook point {needed!r} missing from trace kinds {sorted(kinds)}"
            )

        # Campaign phases are children of the campaign root span.
        spans = [r for r in records if r["type"] == "span"]
        root = next(s for s in spans if s["kind"] == "campaign")
        phases = {s["kind"] for s in spans if s["parent"] == root["id"]}
        assert {"campaign.search", "campaign.final_training", "campaign.evaluate"} <= phases

        chrome = to_chrome_trace(records)
        assert len(chrome["traceEvents"]) == 2 + counts["span"] + counts["event"]
        json.dumps(chrome)  # loadable = serializable strict JSON

    def test_campaign_detached_leaves_no_global_state(self):
        space = SearchSpace({"lr": Float(1e-4, 1e-2)})
        assert get_recorder() is None
        run_campaign("p1b1", space, n_trials=1, n_workers=1,
                     final_epochs=1, max_search_samples=40, seed=0)
        assert get_recorder() is None
