"""Tests for the fault-tolerant campaign runtime (repro.resilience).

The load-bearing property: a training run killed by injected faults and
resumed from its checkpoints is **bit-identical** to the same run left
uninterrupted — weights, optimizer moments, RNG streams, loss history.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import example, strategies as st

from repro.candle import build_p1b2_classifier, get_benchmark
from repro.datasets import make_tumor_expression
from repro.hpc import SimCluster
from repro.nn import (
    SGD,
    AdaGrad,
    Adam,
    CheckpointIntegrityError,
    Dense,
    Dropout,
    RMSProp,
    Sequential,
    atomic_savez,
    load_training_state,
    restore_rng,
    rng_state,
    save_training_state,
    save_weights,
)
from repro.parallel import fit_data_parallel
from repro.precision import FitPrecision, LossScaler, PrecisionPolicy, quantize_model, train_with_policy
from repro.registry import ArtifactStore, load_artifact
from repro.resilience import (
    CRASH,
    NAN,
    STRAGGLER,
    CheckpointManager,
    FaultSchedule,
    ResilienceReport,
    plan_checkpoint_interval,
    run_resilient_training,
)
from repro.resilience.faults import SITES


def small_model(dropout: float = 0.0):
    return build_p1b2_classifier(4, hidden=(12,), dropout=dropout)


@pytest.fixture(scope="module")
def data():
    d = make_tumor_expression(n_samples=96, n_genes=20, n_classes=4, seed=0)
    return d.x, d.y


def params_of(model):
    return [p.data.copy() for p in model.parameters()]


def crashes(*steps, **schedule):
    """Crash before each of ``steps``: the k-th (in step order) kills the
    k-th incarnation, each restart replaying past the steps before it."""
    entries = {("step", k, step): CRASH for k, step in enumerate(sorted(steps))}
    return FaultSchedule(entries=entries, **schedule)


def assert_bit_identical(model_a, model_b):
    pa, pb = params_of(model_a), params_of(model_b)
    assert len(pa) == len(pb)
    for a, b in zip(pa, pb):
        assert np.array_equal(a, b), "weights diverged"


#: Rates for every drawn kind and a few keys per site: the draw is a
#: function of (seed, site, key) alone, whatever order the keys come in.
ALL_RATES = dict(crash=0.2, nan=0.1, straggler=0.1, storage=0.3, kill_replica=0.1,
                 hang_replica=0.1, slow_replica=0.1)
SITE_KEYS = {"trial": 2, "step": 2, "grad": 1, "write": 1, "dispatch": 2, "consumer": 2}


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule(crash=1.0)
        with pytest.raises(ValueError):
            FaultSchedule(crash=0.5, nan=0.3, straggler=0.3)
        with pytest.raises(ValueError):
            FaultSchedule(straggler_factor=0.5)
        with pytest.raises(ValueError):
            crashes(-1)
        with pytest.raises(ValueError, match="not a fault of site 'step'"):
            FaultSchedule(entries={("step", 0, 3): NAN})
        with pytest.raises(ValueError):
            FaultSchedule(entries={("nowhere", 1): CRASH})


class TestFaultInjector:
    def test_decisions_are_order_independent(self):
        """Fault decisions are pure functions of (seed, ids) — the event
        loop's interleaving cannot change them."""
        a = FaultSchedule(crash=0.2, nan=0.1, straggler=0.1, seed=5)
        keys = [(t, att) for t in range(30) for att in range(2)]
        fwd = {k: a.draw("trial", *k) for k in keys}
        rev = {k: a.draw("trial", *k) for k in reversed(keys)}
        assert fwd == rev

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           keys=st.lists(st.tuples(st.sampled_from(sorted(SITE_KEYS)),
                                   st.lists(st.integers(0, 50), min_size=2, max_size=2)),
                         min_size=1, max_size=40),
           order=st.randoms(use_true_random=False))
    def test_draw_is_pure_over_any_call_order(self, seed, keys, order):
        """Every site: the kinds drawn for a set of units of work are the
        same whatever order they are asked in, and a second schedule
        equal to the first answers the same."""
        units = [(site, *ids[:SITE_KEYS[site]]) for site, ids in keys]
        entries = {units[0]: SITES[units[0][0]][1][0]}
        first = FaultSchedule(seed=seed, entries=entries, **ALL_RATES)
        want = {u: first.draw(*u) for u in units}
        shuffled = list(units)
        order.shuffle(shuffled)
        again = FaultSchedule(seed=seed, entries=entries, **ALL_RATES)
        assert {u: again.draw(*u) for u in shuffled} == want
        assert want[units[0]] == entries[units[0]]
        assert all(k is None or k in SITES[u[0]][1] for u, k in want.items())

    def test_seed_changes_schedule(self):
        a = FaultSchedule(crash=0.3, seed=0)
        b = FaultSchedule(crash=0.3, seed=1)
        fa = [a.draw("trial", t, 0) for t in range(50)]
        fb = [b.draw("trial", t, 0) for t in range(50)]
        assert fa != fb

    def test_at_most_one_fault_per_attempt_and_counts_match(self):
        schedule = FaultSchedule(crash=0.2, nan=0.2, straggler=0.2, seed=2)
        seen = {CRASH: 0, NAN: 0, STRAGGLER: 0}
        for t in range(300):
            kind = schedule.draw("trial", t, 0)
            if kind is not None:
                seen[kind] += 1
        for kind, n in seen.items():
            assert n > 0, f"no {kind} in 300 draws at p=0.2"
        assert 0.45 < sum(seen.values()) / 300 < 0.75  # ~60% nominal

    def test_crash_steps_fire_exactly_once(self):
        schedule = crashes(3, 7)
        fired = [g for g in range(10) if schedule.draw("step", 0, g) == CRASH]
        assert fired == [3]
        # Replay (the restarted incarnation) passes step 3 unharmed and
        # dies at the next entry.
        assert [g for g in range(10) if schedule.draw("step", 1, g) == CRASH] == [7]
        assert not any(schedule.draw("step", 2, g) for g in range(10))

    def test_rate_crashes_redraw_per_incarnation(self):
        schedule = FaultSchedule(crash=0.3, seed=8)
        inc0 = [schedule.draw("step", 0, g) for g in range(40)]
        inc1 = [schedule.draw("step", 1, g) for g in range(40)]
        assert inc0 != inc1  # a restart is a fresh draw, not a replay loop

    def test_corrupt_gradients_poisons_in_place(self, data, tmp_path):
        """A NaN entry poisons that step's gradient inside the loop, whose
        guard then drops exactly that update."""
        x, y = data
        _, rep = run_resilient_training(
            small_model(), x, y, checkpoint_dir=tmp_path, epochs=1, batch_size=16,
            loss="cross_entropy", faults=FaultSchedule(entries={("grad", 1): NAN}),
        )
        assert rep.nan_updates_skipped == 1 and rep.faults[NAN] == 1


class TestTrainingStateSerialization:
    def test_round_trip_restores_everything(self, data, tmp_path):
        x, y = data
        model = small_model()
        rng = np.random.default_rng(0)
        model.build(x.shape[1:], rng)
        opt = Adam(model.parameters(), lr=1e-3)
        model.fit(x, y, epochs=1, batch_size=32, loss="cross_entropy", optimizer=opt)

        shuffle_rng = np.random.default_rng(42)
        shuffle_rng.random(7)  # advance to a nontrivial state
        path = save_training_state(
            model, opt, tmp_path / "state.npz",
            epoch=3, step=2, global_step=17, rng=shuffle_rng,
            extra_arrays={"perm": np.arange(10)[::-1].copy()},
            history=[{"loss": 1.5}, {"loss": 0.75}],
            metadata={"epoch_sum": 2.25, "epoch_count": 3},
        )

        clone = small_model()
        clone.build(x.shape[1:], np.random.default_rng(99))
        clone_opt = Adam(clone.parameters(), lr=1e-3)
        header = load_training_state(clone, clone_opt, path)

        assert_bit_identical(model, clone)
        assert (header["epoch"], header["step"], header["global_step"]) == (3, 2, 17)
        assert header["history"] == [{"loss": 1.5}, {"loss": 0.75}]
        assert header["metadata"]["epoch_sum"] == 2.25
        assert np.array_equal(header["extra"]["perm"], np.arange(10)[::-1])
        # The restored RNG continues the exact stream.
        assert header["rng"].random(5).tolist() == shuffle_rng.random(5).tolist()
        # Optimizer moments round-trip bit-exactly.
        assert clone_opt.step_count == opt.step_count
        for slot in ("m", "v"):
            assert np.array_equal(opt.state[slot], clone_opt.state[slot])

    def test_rng_state_round_trip(self):
        rng = np.random.default_rng(123)
        rng.normal(size=10)
        twin = restore_rng(rng_state(rng))
        assert twin.random(8).tolist() == rng.random(8).tolist()

    def test_atomic_savez_leaves_no_temp_files(self, data, tmp_path):
        p = atomic_savez(tmp_path / "a.npz", {"x": np.arange(3)})
        assert p.exists()
        assert [f.name for f in tmp_path.iterdir()] == ["a.npz"]
        # Overwrite is also atomic — and complete.
        atomic_savez(tmp_path / "a.npz", {"x": np.arange(5)})
        with np.load(tmp_path / "a.npz") as z:
            assert z["x"].shape == (5,)
        assert len(list(tmp_path.iterdir())) == 1
        # save_weights goes through the same writer: one final file
        # after a write and after an overwrite.
        model = small_model()
        model.build(data[0].shape[1:], np.random.default_rng(0))
        (tmp_path / "w").mkdir()
        for _ in range(2):
            save_weights(model, tmp_path / "w" / "weights.npz")
            assert [f.name for f in (tmp_path / "w").iterdir()] == ["weights.npz"]


@pytest.fixture(scope="module")
def stored(data, tmp_path_factory):
    """One valid registry artifact and one valid training snapshot, as
    bytes, each with the arrays it decodes to."""
    x, y = data
    tmp = tmp_path_factory.mktemp("stored")
    model = small_model()
    model.build(x.shape[1:], np.random.default_rng(0))
    opt = Adam(model.parameters(), lr=1e-3)
    model.fit(x, y, epochs=1, batch_size=32, loss="cross_entropy", optimizer=opt)
    store = ArtifactStore(tmp / "store")
    blob = store.path_for(store.publish(
        get_benchmark("p1b2").materialize(hidden=(8,)), "m", "p1b2", hparams={"hidden": (8,)}
    ))
    snap = save_training_state(
        model, opt, tmp / "snap.npz", epoch=1, step=2, global_step=5,
        rng=np.random.default_rng(3), extra_arrays={"perm": np.arange(12)[::-1].copy()},
    )
    return {"artifact": (blob.read_bytes(), load_artifact(blob)[1]),
            "snapshot": (snap.read_bytes(), _snapshot_arrays(x, snap))}


def _snapshot_arrays(x, path):
    """Everything load_training_state installs, as one flat list."""
    model = small_model()
    model.build(x.shape[1:], np.random.default_rng(9))
    opt = Adam(model.parameters(), lr=1e-3)
    header = load_training_state(model, opt, path)
    return model.get_weights() + [opt.state["m"], opt.state["v"], header["extra"]["perm"]]


class TestReaderRefusesDamage:
    """ROADMAP item 7, first parser: a damaged file is refused with
    CheckpointIntegrityError or decodes to exactly what was written —
    never another exception, never other numbers."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["artifact", "snapshot"]),
        where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        xor=st.integers(min_value=0, max_value=255),
    )
    def test_truncation_or_byte_flip_is_refused_or_harmless(self, data, stored, kind, where, xor):
        raw, want = stored[kind]
        pos = int(where * len(raw))
        if xor == 0:
            damaged = raw[:pos]  # prefix truncation
        else:
            damaged = raw[:pos] + bytes([raw[pos] ^ xor]) + raw[pos + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "damaged.npz"
            path.write_bytes(damaged)
            try:
                got = load_artifact(path)[1] if kind == "artifact" else _snapshot_arrays(data[0], path)
            except CheckpointIntegrityError:
                return
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g is not None and g.dtype == w.dtype and np.array_equal(g, w)


    def test_shadowed_directory_entry_is_refused(self, data, stored, tmp_path):
        """One flipped byte in the zip directory can rename a member onto
        its neighbour; zipfile then serves the neighbour and the member
        silently vanishes — for an optional array (an Adam moment) that
        would load as 'no moment yet'."""
        raw, _ = stored["snapshot"]
        at = raw.rindex(b"opt_m.npy")  # the directory copy of the name
        path = tmp_path / "shadowed.npz"
        path.write_bytes(raw[:at] + b"opt_v.npy" + raw[at + 9:])
        with pytest.raises(CheckpointIntegrityError, match="share a name"):
            _snapshot_arrays(data[0], path)

    @pytest.mark.parametrize("damage, error", [
        (lambda arrays: arrays.pop("opt_m"), CheckpointIntegrityError),
        (lambda arrays: arrays.update(opt_m=arrays["opt_m"][:-1]), ValueError),
    ], ids=["slot-the-header-lists-is-missing", "slot-has-the-wrong-length"])
    def test_optimizer_state_the_header_does_not_describe_is_refused(
        self, data, stored, tmp_path, damage, error
    ):
        """The header names the optimizer's members, so a well-formed file
        without one (or with one of another length) is refused — before
        any weight is installed, and leaving the optimizer as it was."""
        (tmp_path / "snap.npz").write_bytes(stored["snapshot"][0])
        with np.load(tmp_path / "snap.npz") as z:
            arrays = {key: z[key] for key in z.files}
        damage(arrays)
        atomic_savez(tmp_path / "snap.npz", arrays)
        model = small_model()
        model.build(data[0].shape[1:], np.random.default_rng(9))
        opt = Adam(model.parameters(), lr=0.5)
        before = model.get_weights()
        with pytest.raises(error, match="opt_m|'m'"):
            load_training_state(model, opt, tmp_path / "snap.npz")
        assert all(np.array_equal(a, b) for a, b in zip(before, model.get_weights()))
        assert opt.state is None and opt.lr == 0.5 and opt.step_count == 0


class TestCheckpointManager:
    def _save(self, mgr, model, opt, g):
        return mgr.save(model, opt, epoch=0, step=g, global_step=g)

    def test_retention_keeps_baseline_and_newest(self, data, tmp_path):
        x, _ = data
        model = small_model()
        model.build(x.shape[1:], np.random.default_rng(0))
        opt = Adam(model.parameters())
        mgr = CheckpointManager(tmp_path, keep=2)
        for g in [0, 5, 10, 15, 20]:
            self._save(mgr, model, opt, g)
        names = [p.name for p in mgr.snapshots()]
        assert names == ["ckpt-00000000.npz", "ckpt-00000015.npz", "ckpt-00000020.npz"]
        assert mgr.latest().name == "ckpt-00000020.npz"

    def test_injected_storage_failure_preserves_previous(self, data, tmp_path):
        x, _ = data
        model = small_model()
        model.build(x.shape[1:], np.random.default_rng(0))
        opt = Adam(model.parameters())
        mgr = CheckpointManager(tmp_path, faults=FaultSchedule(storage=0.99, seed=0))
        assert mgr.save(model, opt, epoch=0, step=0, global_step=0, force=True) is not None
        before = mgr.latest()
        failed = sum(1 for g in range(1, 8) if self._save(mgr, model, opt, g) is None)
        assert failed > 0 and mgr.writes_failed == failed
        assert mgr.latest() == before or mgr.latest().stat().st_size > 0

    def test_restore_empty_dir_returns_none(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        assert mgr.restore(small_model(), None) is None

    def test_restore_skips_unreadable_snapshots(self, data, tmp_path):
        x, _ = data
        model = small_model()
        model.build(x.shape[1:], np.random.default_rng(0))
        opt = Adam(model.parameters())
        mgr = CheckpointManager(tmp_path)
        for g in [0, 5, 10]:
            self._save(mgr, model, opt, g)
        newest = mgr.latest()
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])
        assert mgr.restore(model, opt)["global_step"] == 5
        assert mgr.snapshots_skipped == 1
        assert mgr.latest() == newest, "the damaged snapshot is evidence: left on disk"
        for path in mgr.snapshots():
            path.write_bytes(b"PK")
        with pytest.raises(CheckpointIntegrityError, match=str(tmp_path)):
            mgr.restore(model, opt)


#: Every optimizer class, and the two options that add state or staging.
OPTIMIZERS = {
    "adam": lambda params: Adam(params, lr=1e-3),
    "nesterov": lambda params: SGD(params, lr=1e-2, momentum=0.9, nesterov=True),
    "rmsprop": lambda params: RMSProp(params, lr=1e-3),
    "adagrad": lambda params: AdaGrad(params, lr=1e-2),
    "adam+weight_decay": lambda params: Adam(params, lr=1e-3, weight_decay=0.01),
}


class TestBitIdenticalResume:
    def _run(self, data, ckpt_dir, faults=None, epochs=3, dropout=0.3, **kw):
        x, y = data
        model = small_model(dropout=dropout)
        history, report = run_resilient_training(
            model, x, y, checkpoint_dir=ckpt_dir, epochs=epochs, batch_size=16,
            loss="cross_entropy", lr=1e-3, seed=0, checkpoint_every=4,
            faults=faults, **kw,
        )
        return model, history, report

    def test_crashed_run_matches_uninterrupted(self, data, tmp_path):
        clean_model, clean_hist, clean_rep = self._run(data, tmp_path / "clean")
        faulty_model, faulty_hist, rep = self._run(data, tmp_path / "faulty", faults=crashes(3, 9, 14))

        assert rep.restarts == 3
        assert rep.steps_replayed > 0
        assert clean_rep.steps_replayed == 0
        assert clean_rep.snapshots_skipped == rep.snapshots_skipped == 0
        assert faulty_hist.series("loss") == clean_hist.series("loss")
        assert_bit_identical(clean_model, faulty_model)

    def test_reused_schedule_gives_each_run_the_same_faults(self, data, tmp_path):
        """One schedule, two runs: each meets the explicit crash and the
        same drawn storage failures, and each report counts only its own
        run's faults."""
        faults = crashes(5, storage=0.3, seed=2)
        (m0, h0, r0), (m1, h1, r1) = [
            self._run(data, tmp_path / f"run{i}", faults=faults) for i in range(2)
        ]
        assert r0.restarts == r0.faults[CRASH] == 1 and r0.faults["storage"] > 0
        assert r0 == r1
        assert h0.series("loss") == h1.series("loss")
        assert_bit_identical(m0, m1)

    def test_batchnorm_statistics_survive_a_crash(self, data, tmp_path):
        """Layer buffers are model state: a snapshot that kept only the
        parameters resumed with stale running statistics, and the resumed
        model predicted differently on identical weights."""
        x, y = data

        def run(ckpt_dir, faults=None):
            model = build_p1b2_classifier(4, hidden=(12,), dropout=0.0, batch_norm=True)
            run_resilient_training(
                model, x, y, checkpoint_dir=ckpt_dir, epochs=3, batch_size=16,
                loss="cross_entropy", lr=1e-3, seed=0, checkpoint_every=4, faults=faults,
            )
            return model

        clean = run(tmp_path / "clean")
        faulty = run(tmp_path / "faulty", crashes(5, 11))
        assert_bit_identical(clean, faulty)
        assert np.array_equal(clean.predict(x), faulty.predict(x))

    def test_resume_across_calls_matches_single_run(self, data, tmp_path):
        """Kill-and-reschedule across process boundaries: train 2 epochs,
        come back later for 4 — identical to 4 straight."""
        straight_model, straight_hist, _ = self._run(data, tmp_path / "a", epochs=4)
        x, y = data
        resumed = small_model(dropout=0.3)
        run_resilient_training(
            resumed, x, y, checkpoint_dir=tmp_path / "b", epochs=2, batch_size=16,
            loss="cross_entropy", lr=1e-3, seed=0, checkpoint_every=4,
        )
        hist, rep = run_resilient_training(
            resumed, x, y, checkpoint_dir=tmp_path / "b", epochs=4, batch_size=16,
            loss="cross_entropy", lr=1e-3, seed=0, checkpoint_every=4,
        )
        assert rep.snapshots_skipped == 0
        assert hist.series("loss") == straight_hist.series("loss")
        assert_bit_identical(straight_model, resumed)

    def test_resume_past_a_truncated_newest_snapshot(self, data, tmp_path):
        """The newest snapshot was cut in half after it landed (a
        truncating copy): resume falls back one snapshot and still ends
        bit-identical to the run that was never interrupted."""
        straight_model, straight_hist, _ = self._run(data, tmp_path / "a", epochs=3)
        resumed, _, _ = self._run(data, tmp_path / "b", epochs=2)
        newest = sorted((tmp_path / "b").glob("ckpt-*.npz"))[-1]
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])
        x, y = data
        hist, rep = run_resilient_training(
            resumed, x, y, checkpoint_dir=tmp_path / "b", epochs=3, batch_size=16,
            loss="cross_entropy", lr=1e-3, seed=0, checkpoint_every=4,
        )
        assert rep.snapshots_skipped == 1 and "1 skipped" in rep.summary()
        assert hist.series("loss") == straight_hist.series("loss")
        assert_bit_identical(straight_model, resumed)

    def test_resume_from_a_snapshot_with_only_the_old_header_keys(self, data, tmp_path):
        """A ``ckpt-*.npz`` written before the loops merged (the header
        keys of 77a41ef, loss-only history rows) still resumes, mid-epoch,
        to the uninterrupted run's weights: keys added since default."""
        straight_model, straight_hist, _ = self._run(data, tmp_path / "a", epochs=3)
        with pytest.raises(RuntimeError, match="restarts"):  # die at step 9, stay dead
            self._run(data, tmp_path / "b", faults=crashes(9),
                      max_restarts=0)
        x, y = data
        newest = sorted((tmp_path / "b").glob("ckpt-*.npz"))[-1]
        carrier = small_model(dropout=0.3)
        carrier.build(x.shape[1:], np.random.default_rng(0))
        opt = Adam(carrier.parameters(), lr=1e-3)
        header = load_training_state(carrier, opt, newest)
        assert header["step"] > 0, "the case is a mid-epoch resume"
        (tmp_path / "c").mkdir()
        save_training_state(
            carrier, opt, tmp_path / "c" / newest.name,
            epoch=header["epoch"], step=header["step"], global_step=header["global_step"],
            rng=header["rng"], extra_arrays={"perm": header["extra"]["perm"]},
            history=[{"loss": row["loss"]} for row in header["history"]],
            metadata={k: header["metadata"][k] for k in ("epoch_sum", "epoch_count", "layer_rngs")},
        )
        resumed, hist, rep = self._run(data, tmp_path / "c", epochs=3)
        assert rep.steps_replayed == 0 and rep.useful_steps == 18 - header["global_step"]
        assert hist.series("loss") == straight_hist.series("loss")
        assert_bit_identical(straight_model, resumed)

    @pytest.mark.parametrize("batch_size", [8, 16])
    def test_fit_resilient_and_policy_trainers_are_one_loop(self, batch_size, tmp_path):
        """Model.fit == fault-free run_resilient_training ==
        train_with_policy(fp64), weights and loss rows, ragged tail
        included: the merge of the three loops moved no float."""
        d = make_tumor_expression(n_samples=100, n_genes=20, n_classes=4, seed=1)
        kw = dict(epochs=3, batch_size=batch_size, loss="cross_entropy")
        models = [Sequential([Dense(16, activation="relu"), Dropout(0.2), Dense(4)])
                  for _ in range(3)]
        rows = [
            models[0].fit(d.x, d.y, **kw).series("loss"),
            run_resilient_training(models[1], d.x, d.y, checkpoint_dir=tmp_path, **kw)[0]
            .series("loss"),
            train_with_policy(models[2], d.x, d.y, PrecisionPolicy("fp64"), **kw),
        ]
        assert rows[0] == rows[1] == rows[2]
        assert_bit_identical(models[0], models[1])
        assert_bit_identical(models[0], models[2])

    @settings(max_examples=12, deadline=None)
    @given(
        crash_steps=st.sets(st.integers(min_value=1, max_value=17), max_size=4),
        checkpoint_every=st.integers(min_value=1, max_value=7),
        precision=st.sampled_from([None, "bf16", "fp16", "overflowing fp16 policy"]),
        grad_accumulation=st.sampled_from([1, 3]),
        clip_norm=st.sampled_from([None, 0.5]),
        validate=st.booleans(),
        optimizer=st.sampled_from(sorted(OPTIMIZERS)),
    )
    # AdaGrad's accumulator was in no snapshot: this draw ended 5e-2 apart.
    @example(crash_steps={5, 11}, checkpoint_every=4, precision=None, grad_accumulation=1,
             clip_norm=None, validate=False, optimizer="adagrad")
    def test_resume_is_bit_identical_property(
        self, crash_steps, checkpoint_every, precision, grad_accumulation, clip_norm, validate,
        optimizer,
    ):
        """For any crash schedule, any checkpoint cadence, any optimizer
        and any of fit's own options — datapath, accumulation window,
        clipping, validation with early stopping — the survivor equals
        the uninterrupted run bit for bit: weights, predictions, loss rows."""
        d = make_tumor_expression(n_samples=48, n_genes=20, n_classes=4, seed=1)
        runs = []
        for steps in [(), tuple(sorted(crash_steps))]:
            model = small_model(dropout=0.2)
            model.build(d.x.shape[1:], np.random.default_rng(0))
            faults = crashes(*steps) if steps else None
            fit_kwargs = dict(grad_accumulation=grad_accumulation, clip_norm=clip_norm,
                              optimizer=OPTIMIZERS[optimizer](model.parameters()))
            if precision == "overflowing fp16 policy":
                # Starts too high: overflows, halves, regrows, overflows again.
                fit_kwargs["precision"] = PrecisionPolicy("fp16")
                fit_kwargs["precision"].scaler = LossScaler(scale=2.0 ** 20, growth_interval=2)
            else:
                fit_kwargs["precision"] = precision
            if validate:
                fit_kwargs.update(validation_split=0.25, early_stopping_patience=1)
            with tempfile.TemporaryDirectory() as tmp:
                hist, rep = run_resilient_training(
                    model, d.x, d.y, checkpoint_dir=tmp, epochs=3, batch_size=8,
                    loss="cross_entropy", lr=1e-3, seed=0,
                    checkpoint_every=checkpoint_every, faults=faults, **fit_kwargs,
                )
            assert rep.snapshots_skipped == 0
            runs.append((model, hist))
        (clean, clean_hist), (faulty, faulty_hist) = runs
        for key in ("loss", "val_loss"):
            assert faulty_hist.series(key) == clean_hist.series(key)
        assert getattr(faulty_hist, "precision", None) == getattr(clean_hist, "precision", None)
        assert [w.dtype for w in faulty.get_weights()] == [w.dtype for w in clean.get_weights()]
        assert_bit_identical(clean, faulty)
        x = d.x.astype(clean.get_weights()[0].dtype)
        assert np.array_equal(clean.predict(x), faulty.predict(x))

    def test_nan_steps_are_quarantined_not_fatal(self, data, tmp_path):
        faults = FaultSchedule(entries={("grad", 2): NAN, ("grad", 5): NAN})
        _, hist, rep = self._run(data, tmp_path, faults=faults, dropout=0.0)
        assert rep.nan_updates_skipped == 2
        assert rep.faults[NAN] == 2
        assert all(np.isfinite(v) for v in hist.series("loss"))

    def test_storage_failures_tolerated(self, data, tmp_path):
        _, _, rep = self._run(data, tmp_path, faults=crashes(7, storage=0.6, seed=1), dropout=0.0)
        assert rep.checkpoint_write_failures > 0
        assert rep.restarts == 1  # still survived the crash

    def test_time_ledger_and_efficiency(self, data, tmp_path):
        _, _, rep = self._run(
            data, tmp_path, faults=crashes(5), dropout=0.0,
            step_time_s=1.0, checkpoint_time_s=0.5, restart_time_s=2.0,
        )
        assert rep.sim_useful_time == rep.useful_steps
        assert rep.sim_lost_time == rep.steps_replayed
        assert rep.sim_restart_time == 2.0
        assert rep.sim_total_time == pytest.approx(
            rep.sim_useful_time + rep.sim_lost_time
            + rep.sim_checkpoint_time + rep.sim_restart_time
        )
        assert 0.0 < rep.measured_efficiency < 1.0

    def test_gives_up_after_max_restarts(self, data, tmp_path):
        with pytest.raises(RuntimeError, match="restarts"):
            self._run(data, tmp_path, faults=crashes(*range(1, 6)), max_restarts=2)


class TestRemovedOptions:
    """Options no caller set are gone without shims: a stale keyword is
    a TypeError, not a silent no-op."""

    @pytest.mark.parametrize("call", [
        lambda x, y, tmp: small_model().fit(x, y, epochs=1, grad_ready_hook=print),
        lambda x, y, tmp: small_model().fit(x, y, epochs=1, loss="cross_entropy", prefetch=True),
        lambda x, y, tmp: fit_data_parallel(small_model(), x, y, world=2, backend="serial",
                                            epochs=1, loss="cross_entropy", prefetch=True),
        lambda x, y, tmp: run_resilient_training(small_model(), x, y, checkpoint_dir=tmp, shuffle=False),
        lambda x, y, tmp: run_resilient_training(small_model(), x, y, checkpoint_dir=tmp, keep_checkpoints=5),
        lambda x, y, tmp: run_resilient_training(small_model(), x, y, checkpoint_dir=tmp,
                                                 report=ResilienceReport()),
        lambda x, y, tmp: PrecisionPolicy("fp16", stochastic=True),
        lambda x, y, tmp: PrecisionPolicy("fp16", seed=1),
        lambda x, y, tmp: PrecisionPolicy("fp16", overrides={}, seed=1),
        lambda x, y, tmp: PrecisionPolicy("int8", int8_calibration="percentile"),
        lambda x, y, tmp: FitPrecision("fp16", [], loss_scaling=False),
        lambda x, y, tmp: FitPrecision("fp16", [], scaler=LossScaler()),
        lambda x, y, tmp: small_model().quantize_int8(x, method="minmax"),
        lambda x, y, tmp: small_model().quantize_int8(x, percentile=99.0),
        lambda x, y, tmp: quantize_model(small_model(), x, method="minmax"),
        lambda x, y, tmp: quantize_model(small_model(), x, percentile=99.0),
    ], ids=["fit-grad_ready_hook", "fit-prefetch", "fit_data_parallel-prefetch",
            "resilient-shuffle", "resilient-keep_checkpoints", "resilient-report",
            "policy-stochastic", "policy-seed", "layerwise-seed", "policy-int8_calibration",
            "fitprecision-loss_scaling", "fitprecision-scaler", "quantize_int8-method",
            "quantize_int8-percentile", "quantize_model-method", "quantize_model-percentile"])
    def test_stale_keyword_raises(self, call, data, tmp_path):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call(*data, tmp_path)


class TestReport:
    def test_summary_and_defaults(self):
        rep = ResilienceReport()
        assert rep.measured_efficiency == 1.0
        assert rep.total_faults() == 0
        rep.faults = {"crash": 2}
        rep.restarts = 2
        text = rep.summary()
        assert "crash=2" in text and "restarts=2" in text


class TestPlanCheckpointInterval:
    def test_interval_positive_and_steps_derived(self):
        from repro.hpc.perfmodel import mlp_profile

        cluster = SimCluster.build("summit_era", 64)
        profile = mlp_profile([64, 128, 64, 8], batch_size=32)
        plan = plan_checkpoint_interval(profile, cluster, step_time_s=0.01)
        assert plan["mtbf"] > 0
        assert plan["checkpoint_time"] > 0
        assert plan["interval_s"] > 0
        assert plan["interval_steps"] >= 1


def _sphere(config, budget=1):
    return (config["x"] - 0.3) ** 2 + (config["y"] - 0.7) ** 2


def _space():
    from repro.hpo import Float, SearchSpace

    return SearchSpace({"x": Float(0.0, 1.0), "y": Float(0.0, 1.0)})


class TestSchedulerResilience:
    def test_sync_sim_time_is_barrier_time(self):
        """Wave k of w workers at constant cost c completes at (k+1)*c —
        the accounting the dead `loop.now += 0` used to leave at zero."""
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 8, 4,
                           constant_cost(3.0), sync=True)
        assert [t.sim_time for t in log.trials] == [3.0] * 4 + [6.0] * 4

    def test_sync_straggler_stalls_its_wave(self):
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        faults = FaultSchedule(straggler=0.4, straggler_factor=5.0, seed=2)
        log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 4, 4,
                           constant_cost(1.0), sync=True, faults=faults)
        assert log.stats["faults"][STRAGGLER] > 0
        # One barrier; everyone pays the slowest slot's stretched time.
        times = {t.sim_time for t in log.trials}
        assert times == {5.0}

    def test_sync_and_async_inject_identical_fault_schedules(self):
        """Keyed-RNG determinism: the schedule's decisions depend only on
        (seed, trial, attempt), not on the scheduler's interleaving."""
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        def run(sync):
            faults = FaultSchedule(crash=0.15, nan=0.1, straggler=0.1, seed=11)
            log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 30, 4,
                               constant_cost(1.0), sync=sync, faults=faults,
                               max_retries=2)
            return log.stats["faults"], log.stats

        counts_s, stats_s = run(sync=True)
        counts_a, stats_a = run(sync=False)
        assert counts_s == counts_a
        assert stats_s == stats_a

    def test_worker_loss_shrinks_pool_both_modes(self):
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        for sync in (True, False):
            faults = FaultSchedule(worker_loss_times=(0.5, 1.5), seed=0)
            log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 12, 4,
                               constant_cost(1.0), sync=sync, faults=faults)
            assert len(log) == 12, f"sync={sync}"
            assert log.stats["workers_lost"] == 2
            # Fewer workers → later completion than a full-strength pool.
            full = run_parallel(RandomSearch(_space(), seed=0), _sphere, 12, 4,
                                constant_cost(1.0), sync=sync)
            assert max(t.sim_time for t in log.trials) > max(t.sim_time for t in full.trials)

    def test_nan_objective_quarantined(self):
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        def sometimes_nan(config, budget=1):
            return float("nan") if config["x"] < 0.5 else _sphere(config)

        log = run_parallel(RandomSearch(_space(), seed=0), sometimes_nan, 20, 4,
                           constant_cost(1.0))
        assert len(log) == 20
        assert log.stats["quarantined"] > 0
        assert all(not np.isnan(t.value) for t in log.trials)
        assert sum(t.value == float("inf") for t in log.trials) == log.stats["quarantined"]

    def test_injected_nan_trials_quarantined_as_inf(self):
        from repro.hpo import RandomSearch, constant_cost, run_parallel

        faults = FaultSchedule(nan=0.3, seed=4)
        log = run_parallel(RandomSearch(_space(), seed=0), _sphere, 20, 4,
                           constant_cost(1.0), faults=faults)
        assert log.stats["quarantined"] == log.stats["faults"][NAN] > 0
        assert sum(t.value == float("inf") for t in log.trials) == log.stats["faults"][NAN]


class TestWorkflowResilience:
    @pytest.fixture(scope="class")
    def cluster(self):
        return SimCluster.build("summit_era", 4)

    def test_training_job_with_faults(self, data, cluster, tmp_path):
        from repro.workflow import run_training_job

        x, y = data
        model = small_model()
        faults = FaultSchedule(entries={("step", 0, 4): CRASH, ("grad", 2): NAN})
        rep = run_training_job(
            model, x, y, cluster, epochs=2, batch_size=16, loss="cross_entropy",
            faults=faults, checkpoint_dir=tmp_path,
        )
        r = rep.resilience
        assert r is not None
        # The crash rewinds past step 2, and its replay meets step 2's NaN
        # again: a fault belongs to its unit of work, as the
        # uninterrupted run with the same schedule would meet it.
        assert r.restarts == 1 and r.nan_updates_skipped == r.faults[NAN] == 2
        assert r.checkpoints_written > 0
        assert rep.sim_total_time == pytest.approx(r.sim_total_time)
        assert rep.energy_joules > 0
        assert 0.0 < r.measured_efficiency <= 1.0

    def test_plain_training_job_has_no_resilience(self, data, cluster):
        from repro.workflow import run_training_job

        x, y = data
        rep = run_training_job(small_model(), x, y, cluster, epochs=1,
                               batch_size=32, loss="cross_entropy")
        assert rep.resilience is None

    def test_campaign_under_faults_completes_and_reports(self, tmp_path):
        from repro.hpo import Float, Int, SearchSpace
        from repro.workflow import run_campaign

        space = SearchSpace({
            "lr": Float(1e-4, 1e-2, log=True),
            "hidden1": Int(8, 32),
        })
        spec = crashes(6, crash=0.1, straggler=0.1, nan=0.05,
                       worker_loss_times=(3.0,), seed=7)
        rep = run_campaign(
            "p1b2", space, n_trials=8, n_workers=4, final_epochs=2,
            max_search_samples=120, faults=spec, seed=1, checkpoint_dir=tmp_path,
        )
        r = rep.resilience
        assert r is not None
        assert r.total_faults() > 0
        assert r.restarts >= 1  # the explicit crash in final training
        assert np.isfinite(rep.final_metric)
        assert "resilience[" in rep.summary()
        # Determinism: the same fault seed reproduces the same ledger.
        rep2 = run_campaign(
            "p1b2", space, n_trials=8, n_workers=4, final_epochs=2,
            max_search_samples=120, faults=spec, seed=1,
            checkpoint_dir=tmp_path / "again",
        )
        assert rep2.resilience.faults == r.faults
        assert rep2.final_metric == rep.final_metric

    def test_reduced_precision_composes_with_faults(self, data, cluster, tmp_path):
        """precision x faults: a bf16 campaign and an fp16 training job
        restart through their crash schedules and end bit-identical to
        the same call with nothing injected."""
        from repro.hpo import Float, Int, SearchSpace
        from repro.workflow import run_campaign, run_training_job

        space = SearchSpace({"lr": Float(1e-4, 1e-2, log=True), "hidden1": Int(8, 32)})
        published = {}
        for name, spec in (("faulty", crashes(3, 7)), ("clean", FaultSchedule())):
            store = ArtifactStore(tmp_path / name)
            rep = run_campaign(
                "p1b2", space, n_trials=4, n_workers=2, final_epochs=3, precision="bf16",
                max_search_samples=80, faults=spec, publish_to=store,
                checkpoint_dir=tmp_path / name / "ckpt",
            )
            published[name] = load_artifact(store.path_for(rep.published))[1]
            r = rep.resilience
            assert r.restarts == r.faults[CRASH] == len(spec.entries)
            assert r.checkpoints_written > 0 and r.snapshots_skipped == 0
        for a, b in zip(published["faulty"], published["clean"]):
            assert np.array_equal(a, b)

        x, y = data
        jobs = []
        for spec in (crashes(2, 9), FaultSchedule()):
            model = small_model()
            rep = run_training_job(model, x, y, cluster, precision="fp16", epochs=2,
                                   batch_size=16, loss="cross_entropy", faults=spec)
            jobs.append((model, rep))
        (faulty, faulty_rep), (clean, clean_rep) = jobs
        assert faulty_rep.resilience.restarts == 2 and clean_rep.resilience.restarts == 0
        assert faulty_rep.history.series("loss") == clean_rep.history.series("loss")
        assert faulty_rep.history.precision == clean_rep.history.precision
        assert_bit_identical(faulty, clean)

    def test_campaign_all_trials_lost_falls_back(self, tmp_path):
        from repro.hpo import Float, SearchSpace
        from repro.workflow import run_campaign

        space = SearchSpace({"lr": Float(1e-4, 1e-2, log=True)})
        # seed 0: every trial draws a NaN fault — the whole search is lost.
        spec = FaultSchedule(nan=0.97, seed=0)
        rep = run_campaign(
            "p1b2", space, n_trials=4, n_workers=2, final_epochs=1,
            max_search_samples=100, faults=spec, max_retries=0, seed=0,
            checkpoint_dir=tmp_path,
        )
        # Every trial died; the campaign still trained a fallback config.
        assert all(t.value == float("inf") for t in rep.search_log.trials)
        assert np.isfinite(rep.final_metric)
        assert "n/a" in rep.summary()


class TestDistributedResilience:
    @pytest.fixture(scope="class")
    def xy(self):
        d = make_tumor_expression(n_samples=120, n_genes=20, n_classes=4, seed=0)
        return d.x, d.y

    def test_sync_faultless_path_unchanged(self, xy):
        """faults=None must be numerically identical to the seed code."""
        from repro.nn import SGD
        from repro.parallel import fit_data_parallel

        x, y = xy
        a, b = (fit_data_parallel(small_model(), x, y, world=3, backend="serial", batch_size=48,
                                  drop_last=True, optimizer_factory=lambda p: SGD(p, lr=1e-2),
                                  epochs=2, loss="cross_entropy", seed=5) for _ in range(2))
        assert a.epoch_losses == b.epoch_losses

    def test_async_poisoned_gradients_dropped(self, xy):
        from repro.workflow import train_async_sgd

        x, y = xy
        res = train_async_sgd(small_model(), x, y, n_workers=2, staleness=1, epochs=2,
                              loss="cross_entropy", faults=FaultSchedule(nan=0.2, seed=3))
        assert res.dropped_updates > 0
        assert all(np.isfinite(v) for v in res.epoch_losses)
