"""Tests for reduced-precision emulation (repro.precision)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dense, Sequential
from repro.parallel.allreduce import encode_wire
from repro.precision import (
    FORMATS,
    INT8_LEVELS,
    LossScaler,
    PrecisionPolicy,
    QuantParams,
    calibrate,
    get_rounder,
    train_with_policy,
)

RNG = np.random.default_rng(5)
round_fp32, round_fp16, round_bf16, round_fp8_e4m3 = (
    get_rounder(f) for f in ("fp32", "fp16", "bf16", "fp8_e4m3"))
#: The production AMP recipe: gains and biases at fp32, the rest narrow.
AMP_OVERRIDES = {"gamma": "fp32", "beta": "fp32", ".b": "fp32"}


class TestRounders:
    def test_fp64_identity(self):
        x = RNG.standard_normal(100)
        assert np.array_equal(get_rounder("fp64")(x), x)

    def test_fp32_error_bound(self):
        x = RNG.standard_normal(1000)
        err = np.abs(round_fp32(x) - x)
        assert err.max() <= np.abs(x).max() * np.finfo(np.float32).eps

    def test_fp16_error_bound(self):
        x = RNG.standard_normal(1000)
        err = np.abs(round_fp16(x) - x)
        assert err.max() <= np.abs(x).max() * 2 ** -10

    def test_fp16_overflow_saturates_to_inf(self):
        assert np.isinf(round_fp16(np.array([1e6]))[0])

    def test_bf16_wider_range_than_fp16(self):
        big = np.array([1e20])
        assert np.isfinite(round_bf16(big)[0])
        assert np.isinf(round_fp16(big)[0])

    def test_bf16_coarser_than_fp16(self):
        x = RNG.standard_normal(10000)
        assert np.abs(round_bf16(x) - x).mean() > np.abs(round_fp16(x) - x).mean()

    def test_bf16_idempotent(self):
        x = RNG.standard_normal(500)
        once = round_bf16(x)
        assert np.array_equal(round_bf16(once), once)

    def test_bf16_preserves_powers_of_two(self):
        x = np.array([1.0, 2.0, 0.5, -4.0, 1024.0])
        assert np.array_equal(round_bf16(x), x)

    def test_fp8_saturates(self):
        assert round_fp8_e4m3(np.array([1000.0]))[0] == 448.0
        assert round_fp8_e4m3(np.array([-1000.0]))[0] == -448.0

    def test_fp8_idempotent(self):
        x = RNG.standard_normal(500)
        once = round_fp8_e4m3(x)
        assert np.allclose(round_fp8_e4m3(once), once)

    def test_fp8_preserves_zero(self):
        assert round_fp8_e4m3(np.array([0.0]))[0] == 0.0

    def test_fp8_relative_error_bound(self):
        x = np.abs(RNG.standard_normal(1000)) + 0.1
        rel = np.abs(round_fp8_e4m3(x) - x) / x
        assert rel.max() <= 2.0 ** -4 + 1e-12  # half ulp of a 3-bit mantissa

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            get_rounder("fp128")

    @given(st.floats(-1e3, 1e3, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_rounding_monotone_property(self, v):
        """Rounding never crosses: round(x) within one format-ulp of x."""
        x = np.array([v])
        subnormal_step = {"fp32": 2.0 ** -149, "fp16": 2.0 ** -24, "bf16": 2.0 ** -133}
        for fmt in ("fp32", "fp16", "bf16"):
            r = get_rounder(fmt)(x)[0]
            if np.isfinite(r):
                # Relative bound in the normal range; absolute spacing bound
                # in the subnormal range.
                tol = max(abs(v) * FORMATS[fmt].eps, subnormal_step[fmt])
                assert abs(r - v) <= tol + 1e-30


#: Values every grid must agree on: signed zeros, infinities, NaN, float32
#: and float16 subnormals, fp16/fp8 overflow and bf16 round-half-even ties.
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0 + 2.0 ** -8, 1.0 + 3 * 2.0 ** -8,
         -(1.0 + 2.0 ** -8), 65504.0, 65520.0, 1e5, 448.0, 464.0, -1e20, 2.0 ** -6,
         2.0 ** -10, 2.0 ** -24, 2.0 ** -25, 2.0 ** -126, 2.0 ** -133, 2.0 ** -149, 1e-300]


class TestOneGrid:
    """Emulation, autocast and the bf16 wire read one grid per format."""

    @given(st.sampled_from([np.float64, np.float32, np.float16]),
           st.lists(st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True)),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_rounders_are_the_snap_widened_and_the_wire_is_its_upper_half(self, dtype, values):
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.array(values, dtype=np.float64).astype(dtype)
            for name, fmt in FORMATS.items():
                want = fmt.snap(x).astype(np.float64)
                got = get_rounder(name)(x)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), name
            if dtype != np.float16:
                wire = np.empty(x.shape, dtype=np.uint16)
                encode_wire(x, "bf16", wire)
                upper = (FORMATS["bf16"].snap(x).view(np.uint32) >> 16).astype(np.uint16)
                assert wire.tobytes() == upper.tobytes()


class TestInt8Quantization:
    def test_roundtrip_error_bound(self):
        x = RNG.standard_normal(1000)
        qp = calibrate(x, "minmax")
        err = np.abs(qp.fake_quantize(x) - x)
        assert err.max() <= qp.scale / 2 + 1e-12

    def test_quantize_range(self):
        x = RNG.standard_normal(1000) * 10
        q = calibrate(x).quantize(x)
        assert q.min() >= -INT8_LEVELS and q.max() <= INT8_LEVELS

    def test_percentile_gives_finer_bulk_resolution(self):
        bulk = RNG.standard_normal(10000)
        x = np.concatenate([bulk, [1000.0]])
        err_minmax = np.abs(calibrate(x, "minmax").fake_quantize(bulk) - bulk).mean()
        err_pct = np.abs(calibrate(x, "percentile").fake_quantize(bulk) - bulk).mean()
        assert err_pct < err_minmax / 10  # outlier-robust scale is much finer

    def test_zero_tensor_raises(self):
        # Any scale for an all-zero tensor is degenerate; callers skip
        # quantization instead (zeros are representable at every scale).
        with pytest.raises(ValueError, match="all-zero"):
            calibrate(np.zeros(10))

    def test_percentile_needs_resolution(self):
        # 10 elements cannot resolve a 99.9th-percentile tail.
        with pytest.raises(ValueError, match="resolve"):
            calibrate(np.ones(10), method="percentile", percentile=99.9)
        # ...but can resolve a coarse one.
        qp = calibrate(np.ones(10), method="percentile", percentile=90.0)
        assert qp.scale > 0

    def test_percentile_zero_amax_raises(self):
        # >99.9% zeros: the percentile lands on 0 while signal exists.
        x = np.zeros(100_000)
        x[0] = 5.0
        with pytest.raises(ValueError, match="saturate"):
            calibrate(x, method="percentile", percentile=99.9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            calibrate(np.array([]))

    def test_bad_method_raises(self):
        with pytest.raises(ValueError):
            calibrate(np.ones(3), method="magic")

    def test_bad_percentile_raises(self):
        with pytest.raises(ValueError):
            calibrate(np.ones(3), method="percentile", percentile=0)

    def test_fake_quant_idempotent(self):
        x = RNG.standard_normal(100)
        qp = calibrate(x)
        once = qp.fake_quantize(x)
        assert np.allclose(qp.fake_quantize(once), once)

    @given(st.integers(1, 1000))
    @settings(max_examples=30, deadline=None)
    def test_dequantize_quantize_identity_on_grid(self, seed):
        """Property: values already on the int8 grid survive a round trip."""
        rng = np.random.default_rng(seed)
        qp = QuantParams(scale=0.01)
        levels = rng.integers(-127, 128, size=50).astype(np.int8)
        x = qp.dequantize(levels)
        assert np.array_equal(qp.quantize(x), levels)


class TestLossScaler:
    def test_grows_after_interval(self):
        s = LossScaler(scale=2.0, growth_interval=3)
        for _ in range(3):
            assert s.check_and_update([np.ones(2)])
        assert s.scale == 4.0

    def test_backoff_on_overflow(self):
        s = LossScaler(scale=8.0)
        ok = s.check_and_update([np.array([np.inf])])
        assert not ok
        assert s.scale == 4.0
        assert s.overflows == 1

    def test_nan_detected(self):
        s = LossScaler(scale=8.0)
        assert not s.check_and_update([np.array([np.nan])])

    def test_respects_max_scale(self):
        s = LossScaler(scale=2.0 ** 24, growth_interval=1, max_scale=2.0 ** 24)
        s.check_and_update([np.ones(1)])
        assert s.scale == 2.0 ** 24

    def test_respects_min_scale(self):
        s = LossScaler(scale=1.0, min_scale=1.0)
        s.check_and_update([np.array([np.inf])])
        assert s.scale == 1.0

    def test_overflow_resets_growth_counter(self):
        s = LossScaler(scale=4.0, growth_interval=2)
        s.check_and_update([np.ones(1)])
        s.check_and_update([np.array([np.inf])])
        s.check_and_update([np.ones(1)])
        assert s.scale == 2.0  # halved once, no growth yet


def _toy_problem(n=150, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = np.tanh(x @ w).reshape(-1, 1)
    return x, y


class TestPrecisionPolicy:
    @pytest.mark.parametrize("fmt", ["fp32", "fp16", "bf16"])
    def test_training_converges(self, fmt):
        x, y = _toy_problem()
        model = Sequential([Dense(16, activation="tanh"), Dense(1)])
        losses = train_with_policy(model, x, y, PrecisionPolicy(fmt), epochs=15, lr=1e-2, seed=0)
        assert losses[-1] < losses[0] * 0.5

    def test_fp16_close_to_fp64(self):
        x, y = _toy_problem()
        finals = {}
        for fmt in ("fp64", "fp16"):
            model = Sequential([Dense(16, activation="tanh"), Dense(1)])
            losses = train_with_policy(model, x, y, PrecisionPolicy(fmt), epochs=20, lr=1e-2, seed=0)
            finals[fmt] = losses[-1]
        assert finals["fp16"] < finals["fp64"] * 3 + 0.01

    def test_weights_end_up_in_format(self):
        x, y = _toy_problem(n=60)
        model = Sequential([Dense(4), Dense(1)])
        train_with_policy(model, x, y, PrecisionPolicy("fp16"), epochs=2, seed=0)
        for w in model.get_weights():
            assert np.array_equal(w.astype(np.float16).astype(np.float64), w)

    def test_loss_scaling_default_on_for_fp16(self):
        assert PrecisionPolicy("fp16").scaler is not None
        assert PrecisionPolicy("fp32").scaler is None

    def test_int8_policy_runs(self):
        x, y = _toy_problem(n=80)
        model = Sequential([Dense(8, activation="tanh"), Dense(1)])
        losses = train_with_policy(model, x, y, PrecisionPolicy("int8"), epochs=10, lr=1e-2, seed=0)
        assert np.all(np.isfinite(losses))

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            PrecisionPolicy("fp4")

    def test_round_array_int8(self):
        p = PrecisionPolicy("int8")
        x = RNG.standard_normal(100)
        out = p.round_array(x)
        assert len(np.unique(out)) <= 2 * INT8_LEVELS + 1


class TestLayerwisePolicy:
    def test_overrides_keep_named_params_at_fp32(self):
        from repro.nn import BatchNorm, Dense, Sequential

        x, y = _toy_problem(n=80)
        model = Sequential([Dense(8, activation=None), BatchNorm(), Dense(1)])
        policy = PrecisionPolicy("fp16", overrides=AMP_OVERRIDES)
        train_with_policy(model, x, y, policy, epochs=2, lr=1e-3, seed=0)
        for p in model.parameters():
            name = p.name or ""
            as_fp16 = np.array_equal(p.data.astype(np.float16).astype(np.float64), p.data)
            if "gamma" in name or "beta" in name or ".b" in name:
                # fp32-representable (maybe finer than fp16's grid).
                assert np.array_equal(p.data.astype(np.float32).astype(np.float64), p.data)
            else:
                assert as_fp16, f"{name} should be fp16"

    def test_training_converges(self):
        from repro.nn import Dense, Sequential

        x, y = _toy_problem()
        model = Sequential([Dense(16, activation="tanh"), Dense(1)])
        losses = train_with_policy(model, x, y, PrecisionPolicy("fp16", overrides=AMP_OVERRIDES),
                                   epochs=15, lr=1e-2, seed=0)
        assert losses[-1] < losses[0] * 0.5

    def test_matches_base_policy_when_no_overrides(self):
        from repro.nn import Dense, Sequential

        x, y = _toy_problem(n=60)
        m1 = Sequential([Dense(8), Dense(1)])
        l1 = train_with_policy(m1, x, y, PrecisionPolicy("fp16"), epochs=3, seed=0)
        m2 = Sequential([Dense(8), Dense(1)])
        policy = PrecisionPolicy("fp16", overrides={})
        assert policy.overrides == {}, "an empty map is a map, not 'use the default'"
        l2 = train_with_policy(m2, x, y, policy, epochs=3, seed=0)
        assert l1 == l2

    def test_bad_override_format_raises(self):
        with pytest.raises(ValueError):
            PrecisionPolicy("fp16", overrides={"gamma": "fp999"})
