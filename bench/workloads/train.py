"""``train_mlp`` and ``train_cnn``: single-process ``Model.fit``.

``train_mlp`` (P1B1 autoencoder, ~116k parameters, ~2 ms steps on small
GEMMs) is the workload on which tape and Python overhead carry a large
share of the step; ``train_cnn`` (imaging Conv2D classifier, ~7 ms
steps) is its mirror image, dominated by im2col + GEMM kernels with a
data generator that is a visible part of time-to-solution.  A change to
the executor should move the first and not the second; a conv kernel
change the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.candle.registry import REGISTRY
from repro.datasets import make_autoencoder_expression, make_tumor_images
from repro.nn import Adam, Conv2D, DataLoader, Dense, Tensor, losses
from repro.obs import TraceRecorder

from ..common import Context, Outcome, Segment, SpeedProbe, clock, median, timed_setups

BATCH = 32


@dataclass(frozen=True)
class TrainSpec:
    benchmark: str
    n_train: int
    n_val: int
    block_epochs: int      # epochs per fit call = one throughput segment
    target: float          # val loss that counts as "solved"
    epoch_cap: int         # the target must be reached within this many
    step_limit_ms: float   # a step slower than this misses the limit
    probe_epoch: int       # val loss after this epoch goes into the record
    setups: int            # set-ups per run (data generation makes the CNN's slow)


MLP = TrainSpec("p1b1", 2048, 512, 2, target=0.265, epoch_cap=40,
                step_limit_ms=10.0, probe_epoch=10, setups=7)
CNN = TrainSpec("imaging", 512, 128, 2, target=0.05, epoch_cap=60,
                step_limit_ms=30.0, probe_epoch=10, setups=3)


def _make_data(spec: TrainSpec, seed: int):
    n = spec.n_train + spec.n_val
    if spec.benchmark == "p1b1":
        x, _ = make_autoencoder_expression(n_samples=n, n_genes=200, latent_dim=10, seed=seed)
        y = None
    else:
        ds = make_tumor_images(n_samples=n, size=16, equal_density=True,
                               standardize=True, seed=seed)
        x, y = ds.x, ds.y
    k = spec.n_train
    return x[:k], (None if y is None else y[:k]), x[k:], (None if y is None else y[k:])


def _setup(spec: TrainSpec, ctx: Context):
    """Data generation, model build and a two-step warm-up fit."""
    bench = REGISTRY[spec.benchmark]
    with ctx.tracer.span("datasets.make"):
        data = _make_data(spec, ctx.seed)
    with ctx.tracer.span("candle.build"):
        model = bench.build_model()
        model.build(data[0].shape[1:], np.random.default_rng(ctx.seed))
        opt = Adam(model.parameters(), lr=1e-3)
    with ctx.tracer.span("nn.warmup"):
        xw = data[0][: 2 * BATCH]
        yw = None if data[1] is None else data[1][: 2 * BATCH]
        model.fit(xw, yw, epochs=1, batch_size=BATCH, loss=bench.loss,
                  optimizer=opt, seed=ctx.seed)
    return model, opt, data


class _FitLog:
    """Per-step timestamps and losses from the public ``step_hook``, plus
    one :class:`Segment` per ``fit`` call and per-epoch validation losses."""

    def __init__(self, steps_per_epoch: int) -> None:
        self.steps_per_epoch = steps_per_epoch
        self.stamps: List[float] = []
        self.losses: List[float] = []
        self.segments: List[Segment] = []
        self.val_losses: List[float] = []

    def hook(self, step: int, loss: float) -> None:
        self.stamps.append(clock())
        self.losses.append(loss)

    def step_times(self, first_step: int = 0) -> np.ndarray:
        """Gaps between consecutive steps of one epoch; the gap across an
        epoch boundary holds the validation pass and is left out."""
        stamps = np.asarray(self.stamps[first_step:])
        keep = (np.arange(1, len(stamps)) % self.steps_per_epoch) != 0
        return np.diff(stamps)[keep]


def _fit_blocks(model, opt, data, spec: TrainSpec, log: _FitLog, seed: int,
                seconds: float, probe: Optional[SpeedProbe] = None,
                min_epochs: int = 0, stop_at_target: bool = False) -> None:
    """Call ``Model.fit`` in blocks of ``block_epochs`` until the window
    closes and ``min_epochs`` are done, or until the target is reached."""
    x_tr, y_tr, x_va, y_va = data
    loss = REGISTRY[spec.benchmark].loss
    t_end = clock() + seconds
    while True:
        done = len(log.val_losses)
        if stop_at_target:
            if done >= spec.epoch_cap or (done and min(log.val_losses) <= spec.target):
                return
        elif clock() >= t_end and done >= min_epochs:
            return
        first_step = len(log.stamps)
        t0 = clock()
        hist = model.fit(
            x_tr, y_tr, epochs=spec.block_epochs, batch_size=BATCH, loss=loss,
            optimizer=opt, validation_data=(x_va, y_va),
            seed=seed * 1000 + done // spec.block_epochs, step_hook=log.hook,
        )
        wall = clock() - t0
        log.val_losses.extend(hist.series("val_loss"))
        if probe is not None:
            log.segments.append(Segment(
                ops=spec.block_epochs * spec.n_train, seconds=wall,
                latencies=log.step_times(first_step), speed=probe.tick(),
            ))


def _traced_epochs(model, opt, data, spec: TrainSpec, ctx: Context, seconds: float):
    """Alternate one epoch through ``Model.fit`` with one epoch of the same
    step assembled by hand from the public parts, one span per part, so
    both see the same machine state.  Returns the fit step time in ms and
    the samples per second of the fit epochs and of the traced epochs."""
    x_tr, y_tr, x_va, y_va = data
    bench = REGISTRY[spec.benchmark]
    loss_fn = losses.get(bench.loss)
    loader = DataLoader(x_tr, y_tr, batch_size=BATCH, shuffle=True, seed=ctx.seed + 7)
    span = ctx.tracer.span
    log = _FitLog(spec.n_train // BATCH)
    fit_s = hand_s = 0.0
    epochs = 0
    t_end = clock() + seconds
    with span("bench.train"):
        while clock() < t_end:
            t0 = clock()
            with span("bench.fit_reference"):
                model.fit(x_tr, y_tr, epochs=1, batch_size=BATCH, loss=bench.loss,
                          optimizer=opt, validation_data=(x_va, y_va),
                          seed=ctx.seed + epochs, step_hook=log.hook)
            t1 = clock()
            batches = iter(loader)
            while True:
                with span("nn.data"):
                    batch = next(batches, None)
                if batch is None:
                    break
                xb, yb = batch
                with span("nn.forward"):
                    pred = model.forward(Tensor(xb), training=True)
                with span("nn.loss"):
                    loss = loss_fn(pred, xb if yb is None else yb)
                with span("nn.backward"):
                    loss.backward()
                with span("nn.optim"):
                    opt.step()
                    opt.zero_grad()
            with span("nn.eval"):
                model.evaluate(x_va, y_va, loss=loss_fn, batch_size=BATCH)
            fit_s += t1 - t0
            hand_s += clock() - t1
            epochs += 1
    samples = epochs * spec.n_train
    return median(log.step_times()) * 1e3, samples / fit_s, samples / hand_s


# ----------------------------------------------------------------------
# Raw-array kernels of one step (no tape, no layers)
# ----------------------------------------------------------------------
def _step_gemms(model, input_shape: Tuple[int, ...]) -> List[Tuple[int, int, int]]:
    """(m, k, n) of every GEMM one train step runs: forward, weight
    gradient and input gradient of each Dense and (im2col) Conv2D."""
    shapes: List[Tuple[int, int, int]] = []
    shape = tuple(input_shape)
    for layer in model.layers:
        if isinstance(layer, Dense):
            m, k, n = BATCH, shape[-1], layer.units
        elif isinstance(layer, Conv2D):
            out = layer.output_shape(shape)
            m, k, n = layer.filters, shape[0] * layer.kernel_size ** 2, BATCH * out[1] * out[2]
        else:
            shape = layer.output_shape(shape)
            continue
        shapes += [(m, k, n), (m, n, k), (k, m, n)]
        shape = layer.output_shape(shape)
    return shapes


def _kernel_ms(shapes, seed: int, reps: int = 200) -> float:
    rng = np.random.default_rng(seed)
    pairs = [(rng.standard_normal((m, k)), rng.standard_normal((k, n))) for m, k, n in shapes]
    samples = []
    for _ in range(reps):
        t0 = clock()
        for a, b in pairs:
            a @ b
        samples.append(clock() - t0)
    return median(samples) * 1e3


# ----------------------------------------------------------------------
# Side measurements reported on the traced pass of train_mlp
# ----------------------------------------------------------------------
def _short_fit_step_ms(spec: TrainSpec, data, seed: int, precision=None,
                       recorder: Optional[TraceRecorder] = None) -> float:
    bench = REGISTRY[spec.benchmark]
    model = bench.build_model()
    log = _FitLog(spec.n_train // BATCH)

    def fit():
        model.fit(data[0], data[1], epochs=3, batch_size=BATCH, loss=bench.loss,
                  seed=seed, step_hook=log.hook, precision=precision)

    if recorder is None:
        fit()
    else:
        with recorder:
            fit()
    return median(log.step_times(first_step=log.steps_per_epoch)) * 1e3


def _side_measurements(spec: TrainSpec, data, seed: int) -> Dict[str, float]:
    fp32 = _short_fit_step_ms(spec, data, seed, precision="fp32")
    bf16 = _short_fit_step_ms(spec, data, seed, precision="bf16")
    detached, attached = [], []
    for _ in range(3):
        detached.append(_short_fit_step_ms(spec, data, seed))
        attached.append(_short_fit_step_ms(spec, data, seed, recorder=TraceRecorder()))
    return {
        "precision.fit_fp32_step_ms": fp32,
        "precision.fit_bf16_step_ms": bf16,
        "obs.attached_step_overhead_share": median(attached) / median(detached) - 1.0,
    }


# ----------------------------------------------------------------------
def run(spec: TrainSpec, ctx: Context) -> Outcome:
    probe = SpeedProbe(ctx.tracer)
    (model, opt, data), setups = timed_setups(probe, spec.setups, lambda i: _setup(spec, ctx))

    steps_per_epoch = spec.n_train // BATCH
    log = _FitLog(steps_per_epoch)
    t_start = clock()
    _fit_blocks(model, opt, data, spec, log, ctx.seed, ctx.plain_seconds,
                probe=probe, min_epochs=spec.probe_epoch)

    # The target is a property of the seed, not of the machine's speed:
    # keep fitting past the window until it is crossed or the cap is hit.
    _fit_blocks(model, opt, data, spec, log, ctx.seed, 0.0, stop_at_target=True)
    hits = [i for i, v in enumerate(log.val_losses) if v <= spec.target]
    reached = hits[0] + 1 if hits else None

    finite = int(np.isfinite(log.losses).sum())
    failed = (len(log.losses) - finite) + (reached is None)
    attempted = len(log.losses) + 1
    notes: Dict[str, object] = {
        "epochs_timed": len(log.segments) * spec.block_epochs,
        f"val_loss_epoch_{spec.probe_epoch}": log.val_losses[spec.probe_epoch - 1],
        "epochs_to_target": reached,
    }
    layers: Dict[str, float] = {}
    if reached is not None:
        t_hit = log.stamps[reached * steps_per_epoch - 1]
        notes["time_to_target_s"] = setups[-1][0] + (t_hit - t_start)
        layers["nn.time_to_target_s"] = notes["time_to_target_s"]
        layers["nn.epochs_to_target"] = float(reached)

    if ctx.traced:
        step_ms, fit_rate, traced_rate = _traced_epochs(
            model, opt, data, spec, ctx, ctx.traced_seconds)
        tr = ctx.tracer
        parts = {name: median(tr.durations(f"nn.{name}")) * 1e3
                 for name in ("data", "forward", "loss", "backward", "optim")}
        gemms = _step_gemms(model, data[0].shape[1:])
        kernel = _kernel_ms(gemms, ctx.seed)
        layers.update({f"nn.{k}_ms": v for k, v in parts.items()})
        layers.update({
            "nn.fit_overhead_ms": step_ms - sum(parts.values()),
            "nn.kernel_ms": kernel,
            "nn.tape_overhead_share": 1.0 - kernel / (parts["forward"] + parts["backward"]),
            "nn.step_gflop": sum(2.0 * m * k * n for m, k, n in gemms) / 1e9,
            "nn.eval_ms": median(tr.durations("nn.eval")) * 1e3,
            "datasets.make_s": median(tr.durations("datasets.make")),
            "candle.build_s": median(tr.durations("candle.build")),
            "obs.trace_overhead_share": 1.0 - traced_rate / fit_rate,
            "obs.coverage_share": tr.coverage("bench.train"),
        })
        if spec is MLP:
            layers.update(_side_measurements(spec, data, ctx.seed))

    return Outcome(
        setups=setups,
        segments=log.segments,
        limit_ms=spec.step_limit_ms,
        attempted=attempted,
        failed=failed,
        checks={"losses_finite": finite == len(log.losses),
                "target_reached": reached is not None},
        layers=layers,
        notes=notes,
    )


def run_mlp(ctx: Context) -> Outcome:
    return run(MLP, ctx)


def run_cnn(ctx: Context) -> Outcome:
    return run(CNN, ctx)
