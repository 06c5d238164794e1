"""Model containers and the training loop.

:class:`Sequential` mirrors the Keras idiom the original CANDLE benchmark
definitions use (stacked layers, deferred build, ``fit``/``evaluate``),
while :class:`Model` is the escape hatch for custom topologies (multitask
heads, VAEs).
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import amp
from . import losses as losses_mod
from . import metrics as metrics_mod
from ..obs.context import get_recorder
from ..obs.trace import maybe_span
from .dataloader import DataLoader, train_val_split
from .layers import Layer
from .optim import Adam, Optimizer
from .tensor import GradArena, Tensor, no_grad


class History:
    """Per-epoch training record returned by :meth:`Model.fit`."""

    def __init__(self) -> None:
        self.epochs: List[Dict[str, float]] = []

    def append(self, **kwargs: float) -> None:
        self.epochs.append(dict(kwargs))

    def series(self, key: str) -> List[float]:
        return [e[key] for e in self.epochs if key in e]

    def best(self, key: str, mode: str = "min") -> float:
        values = self.series(key)
        if not values:
            raise KeyError(f"no values recorded for {key!r}")
        return min(values) if mode == "min" else max(values)

    def __len__(self) -> int:
        return len(self.epochs)


class Model:
    """Base class: override :meth:`forward`; parameters are discovered from
    ``self.layers`` (a list) or by overriding :meth:`parameters`."""

    def __init__(self) -> None:
        self.layers: List[Layer] = []
        self.built = False
        self._int8_plan = None

    # -- construction ---------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        shape = tuple(input_shape)
        for layer in self.layers:
            if not layer.built:
                layer.build(shape, rng)
            shape = layer.output_shape(shape)
        self.built = True

    def parameters(self) -> Iterator[Tensor]:
        for layer in self.layers:
            yield from layer.parameters()

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def buffers(self) -> Iterator[np.ndarray]:
        """Layer state that is not a parameter (see :meth:`Layer.buffer_names`)."""
        for layer in self.layers:
            for attr in layer.buffer_names():
                yield getattr(layer, attr)

    def get_weights(self) -> List[np.ndarray]:
        """Copies of everything a trained model is: the parameters, then
        the layer buffers."""
        return [p.data.copy() for p in self.parameters()] + [b.copy() for b in self.buffers()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        named = [(p.name or "param", p.data) for p in self.parameters()]
        named += [("buffer", b) for b in self.buffers()]
        if len(named) != len(weights):
            raise ValueError(f"weight count mismatch: model has {len(named)}, got {len(weights)}")
        for (name, dst), w in zip(named, weights):
            if dst.shape != w.shape:
                raise ValueError(f"shape mismatch for {name}: {dst.shape} vs {w.shape}")
            dst[...] = w

    def layer_rng_states(self) -> Dict[str, dict]:
        """:meth:`Layer.rng_state` of every layer that has one, keyed by
        layer index (as a string: it goes into JSON snapshot headers)."""
        states = {str(i): layer.rng_state() for i, layer in enumerate(self.layers)}
        return {i: state for i, state in states.items() if state is not None}

    def set_layer_rng_states(self, states: Dict[str, dict]) -> None:
        for i, state in states.items():
            self.layers[int(i)].set_rng_state(state)

    # -- forward ----------------------------------------------------------
    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        out = x
        for layer in self.layers:
            out = layer(out, training=training)
        return out

    def __call__(self, x, training: bool = True) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x))
        return self.forward(x, training=training)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape for a given per-sample input shape.

        Follows the layer chain's ``output_shape`` declarations; custom
        models without a ``self.layers`` stack must override this (or
        support zero-length batches in ``forward``).
        """
        shape = tuple(input_shape)
        if not self.layers:
            raise NotImplementedError("override output_shape for custom topologies")
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def _empty_output(self, x: np.ndarray) -> np.ndarray:
        """Correctly-shaped empty prediction for a zero-length input.

        Shape comes from the layer chain when possible; strided kernels
        (conv im2col) reject zero-length batches, so an empty forward
        pass is only the fallback for custom topologies.
        """
        try:
            shape = self.output_shape(np.asarray(x).shape[1:])
        except NotImplementedError:
            return self._infer(np.asarray(x))
        return np.zeros((0,) + shape)

    def _infer(self, xb: np.ndarray) -> np.ndarray:
        """The grad-free eval forward of one batch, as ``predict``,
        ``evaluate`` and ``_empty_output`` run it.

        A plain stack of layers that all have ``infer`` (Dense with a
        fused or no activation, Dropout) on a 2-D batch runs as array
        calls through the kernels the tape nodes call.  Whatever the code
        can see that would make that differ from the eager forward sends
        the batch through the tape under ``no_grad`` instead, which stays
        the reference: another input rank (Dense on (N, T, F) is the
        unfused composition), an overridden or instance-replaced
        ``forward``, an active ``ops=True`` recorder (it must time every
        op) or an active ``amp`` autocast plan.  Weights are read from the
        layers on every call; nothing is cached on the model.
        """
        rec = get_recorder()
        if (
            xb.ndim == 2
            and getattr(self.forward, "__func__", None) is Model.forward
            and (rec is None or not rec.ops)
            and amp.active() is None
        ):
            steps = [layer.infer for layer in self.layers]
            if None not in steps:
                for step in steps:
                    xb = step(xb)
                return xb
        with no_grad():
            return self.forward(Tensor(xb), training=False).data

    def astype(self, dtype) -> "Model":
        """Cast all parameters (and layer buffers) to ``dtype`` in place.

        The deployment cast: train in fp64/fp32, then ``astype(np.float32)``
        before publishing.  Drops gradients and any attached int8 plan
        (quantization scales are computed from specific weight values).
        """
        dtype = np.dtype(dtype)
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
            p.grad = None
        for layer in self.layers:
            if getattr(layer, "dtype", None) is not None:
                layer.dtype = dtype
            for attr in layer.buffer_names():
                setattr(layer, attr, getattr(layer, attr).astype(dtype, copy=False))
        self._int8_plan = None
        return self

    def quantize_int8(self, x_calib: np.ndarray):
        """Calibrate an int8 inference plan from sample inputs.

        Attaches the plan (used by ``predict(precision="int8")`` and the
        serving tier) and returns it.  Requires a Dense/activation
        topology — see :class:`repro.precision.int8.Int8Plan`.
        """
        from ..precision.int8 import quantize_model  # lazy: precision imports nn

        self._int8_plan = quantize_model(self, x_calib)
        return self._int8_plan

    def predict(
        self, x: np.ndarray, batch_size: int = 256, precision: Optional[str] = None
    ) -> np.ndarray:
        """Batched, grad-free forward pass.

        ``precision`` selects the inference datapath: ``None``/"fp64" runs
        in the weights' native dtype; ``"fp32"`` requires float32 weights
        (cast once via :meth:`astype`) and float32-casts the input;
        ``"int8"`` runs the calibrated quantized plan from
        :meth:`quantize_int8`.  A zero-length input returns a
        correctly-shaped empty array (the serving layer drains queues
        that may be empty).  Each batch runs through :meth:`_infer`, so
        a Dense/Dropout stack pays for no graph; the result is a new
        array either way, bit-identical to the eager ``no_grad`` forward.
        """
        x = np.asarray(x)
        infer = self._infer
        if precision == "int8":
            plan = getattr(self, "_int8_plan", None)
            if plan is None:
                raise RuntimeError(
                    "predict(precision='int8') needs a calibrated plan; "
                    "call model.quantize_int8(x_calib) first"
                )
            if len(x) == 0:
                return self._empty_output(x).astype(np.float32)
            infer = plan.forward
        elif precision == "fp32":
            p0 = next(iter(self.parameters()), None)
            if p0 is not None and p0.data.dtype != np.float32:
                raise ValueError(
                    "predict(precision='fp32') requires float32 weights; cast once "
                    "with model.astype(np.float32) (fit(precision=...) already "
                    "leaves fp32 master weights)"
                )
            if x.dtype != np.float32:
                x = x.astype(np.float32)
        elif precision not in (None, "fp64"):
            raise ValueError(
                f"unknown predict precision {precision!r}; choose None/'fp64', 'fp32' or 'int8'"
            )
        if len(x) == 0:
            return self._empty_output(x)
        if len(x) > batch_size:
            return np.concatenate(
                [infer(x[start : start + batch_size]) for start in range(0, len(x), batch_size)],
                axis=0,
            )
        # One batch: its output is the result, copied only where it is the
        # input or a view that may overlap it (identity layers hand the
        # batch through; an array that owns its buffer and is not x cannot).
        out = infer(x)
        if out is x or (out.base is not None and np.may_share_memory(out, x)):
            return out.copy()
        return np.ascontiguousarray(out)

    # -- training ---------------------------------------------------------
    def fit(self, x: np.ndarray, y: Optional[np.ndarray], **options) -> History:
        """fit(x, y, epochs=10, batch_size=32, loss="mse", optimizer=None, lr=1e-3, ...)

        Train the model; returns a :class:`History`.  The keywords are
        :class:`FitLoop`'s (the typed signature and the defaults are
        there); this call is ``FitLoop(self, x, y, **options).run()``.

        ``loss`` is a name from :mod:`repro.nn.losses` or a callable
        ``(pred, target) -> scalar Tensor``.  For autoencoder-style models
        pass ``y=None`` and the input batch is used as the target.

        ``grad_accumulation > 1`` applies the optimizer only every k
        mini-batches, averaging the k gradients first — the standard way
        to train with an effective batch k times larger than fits in
        memory (equivalent in expectation to a k-times-larger batch).
        When the epoch's batch count is not a multiple of k, the trailing
        window is shorter; its gradients are averaged over the *actual*
        window length, so tail batches carry full weight.

        ``precision`` selects the training datapath: ``None``/"fp64" is
        the unchanged full-precision path; ``"fp32"``, ``"bf16"`` and
        ``"fp16"`` run the real reduced-precision datapath — fp32 master
        weights, narrow-storage fused kernels with fp32 accumulation
        (bf16/fp16 via :mod:`repro.nn.amp`), and automatic loss scaling
        for fp16 through :class:`repro.precision.LossScaler`.  The model
        (parameters and layer buffers) is cast to fp32 in place.  A
        :class:`repro.precision.PrecisionPolicy` object selects the
        *emulated* form of any format (fp8, int8, …): float64 storage, a
        rounded working copy inside forward/backward.
        Either way the controller's stats land on ``history.precision``.
        """
        return FitLoop(self, x, y, **options).run()

    def evaluate(
        self,
        x: np.ndarray,
        y: Optional[np.ndarray],
        loss: str | Callable = "mse",
        metrics: Sequence[str] = (),
        batch_size: int = 256,
    ) -> Dict[str, float]:
        """Grad-free loss (+ metrics) over a dataset.

        A zero-length dataset reports zero loss and NaN metrics rather
        than crashing on an empty concatenate.
        """
        loss_fn = losses_mod.get(loss) if isinstance(loss, str) else loss
        if len(x) == 0:
            out = {"loss": 0.0}
            out.update({name: float("nan") for name in metrics})
            return out
        total = 0.0
        count = 0
        preds = []
        with no_grad():
            for start in range(0, len(x), batch_size):
                xb = np.asarray(x[start : start + batch_size])
                target = xb if y is None else y[start : start + batch_size]
                pred = self._infer(xb)
                total += loss_fn(Tensor(pred), target).item() * len(xb)
                count += len(xb)
                preds.append(pred)
        out = {"loss": total / max(count, 1)}
        if metrics:
            pred_all = np.concatenate(preds, axis=0)
            target_all = x if y is None else y
            for name in metrics:
                out[name] = metrics_mod.get(name)(pred_all, np.asarray(target_all))
        return out

    def summary(self) -> str:
        """Human-readable layer table."""
        lines = [f"{type(self).__name__}: {self.param_count():,} parameters"]
        for layer in self.layers:
            lines.append(f"  {layer.name:<24} params={layer.param_count():,}")
        return "\n".join(lines)


class Sequential(Model):
    """Keras-style linear stack of layers."""

    def __init__(self, layers: Sequence[Layer] = ()) -> None:
        super().__init__()
        self.layers = list(layers)

    def add(self, layer: Layer) -> "Sequential":
        if self.built:
            raise RuntimeError("cannot add layers after the model is built")
        self.layers.append(layer)
        return self


def cast_for_fit(model: Model, precision) -> None:
    """``fit``'s precision cast of a built ``model``, in place: a format
    name other than ``"fp64"`` trains fp32 master weights, so parameters
    and layer buffers become float32 (a name ``fit`` cannot train in is
    refused first); ``None``, ``"fp64"`` and a rounding policy leave the
    model as it is.  :class:`FitLoop` casts through this, and so does
    ``fit_data_parallel`` before it sizes the weight slab its ranks share."""
    if isinstance(precision, str) and precision != "fp64":
        from ..precision.policy import train_format  # lazy: repro.precision imports repro.nn

        train_format(precision)
        model.astype(np.float32)


class FitLoop:
    """One :meth:`Model.fit` run: the library's only forward → loss →
    backward → window close → optimizer step over a dataset, resumable
    at any batch boundary.  The keywords are documented on ``fit``.

    What a run carries across a batch boundary is an attribute, so a
    snapshot can read and restore it: the ``epoch`` / ``batch`` /
    ``global_step`` cursor (``global_step`` counts batches), the epoch's
    ``perm`` (None between epochs), the shuffle ``rng``, ``epoch_sum``,
    ``last_loss``, the open window's length ``accum``, ``history``, the
    early-stopping ``best_val`` / ``patience_left`` / ``best_weights`` /
    ``stopped``, and the precision controller ``ctrl`` (a
    :class:`repro.precision.policy.StepController` or None).

    ``drivers`` (empty for ``Model.fit``) is an ordered tuple of plain
    objects with any of four boundaries, each taking the loop:
    ``before_batch(loop)``; ``batch_grads(loop, body, xb, yb, window)``,
    wrapping ``body`` (the step body :meth:`batch_grads` or the previous
    driver's wrapper); ``accept_update(loop) -> bool`` on a window's final
    gradients (unscaled, not yet clipped), asked in order until one says
    False, which drops the update; and ``cursor_moved(loop)`` after every
    batch and every epoch's row (``perm`` is None then).  A resilience
    snapshot also keeps a driver's ``state`` attribute.

    Gradients live in ``arena`` (a :class:`~repro.nn.tensor.GradArena`
    allocated after any precision cast): ``p.grad`` is a view of it while
    a window is open and None after ``zero_grad``.  A driver may set
    ``grad_ready``, the tape's per-parameter hook (data-parallel ranks do).
    """

    def __init__(
        self,
        model: Model,
        x: np.ndarray,
        y: Optional[np.ndarray],
        epochs: int = 10,
        batch_size: int = 32,
        loss: str | Callable = "mse",
        optimizer: Optional[Optimizer] = None,
        lr: float = 1e-3,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        validation_split: float = 0.0,
        metrics: Sequence[str] = (),
        seed: int = 0,
        verbose: bool = False,
        early_stopping_patience: Optional[int] = None,
        clip_norm: Optional[float] = None,
        step_hook: Optional[Callable[[int, float], None]] = None,
        grad_accumulation: int = 1,
        precision=None,
    ) -> None:
        if grad_accumulation < 1:
            raise ValueError("grad_accumulation must be >= 1")
        self.rng = rng = np.random.default_rng(seed)
        x = np.asarray(x)
        if validation_split > 0.0 and validation_data is None:
            x, y, x_val, y_val = train_val_split(x, y, val_frac=validation_split, rng=rng)
            validation_data = (x_val, y_val)
        if not model.built:
            model.build(x.shape[1:], rng)
        self.ctrl = None
        if precision is not None and precision != "fp64":
            if isinstance(precision, str):
                # Lazy import: repro.precision imports repro.nn at module scope.
                from ..precision.policy import FitPrecision

                self.ctrl = FitPrecision(precision, model.parameters())
            else:
                self.ctrl = precision.bind(model.parameters())
            cast_for_fit(model, precision)
            cast = self.ctrl.cast_array
            x, y = cast(x), None if y is None else cast(y)
            if validation_data is not None:
                validation_data = tuple(None if a is None else cast(a) for a in validation_data)
        self.model = model
        self.loss_fn = losses_mod.get(loss) if isinstance(loss, str) else loss
        # The optimizer is built after any precision cast so its scratch
        # buffers (Adam moments) match the fp32 master weights.
        self.opt = optimizer or Adam(model.parameters(), lr=lr)
        # The trailing slot carries the batch loss, so whoever reduces
        # the arena across ranks reduces the loss in the same exchange.
        self.arena = GradArena(model.parameters())
        self.grad_ready: Optional[Callable[[Tensor], None]] = None
        # The loop draws each epoch's permutation itself (so it can be
        # snapshotted); the loader only gathers batches.
        self.loader = DataLoader(x, y, batch_size=batch_size)
        self.epochs, self.validation_data, self.metrics = epochs, validation_data, metrics
        self.patience, self.clip_norm, self.step_hook = early_stopping_patience, clip_norm, step_hook
        self.grad_accumulation = grad_accumulation
        self.verbose = verbose

        self.epoch = self.batch = self.global_step = self.accum = 0
        self.perm: Optional[np.ndarray] = None
        self.epoch_sum = self.last_loss = 0.0
        self.history = History()
        self.best_val = np.inf
        self.best_weights: Optional[List[np.ndarray]] = None
        self.patience_left = early_stopping_patience
        self.stopped = False
        self.drivers: tuple = ()

    @property
    def finished(self) -> bool:
        """The run has nothing left to train: every epoch ran, or it stopped early."""
        return self.epoch >= self.epochs or self.stopped

    def batch_grads(self, xb: np.ndarray, yb: Optional[np.ndarray], window: int) -> None:
        """Forward → loss → backward of one batch of a ``window``-batch
        accumulation window: gradients into the arena, the loss into
        ``last_loss`` and — before backward, so a hook that ships arena
        slices ships it with the first — into the arena's last slot."""
        ctrl = self.ctrl
        with ctrl.cast() if ctrl is not None else contextlib.nullcontext():
            loss = self.loss_fn(self.model.forward(Tensor(xb), training=True), xb if yb is None else yb)
            # Held until the next batch's graph exists: freed any sooner,
            # the heap trims and every step page-faults its buffers back.
            self._graph = loss
            self.last_loss = self.arena.flat[-1] = loss.item()
            if ctrl is not None:
                # One seed folds loss scale and window average; grads
                # are unscaled at the window boundary.
                loss.backward(ctrl.seed(window, loss.data.dtype), self.grad_ready, self.arena)
            else:
                # Average (not sum) over the accumulation window.
                root = loss * (1.0 / window) if window > 1 else loss
                root.backward(None, self.grad_ready, self.arena)

    def _close_window(self, accepts) -> None:
        """Close one accumulation window: unscale/check (mixed precision),
        ask the drivers, clip, step, zero.  A non-finite window is dropped
        whole — the scaler has already halved, so the retry lands in range."""
        if (self.ctrl is None or self.ctrl.unscale_and_check()) and all(a(self) for a in accepts):
            if self.clip_norm is not None:
                self.opt.clip_grad_norm(self.clip_norm)
            self.opt.step()
        self.opt.zero_grad()
        self.accum = 0

    def run(self) -> History:
        """Train from the cursor to ``epochs`` (or early stop)."""
        model, opt, ctrl, loss_fn, loader = self.model, self.opt, self.ctrl, self.loss_fn, self.loader
        k, step_hook, history = self.grad_accumulation, self.step_hook, self.history
        # Resolved once: a run without drivers pays an empty loop, not a call.
        before, accepts, moved, wraps = (
            [getattr(d, name) for d in self.drivers if hasattr(d, name)]
            for name in ("before_batch", "accept_update", "cursor_moved", "batch_grads")
        )
        batch_grads = self.batch_grads
        for wrap in wraps:
            batch_grads = functools.partial(wrap, self, batch_grads)

        # Window lengths for gradient averaging: every full window has k
        # batches; the last window of the epoch may be shorter and must
        # average over its own length, not k.
        full_window_batches = (len(loader) // k) * k
        trailing_window = len(loader) - full_window_batches

        # Observability (repro.obs): one module-global read when detached;
        # when a recorder is attached, fit/epoch/step spans plus loss and
        # grad-norm gauges (gated <5% step overhead by bench_obs_overhead).
        # An exception (an injected crash) closes the open spans aborted.
        rec = get_recorder()
        if rec is not None:
            obs_params = list(model.parameters())
            # Resolved once: the registry lookups stay off the step path.
            obs_steps = rec.metrics.counter("fit.steps")
            obs_loss = rec.metrics.gauge("fit.loss")
            obs_grad_norm = rec.metrics.gauge("fit.grad_norm")

        with maybe_span(
            rec, "fit", "fit",
            epochs=self.epochs, batch_size=loader.batch_size, n_samples=loader.n_samples,
        ) as fit_span:
            while not self.finished:
                t0 = time.perf_counter()
                if self.perm is None:  # a resumed epoch keeps the order it was drawn with
                    self.perm = self.rng.permutation(loader.n_samples)
                opt.zero_grad()
                self.accum = 0
                if rec is not None:
                    epoch_id = rec.begin("epoch", kind="fit.epoch", epoch=self.epoch)
                for xb, yb in loader.batches(self.perm, self.batch):
                    for hook in before:
                        hook(self)
                    if rec is not None:
                        step_id = rec.begin("step", kind="fit.step")
                    window = (
                        trailing_window
                        if trailing_window and self.batch >= full_window_batches
                        else k
                    )
                    batch_grads(xb, yb, window)
                    loss_val = self.last_loss
                    if rec is not None:
                        # Grad norm must be read here: the window boundary
                        # below may step-and-zero the gradients.
                        grad_norm = math.sqrt(sum(
                            np.vdot(p.grad, p.grad)
                            for p in obs_params if p.grad is not None
                        )) / (ctrl.scale if ctrl is not None else 1.0)
                    self.accum += 1
                    if self.accum >= k:
                        self._close_window(accepts)
                    self.epoch_sum += loss_val
                    self.batch += 1
                    self.global_step += 1
                    if rec is not None:
                        obs_steps.inc()
                        obs_loss.set(loss_val)
                        obs_grad_norm.set(grad_norm)
                        rec.end(step_id, loss=loss_val, grad_norm=grad_norm)
                    if step_hook is not None:
                        step_hook(getattr(opt, "step_count", self.batch), loss_val)
                    for hook in moved:
                        hook(self)
                if self.accum > 0:  # flush a trailing partial window
                    self._close_window(accepts)
                record: Dict[str, float] = {
                    "loss": self.epoch_sum / max(self.batch, 1),
                    "time": time.perf_counter() - t0,
                }

                if self.validation_data is not None:
                    x_val, y_val = self.validation_data
                    val_metrics = model.evaluate(
                        x_val, y_val, loss=loss_fn, metrics=self.metrics, batch_size=loader.batch_size
                    )
                    record.update({f"val_{name}": v for name, v in val_metrics.items()})
                    if self.patience is not None:
                        if record["val_loss"] < self.best_val - 1e-12:
                            self.best_val = record["val_loss"]
                            self.best_weights = model.get_weights()
                            self.patience_left = self.patience
                        else:
                            self.patience_left -= 1
                            self.stopped = self.patience_left <= 0
                if rec is not None:
                    rec.end(epoch_id, **({"early_stopped": True} if self.stopped else {}), **record)
                history.append(**record)
                if self.verbose:
                    parts = " ".join(f"{name}={v:.4g}" for name, v in record.items())
                    print(f"epoch {self.epoch + 1}/{self.epochs}: {parts}")
                self.epoch += 1
                self.batch, self.perm, self.epoch_sum = 0, None, 0.0
                for hook in moved:
                    hook(self)

            self._graph = None  # its saved arrays may view shared memory (a DDP rank's weights)
            if self.best_weights is not None:
                model.set_weights(self.best_weights)
            if fit_span is not None:
                fit_span["attrs"]["epochs_run"] = len(history)
        if ctrl is not None:
            history.precision = ctrl.stats()
        return history
