"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the benchmark registry, machine catalog, and experiment index.
``train <benchmark>``
    Train a registry benchmark on synthetic data and print its metric.
``price <benchmark>``
    Price one training step of the benchmark on every catalog machine.
``experiments``
    Print how to regenerate the E1-E15 experiment tables.
``trace <trace.jsonl>``
    Validate and summarize a recorded trace: per-span-kind time breakdown,
    critical path, recorder overhead estimate; ``--chrome`` converts it
    to a Chrome trace-event file for chrome://tracing / Perfetto.
``registry <root> [name[@version]]``
    Browse a content-addressed model registry: list names and versions,
    show one artifact's manifest (benchmark, hparams, lineage, hash), or
    ``--verify`` its stored bytes against the content checksum.

Measurement lives outside the package: ``python3 bench/run.py`` (see
``bench/README.md``) is the repository's one benchmark.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _cmd_list(args: argparse.Namespace) -> int:
    from .candle.registry import REGISTRY
    from .hpc.hardware import MACHINES
    from .utils import format_table

    rows = [[name, spec.description, spec.loss, spec.metric] for name, spec in sorted(REGISTRY.items())]
    print("Benchmarks:")
    print(format_table(["name", "description", "loss", "metric"], rows))
    print("\nMachines:")
    rows = []
    for name, node in MACHINES.items():
        acc = node.accelerator
        precs = "/".join(sorted(acc.peak_flops))
        rows.append([name, acc.name, precs, f"{acc.mem_capacity / 1e9:.0f} GB", f"{node.nic_bandwidth / 1e9:.1f} GB/s"])
    print(format_table(["name", "accelerator", "precisions", "device mem", "NIC"], rows))
    return 0


def _benchmark(name: str):
    """The registry entry ``name``, or None after a ``FAIL:`` line."""
    from .candle.registry import get_benchmark

    try:
        return get_benchmark(name)
    except ValueError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return None


def _cmd_train(args: argparse.Namespace) -> int:
    from .nn import metrics as metrics_mod
    from .nn.dataloader import train_val_split

    spec = _benchmark(args.benchmark)
    if spec is None:
        return 1
    x, y = spec.make_data(seed=args.seed)
    rng = np.random.default_rng(args.seed)
    x_tr, y_tr, x_va, y_va = train_val_split(x, y, val_frac=0.3, rng=rng)
    model = spec.build_model()
    print(f"training {spec.name}: {spec.description}")
    history = model.fit(
        x_tr, y_tr, epochs=args.epochs, batch_size=args.batch_size,
        loss=spec.loss, lr=args.lr, seed=args.seed, verbose=True,
    )
    result = model.evaluate(x_va, y_va, loss=spec.loss)
    line = f"val loss: {result['loss']:.4f}"
    if spec.metric != "loss":
        pred = model.predict(x_va)
        target = x_va if y_va is None else y_va
        metric_val = metrics_mod.get(spec.metric)(pred, np.asarray(target))
        line += f"  val {spec.metric}: {metric_val:.4f}"
    print(line)
    return 0


def _cmd_price(args: argparse.Namespace) -> int:
    from .hpc import DataParallel, SimCluster, SingleNode, profile_model
    from .hpc.hardware import MACHINES
    from .utils import format_table

    if args.nodes < 1:
        print(f"FAIL: --nodes must be >= 1, got {args.nodes}", file=sys.stderr)
        return 1
    spec = _benchmark(args.benchmark)
    if spec is None:
        return 1
    x, _ = spec.make_data(seed=0)
    model = spec.build_model()
    profile = profile_model(model, x.shape[1:], batch_size=args.batch_size)
    print(f"{spec.name}: {profile.params:,} params, {profile.flops_step / 1e9:.2f} GFLOP/step")
    rows = []
    for machine, node in MACHINES.items():
        for precision in ("fp32", "fp16"):
            if not node.accelerator.supports(precision):
                continue
            cluster = SimCluster.build(machine, args.nodes)
            plan = DataParallel(args.nodes) if args.nodes > 1 else SingleNode()
            t = plan.step_time(profile, cluster, precision)
            rows.append([machine, precision, args.nodes, t * 1e6, profile.batch_size / t])
    print(format_table(["machine", "precision", "nodes", "us/step", "samples/s"], rows))
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .registry import ArtifactStore, CheckpointIntegrityError
    from .utils import format_table

    if not Path(args.root).is_dir():
        # Browsing is read-only: opening a store would create a mistyped root.
        print(f"FAIL: {args.root}: no such registry directory", file=sys.stderr)
        return 1
    store = ArtifactStore(args.root)
    if args.spec is None:
        names = store.names()
        if not names:
            print(f"{args.root}: empty registry")
            return 0
        rows = []
        for name in names:
            ref = store.resolve(name)
            rows.append([
                name, ref.version, ref.benchmark or "?",
                ref.content_hash[:12], ref.lineage.get("strategy", ""),
            ])
        print(format_table(["name", "latest", "benchmark", "content", "strategy"], rows))
        return 0
    try:
        ref = store.resolve(args.spec)
    except KeyError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    if args.verify:
        try:
            store.verify(ref)
        except CheckpointIntegrityError as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 1
        print(f"{ref.spec}: ok (sha256:{ref.content_hash})")
        return 0
    print(json.dumps(ref.meta or {"content_hash": ref.content_hash},
                     indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        SchemaError, format_summary, read_jsonl, summarize_trace,
        validate_trace, write_chrome_trace,
    )

    try:
        records = read_jsonl(args.trace)
        counts = validate_trace(records)
    except (OSError, SchemaError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print(f"{args.trace}: valid trace "
          f"({counts['span']} spans, {counts['event']} events, {counts['metric']} metrics)")
    print()
    print(format_summary(summarize_trace(records)))
    if args.chrome:
        out = write_chrome_trace(records, args.chrome)
        print(f"\nwrote Chrome trace to {out} (load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    print("The experiment tables (E1-E16) are regenerated by the bench suite:")
    print("  pytest benchmarks/ -s")
    print("Each bench prints its table and asserts the expected shape;")
    print("see DESIGN.md for the claim map and EXPERIMENTS.md for results.")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show benchmarks and machines")

    p_train = sub.add_parser("train", help="train a registry benchmark")
    p_train.add_argument("benchmark")
    p_train.add_argument("--epochs", type=int, default=10)
    p_train.add_argument("--batch-size", type=int, default=32)
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--seed", type=int, default=0)

    p_price = sub.add_parser("price", help="price a benchmark on the machine catalog")
    p_price.add_argument("benchmark")
    p_price.add_argument("--nodes", type=int, default=1)
    p_price.add_argument("--batch-size", type=int, default=256)

    sub.add_parser("experiments", help="how to regenerate the experiment tables")

    p_reg = sub.add_parser("registry", help="browse a model registry directory")
    p_reg.add_argument("root", help="registry root directory")
    p_reg.add_argument("spec", nargs="?", default=None,
                       help="artifact to inspect: name, name@version, or sha256:<hex>")
    p_reg.add_argument("--verify", action="store_true",
                       help="check the stored bytes against the content checksum")

    p_trace = sub.add_parser("trace", help="validate and summarize a recorded trace")
    p_trace.add_argument("trace", help="path to a trace .jsonl file")
    p_trace.add_argument("--chrome", default=None, metavar="OUT.json",
                         help="also convert to a Chrome trace-event file")

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "train": _cmd_train,
        "price": _cmd_price,
        "experiments": _cmd_experiments,
        "registry": _cmd_registry,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
