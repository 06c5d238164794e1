"""E15 (ablation) — Checkpoint/restart efficiency of training campaigns
at scale, and what node-local NVRAM buys.

The machines the keynote targets fail; a multi-day training campaign must
checkpoint.  Young/Daly analysis over node count x checkpoint tier.
Expected shape: efficiency degrades with node count (system MTBF shrinks);
NVRAM checkpointing recovers part of the loss; optimal intervals shrink
toward minutes at extreme scale.
"""

import tempfile

import numpy as np
import pytest

from conftest import print_experiment
from repro.hpc import SUMMIT_ERA, campaign_efficiency, daly_interval, mlp_profile
from repro.hpc.resilience import efficiency as modeled_efficiency
from repro.utils import format_table

NODES = (64, 1024, 16384, 131072)


def test_e15_resilience():
    profile = mlp_profile([16384] * 10, batch_size=1024)  # ~2.4B params
    rows = []
    eff = {}
    for n in NODES:
        for tier in ("pfs", "nvram"):
            r = campaign_efficiency(profile, SUMMIT_ERA, n, tier_name=tier)
            eff[(n, tier)] = r["efficiency"]
            rows.append([
                n, tier, r["mtbf"] / 3600, r["checkpoint_time"],
                r["interval"] / 60, r["efficiency"],
            ])
    print_experiment(
        "E15  Training-campaign efficiency under failures (Young/Daly optimal checkpointing)",
        format_table(
            ["nodes", "ckpt tier", "system MTBF h", "ckpt s", "interval min", "efficiency"],
            rows,
        ),
    )

    # Efficiency monotonically degrades with scale (each tier).
    for tier in ("pfs", "nvram"):
        effs = [eff[(n, tier)] for n in NODES]
        assert effs == sorted(effs, reverse=True)
    # NVRAM checkpointing strictly better at every scale.
    for n in NODES:
        assert eff[(n, "nvram")] > eff[(n, "pfs")]
    # At extreme scale the PFS penalty is material (>1% of the machine).
    assert eff[(131072, "pfs")] < 0.95


def test_e15_measured_vs_modeled():
    """The model, lived: run a real training loop under injected crashes
    at the modeled failure rate, checkpointing at the Daly interval, and
    compare the *measured* efficiency (from the run's time ledger) with
    the Young/Daly prediction.  The analytic column above is only
    trustworthy if the runtime reproduces it."""
    from repro.candle import build_p1b2_classifier
    from repro.datasets import make_tumor_expression
    from repro.resilience import FaultSchedule, run_resilient_training

    d = make_tumor_expression(n_samples=256, n_genes=20, n_classes=4, seed=0)
    step_time, ckpt_time, restart_time = 1.0, 2.0, 2.0
    epochs, batch = 12, 8
    total_steps = int(np.ceil(len(d.x) / batch)) * epochs

    rows = []
    measured = {}
    for mtbf in (120.0, 400.0, float("inf")):
        crash_prob = 0.0 if mtbf == float("inf") else step_time / mtbf
        interval_steps = (
            total_steps if mtbf == float("inf")
            else max(1, int(round(daly_interval(ckpt_time, mtbf) / step_time)))
        )
        faults = FaultSchedule(crash=crash_prob, seed=42) if crash_prob else None
        model = build_p1b2_classifier(4, hidden=(16,), dropout=0.0)
        with tempfile.TemporaryDirectory() as tmp:
            _, rep = run_resilient_training(
                model, d.x, d.y, checkpoint_dir=tmp, epochs=epochs,
                batch_size=batch, loss="cross_entropy", seed=0,
                checkpoint_every=interval_steps, faults=faults,
                max_restarts=200, step_time_s=step_time,
                checkpoint_time_s=ckpt_time, restart_time_s=restart_time,
            )
        modeled = modeled_efficiency(
            total_steps * step_time, ckpt_time, restart_time, mtbf,
            interval_steps * step_time,
        ) if mtbf != float("inf") else 1.0
        measured[mtbf] = rep.measured_efficiency
        rows.append([
            "inf" if mtbf == float("inf") else f"{mtbf:.0f}",
            interval_steps, rep.restarts, rep.steps_replayed,
            rep.checkpoints_written, round(modeled, 4),
            round(rep.measured_efficiency, 4),
        ])

    print_experiment(
        "E15b  Measured vs modeled checkpoint/restart efficiency (injected faults)",
        format_table(
            ["MTBF s", "ckpt every", "restarts", "replayed", "ckpts",
             "modeled eff", "measured eff"],
            rows,
        ),
    )

    # No faults -> ledger overhead is checkpoint writes only.
    assert measured[float("inf")] > 0.9
    # More failures -> lower measured efficiency, same ordering as the model.
    assert measured[120.0] < measured[400.0] < measured[float("inf")]
    # The lived run lands near the analytic prediction at each MTBF.
    for mtbf in (120.0, 400.0):
        modeled = modeled_efficiency(
            total_steps * step_time, ckpt_time, restart_time, mtbf,
            max(1, int(round(daly_interval(ckpt_time, mtbf) / step_time))) * step_time,
        )
        assert abs(measured[mtbf] - modeled) < 0.15, (mtbf, measured[mtbf], modeled)
