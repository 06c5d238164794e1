"""repro: deep-learning driver workloads for cancer and infectious disease,
with an HPC-architecture simulator.

Reproduction of the system described in Rick Stevens' HPDC 2017 keynote
"Deep Learning in Cancer and Infectious Disease: Novel Driver Problems for
Future HPC Architecture".  See DESIGN.md for the claim-by-claim experiment
map and EXPERIMENTS.md for measured results.

Subpackages
-----------
- :mod:`repro.nn` — from-scratch NumPy deep-learning framework.
- :mod:`repro.precision` — reduced-precision (fp16/bf16/int8) emulation.
- :mod:`repro.datasets` — synthetic biomedical data with planted structure.
- :mod:`repro.candle` — CANDLE-style benchmark models + classical baselines.
- :mod:`repro.hpc` — simulated cluster: topologies, collectives, memory
  tiers, NVRAM staging, roofline performance and energy models.
- :mod:`repro.hpo` — hyperparameter search strategies and the parallel
  search orchestrator.
- :mod:`repro.workflow` — end-to-end workflows (training-on-cluster,
  DL-supervised molecular dynamics).
- :mod:`repro.parallel` — real multi-core execution engine: shared-memory
  data plane, process worker pool, deterministic allreduce, real-clock
  HPO trial executor.
- :mod:`repro.resilience` — fault injection, checkpoint/restart, and the
  degradation-policy campaign runtime.
- :mod:`repro.obs` — spans/metrics/trace export and artifact schemas;
  a ``TraceRecorder(ops=True)`` also times every op by name.
- :mod:`repro.serve` — micro-batched inference serving.
"""

__version__ = "1.0.0"
