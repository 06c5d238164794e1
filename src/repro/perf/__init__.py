"""Op-level performance measurement for the NumPy training engine.

Split so that nothing here ever imports :mod:`repro.nn` (the
nn ops import *us* to instrument themselves, and a cycle would deadlock
module init):

* :mod:`repro.perf.hooks` — the zero-dependency instrumentation shim the
  functional ops wrap themselves with at import time;
* :mod:`repro.perf.profiler` — :class:`OpProfiler`, the user-facing sink
  collecting per-op wall time / call counts / bytes;
* :mod:`repro.perf.reference` — kernels frozen from the pre-optimization
  engine, the independent oracle ``tests/test_perf.py`` checks the
  optimized ops against.

Timing the engine is the job of ``bench/`` (``python3 bench/run.py
--workload train_mlp`` / ``train_cnn``), from outside the package.
"""

from .hooks import instrument, get_sink, set_sink
from .profiler import OpProfiler, OpStat

__all__ = ["instrument", "get_sink", "set_sink", "OpProfiler", "OpStat"]
