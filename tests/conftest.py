"""Make tests/ importable (helpers module) without packaging it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import settings  # noqa: E402

# tests/test_router_machine.py, tests/test_registry_machine.py and
# tests/test_queue_machine.py at their full example counts, the runs CI's
# tests job makes with ``--hypothesis-profile=router-full``,
# ``registry-full`` and ``queue-full``; tier 1 runs them at the default
# profile's.
settings.register_profile("router-full", max_examples=2000)
settings.register_profile("registry-full", max_examples=2000)
settings.register_profile("queue-full", max_examples=2000)
