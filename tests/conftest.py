"""Make tests/ importable (helpers module) without packaging it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import settings  # noqa: E402

# tests/test_router_machine.py at its full example count, the run CI's
# tests job makes with ``--hypothesis-profile=router-full``; tier 1 runs
# it at the default profile's.
settings.register_profile("router-full", max_examples=2000)
