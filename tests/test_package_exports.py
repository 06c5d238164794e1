"""Every ``repro`` subpackage's ``__all__`` names what it exports.

A deletion that leaves a stale name in ``__all__`` still imports cleanly
and fails only at ``from repro.x import *``; a name listed twice hides
an edit that meant to list another.
"""

import importlib
import pkgutil
from collections import Counter

import repro


def test_every_all_name_resolves_and_appears_once():
    packages = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
    assert len(packages) >= 14
    for package in packages:
        exported = package.__all__
        missing = [name for name in exported if not hasattr(package, name)]
        assert missing == [], f"{package.__name__}.__all__ names missing attributes"
        repeated = [name for name, n in Counter(exported).items() if n > 1]
        assert repeated == [], f"{package.__name__}.__all__ repeats names"
