"""The consumer trace's allow-list names only functions that exist.

``tests/consumers.py`` runs every consumer of the package (minutes); this
checks its allow-list alone, so an entry naming a deleted or renamed
function fails tier 1 without a consumer run.
"""

import consumers


def test_every_allow_entry_names_a_function():
    defined = consumers.functions()
    entries = consumers.allow_entries()
    assert entries
    stale = [e for e in entries if not any(consumers.matches(e, key) for key in defined)]
    assert stale == []


def test_entries_are_unique():
    entries = consumers.allow_entries()
    assert len(entries) == len(set(entries))


def test_glob_and_exact_matching():
    assert consumers.matches("nn/tensor.py::Tensor.*", ("nn/tensor.py", "Tensor.exp"))
    assert consumers.matches("serve/simulate.py::*", ("serve/simulate.py", "simulate_serving"))
    assert consumers.matches("hpo/space.py::Float.sample", ("hpo/space.py", "Float.sample"))
    assert not consumers.matches("hpo/space.py::Float.sample", ("hpo/space.py", "Float.sample_many"))
    assert not consumers.matches("nn/tensor.py::Tensor.*", ("nn/layers.py", "Tensor.exp"))
