"""Tests for the CLI entry points and shared utilities."""

import numpy as np
import pytest

from repro.cli import main
from repro.utils import format_table, seed_everything, spawn_rng


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "p1b2" in out and "summit_era" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        assert "benchmarks/" in capsys.readouterr().out

    def test_train_small(self, capsys):
        assert main(["train", "p1b2", "--epochs", "2", "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "val loss" in out

    def test_price(self, capsys):
        assert main(["price", "p1b2", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "us/step" in out and "future_dl" in out

    @pytest.mark.parametrize("argv", [
        ["train", "nope", "--epochs", "1"],
        ["price", "nope"],
        ["price", "p1b1", "--nodes", "-3"],
        ["price", "p1b1", "--nodes", "0"],
    ], ids=["train-unknown", "price-unknown", "price-nodes-negative", "price-nodes-zero"])
    def test_bad_input_refused(self, argv, capsys):
        """An unknown benchmark or a node count below 1 is one FAIL line and
        exit 1, like registry and trace; no traceback, no priced rows."""
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("FAIL: ") and "us/step" not in out

    def test_registry_browse_creates_nothing(self, tmp_path, capsys):
        """Browsing a missing root refuses it; publishing still creates its root."""
        from repro.registry import ArtifactStore

        root = tmp_path / "no" / "such" / "registry"
        for argv in (["registry", str(root)], ["registry", str(root), "p1b1", "--verify"]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("FAIL: ")
        assert not (tmp_path / "no").exists()
        ArtifactStore(root)
        assert root.is_dir()
        assert main(["registry", str(root)]) == 0
        assert "empty registry" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["p1b1@abc", "sha256:../../x"])
    def test_registry_malformed_spec_refused(self, tmp_path, spec, capsys):
        root = tmp_path / "registry"
        root.mkdir()
        assert main(["registry", str(root), spec]) == 1
        assert capsys.readouterr().err.startswith("FAIL: ")

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_removed_bench_subcommands_rejected(self):
        # Measurement moved to bench/run.py; the package has no bench
        # entry points left, so argparse refuses the old names.
        for cmd in ("serve-bench", "serve-scale-bench", "registry-bench",
                    "hpo-scale-bench", "ddp-overlap-bench"):
            with pytest.raises(SystemExit):
                main([cmd, "--smoke"])


class TestFormatTable:
    def test_alignment_and_content(self):
        table = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = table.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "name" in lines[0] and "value" in lines[0]
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_float_formatting(self):
        table = format_table(["x"], [[1.23456789]])
        assert "1.235" in table

    def test_mixed_types(self):
        table = format_table(["a", "b"], [[1, "text"], [2.5, None]])
        assert "None" in table and "text" in table

    def test_empty_rows(self):
        table = format_table(["only", "header"], [])
        assert "only" in table


class TestRng:
    def test_seed_everything_reproducible(self):
        a = seed_everything(42).random(5)
        b = seed_everything(42).random(5)
        assert np.array_equal(a, b)

    def test_spawn_independent_streams(self):
        parent = seed_everything(0)
        kids = spawn_rng(parent, 3)
        draws = [k.random(100) for k in kids]
        # Streams differ pairwise.
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_spawn_deterministic_given_parent_state(self):
        a = spawn_rng(seed_everything(7), 2)
        b = spawn_rng(seed_everything(7), 2)
        assert np.array_equal(a[0].random(10), b[0].random(10))

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_rng(seed_everything(0), 0)
