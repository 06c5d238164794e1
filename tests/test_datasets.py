"""Tests for the synthetic biomedical data generators (repro.datasets)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    GaussianWellsPotential,
    basin_coverage,
    encode_sequence,
    featurize_genomes,
    hill_response,
    kmer_count_vector,
    kmer_indices,
    langevin_trajectory,
    make_amr_genomes,
    make_autoencoder_expression,
    make_combo_response,
    make_compound_screen,
    make_medical_records,
    make_rugged_landscape,
    make_single_drug_response,
    make_tumor_expression,
    motif_buckets,
    visited_basins,
)
from repro.datasets.amr import _mutate, _random_dna


class TestGeneExpression:
    def test_shapes_and_labels(self):
        ds = make_tumor_expression(n_samples=100, n_genes=60, n_classes=3, seed=0)
        assert ds.x.shape == (100, 60)
        assert ds.y.shape == (100,)
        assert set(np.unique(ds.y)) <= {0, 1, 2}
        assert ds.n_genes == 60

    def test_zscored_per_gene(self):
        ds = make_tumor_expression(n_samples=300, n_genes=50, seed=1)
        assert np.allclose(ds.x.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(ds.x.std(axis=0), 1.0, atol=1e-6)

    def test_reproducible(self):
        a = make_tumor_expression(seed=5, n_samples=50, n_genes=40)
        b = make_tumor_expression(seed=5, n_samples=50, n_genes=40)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = make_tumor_expression(seed=1, n_samples=50, n_genes=40)
        b = make_tumor_expression(seed=2, n_samples=50, n_genes=40)
        assert not np.array_equal(a.x, b.x)

    def test_classes_are_separable(self):
        """Planted signal check: class centroids must be farther apart than
        the within-class spread (else nothing could learn it)."""
        ds = make_tumor_expression(n_samples=400, n_genes=100, n_classes=3, noise=0.3, seed=0)
        centroids = np.stack([ds.x[ds.y == c].mean(axis=0) for c in range(3)])
        between = np.linalg.norm(centroids[0] - centroids[1])
        assert between > 1.0

    def test_conv_input_shape(self):
        ds = make_tumor_expression(n_samples=10, n_genes=30, seed=0)
        assert ds.as_conv_input().shape == (10, 1, 30)

    def test_class_balance(self):
        ds = make_tumor_expression(
            n_samples=1000, n_genes=30, n_classes=2, class_balance=np.array([0.9, 0.1]), seed=0
        )
        assert (ds.y == 0).mean() > 0.8

    def test_pathway_layout_contiguous(self):
        ds = make_tumor_expression(n_samples=10, n_genes=40, n_pathways=4, seed=0)
        # Pathway indices must be non-decreasing (contiguous blocks).
        assert np.all(np.diff(ds.pathway_of_gene) >= 0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_tumor_expression(n_genes=5, n_pathways=10)
        with pytest.raises(ValueError):
            make_tumor_expression(n_classes=1)
        with pytest.raises(ValueError):
            make_tumor_expression(nonlinearity="cubic")

    def test_autoencoder_data_low_rank_structure(self):
        x, z = make_autoencoder_expression(n_samples=300, n_genes=100, latent_dim=5, noise=0.1, seed=0)
        assert x.shape == (300, 100)
        assert z.shape == (300, 5)
        # Spectrum check: top-15 PCs should capture most variance.
        _, s, _ = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        frac = (s[:15] ** 2).sum() / (s ** 2).sum()
        assert frac > 0.8


class TestDrugResponse:
    def test_hill_at_ic50_is_half(self):
        assert hill_response(np.array([-6.0]), np.array([-6.0]))[0] == pytest.approx(0.5)

    def test_hill_monotone_in_dose(self):
        doses = np.linspace(-9, -3, 50)
        resp = hill_response(doses, np.full(50, -6.0))
        assert np.all(np.diff(resp) > 0)

    def test_single_drug_shapes(self):
        ds = make_single_drug_response(n_samples=300, seed=0)
        assert ds.x.shape == (300, ds.n_cell_features + ds.n_drug_features + 1)
        assert ds.y.shape == (300,)
        assert np.all((ds.y >= 0) & (ds.y <= 1))

    def test_single_drug_dose_signal(self):
        """Higher dose must reduce growth on average (pharmacology sanity)."""
        ds = make_single_drug_response(n_samples=4000, response_noise=0.0, seed=0)
        dose = ds.x[:, -1]
        low = ds.y[dose < -7.0].mean()
        high = ds.y[dose > -5.0].mean()
        assert high < low

    def test_combo_shapes(self):
        ds = make_combo_response(n_samples=200, seed=0)
        assert ds.x.shape == (200, ds.n_cell_features + 2 * ds.n_drug_features + 2)
        assert ds.synergy.shape == (200,)

    def test_combo_synergy_strength_zero_removes_synergy(self):
        ds = make_combo_response(n_samples=300, synergy_strength=0.0, seed=0)
        assert np.allclose(ds.synergy, 0.0)

    def test_combo_reproducible(self):
        a = make_combo_response(n_samples=100, seed=3)
        b = make_combo_response(n_samples=100, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_compound_screen_active_fraction(self):
        x, y = make_compound_screen(n_compounds=2000, active_fraction=0.1, seed=0)
        assert y.mean() == pytest.approx(0.1, abs=0.02)
        assert x.shape[0] == 2000

    def test_compound_screen_bad_fraction(self):
        with pytest.raises(ValueError):
            make_compound_screen(active_fraction=0.0)


class TestMedicalRecords:
    def test_shapes(self):
        ds = make_medical_records(n_docs=80, vocab_size=100, seed=0)
        assert ds.x.shape == (80, 100)
        assert set(ds.tasks) == {"site", "laterality", "histology"}
        for t in ds.tasks:
            assert ds.labels[t].shape == (80,)
            assert ds.labels[t].max() < ds.n_classes[t]

    def test_nonnegative_log_counts(self):
        ds = make_medical_records(n_docs=40, seed=0)
        assert np.all(ds.x >= 0)

    def test_reproducible(self):
        a = make_medical_records(n_docs=30, seed=9)
        b = make_medical_records(n_docs=30, seed=9)
        assert np.array_equal(a.x, b.x)

    def test_labels_carry_signal(self):
        """Documents of the same site class should be closer to their class
        centroid than to other centroids, on average."""
        ds = make_medical_records(n_docs=600, label_noise=0.0, seed=0)
        y = ds.labels["site"]
        centroids = np.stack([ds.x[y == c].mean(axis=0) for c in range(ds.n_classes["site"])])
        d = ((ds.x[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        nearest = d.argmin(axis=1)
        assert (nearest == y).mean() > 0.5


class TestKmers:
    def test_encode_roundtrip(self):
        assert encode_sequence("ACGT").tolist() == [0, 1, 2, 3]

    def test_encode_invalid_base(self):
        with pytest.raises(ValueError):
            encode_sequence("ACGN")

    def test_kmer_indices_values(self):
        # "ACG" -> A*16 + C*4 + G = 0*16 + 1*4 + 2 = 6
        idx = kmer_indices(encode_sequence("ACG"), 3)
        assert idx.tolist() == [6]

    def test_kmer_indices_count(self):
        idx = kmer_indices(encode_sequence("ACGTACGT"), 3)
        assert idx.size == 6

    def test_kmer_short_sequence(self):
        assert kmer_indices(encode_sequence("AC"), 3).size == 0

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kmer_indices(encode_sequence("ACGT"), 0)

    def test_count_vector_exact(self):
        v = kmer_count_vector("AAAA", 2)
        assert v[0] == 3  # "AA" three times
        assert v.sum() == 3

    def test_count_vector_hashed_dimension(self):
        v = kmer_count_vector("ACGTACGTAC", 4, n_features=32)
        assert v.shape == (32,)
        assert v.sum() == 7  # 10 - 4 + 1 k-mers

    def test_featurize_normalized(self):
        x = featurize_genomes(["ACGTACGT", "ACGTACGTACGTACGT"], k=3, n_features=64)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0)

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_same_kmer_content_same_features(self, seed):
        """Property: k-mer features are invariant to where motifs sit only
        through counts — identical sequences give identical vectors."""
        rng = np.random.default_rng(seed)
        seq = _random_dna(rng, 100)
        a = kmer_count_vector(seq, 5, n_features=128)
        b = kmer_count_vector(seq, 5, n_features=128)
        assert np.array_equal(a, b)


class TestAMR:
    def test_shapes_and_balance(self):
        ds = make_amr_genomes(n_genomes=100, genome_length=1000, resistant_fraction=0.5, seed=0)
        assert ds.x.shape == (100, ds.n_features)
        assert 0.3 < ds.y.mean() < 0.7
        assert len(ds.genomes) == 100
        assert all(len(g) == 1000 for g in ds.genomes)

    def test_motif_too_long_raises(self):
        with pytest.raises(ValueError):
            make_amr_genomes(genome_length=30, motif_length=40)

    def test_resistant_genomes_contain_motif_signal(self):
        """With zero mutation rate, every resistant genome contains a
        planted motif verbatim."""
        ds = make_amr_genomes(
            n_genomes=60, genome_length=1000, mutation_rate=0.0, seed=1
        )
        for g, label in zip(ds.genomes, ds.y):
            has_motif = any(m in g for m in ds.resistance_motifs)
            if label == 1:
                assert has_motif

    def test_susceptible_rarely_contain_motif(self):
        ds = make_amr_genomes(n_genomes=60, genome_length=1000, mutation_rate=0.0, seed=1)
        for g, label in zip(ds.genomes, ds.y):
            if label == 0:
                assert not any(m in g for m in ds.resistance_motifs)

    def test_motif_buckets_nonempty(self):
        ds = make_amr_genomes(n_genomes=20, genome_length=500, seed=0)
        buckets = motif_buckets(ds)
        assert buckets.size > 0
        assert np.all(buckets < ds.n_features)

    def test_mutate_rate_zero_identity(self):
        rng = np.random.default_rng(0)
        s = _random_dna(rng, 50)
        assert _mutate(rng, s, 0.0) == s

    def test_mutate_rate_changes_sequence(self):
        rng = np.random.default_rng(0)
        s = _random_dna(rng, 200)
        m = _mutate(rng, s, 0.5)
        assert m != s and len(m) == len(s)


class TestMD:
    def make_two_well(self):
        return GaussianWellsPotential(
            centers=np.array([[-2.0, 0.0], [2.0, 0.0]]),
            depths=np.array([2.0, 2.0]),
            widths=np.array([0.5, 0.5]),
        )

    def test_energy_lower_in_wells(self):
        pot = self.make_two_well()
        e_well = pot.energy(np.array([-2.0, 0.0]))
        e_mid = pot.energy(np.array([0.0, 0.0]))
        assert e_well < e_mid

    def test_gradient_matches_finite_difference(self):
        pot = self.make_two_well()
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-3, 3, size=2)
            g = pot.gradient(x)
            eps = 1e-6
            for i in range(2):
                dx = np.zeros(2)
                dx[i] = eps
                num = (pot.energy(x + dx) - pot.energy(x - dx)) / (2 * eps)
                assert g[i] == pytest.approx(num, abs=1e-5)

    def test_gradient_batched(self):
        pot = self.make_two_well()
        pts = np.random.default_rng(0).uniform(-3, 3, size=(10, 2))
        g = pot.gradient(pts)
        assert g.shape == (10, 2)
        assert np.allclose(g[0], pot.gradient(pts[0]))

    def test_basin_assignment(self):
        pot = self.make_two_well()
        basins = pot.basin_of(np.array([[-2.0, 0.0], [2.0, 0.1], [0.0, 0.0]]))
        assert basins.tolist() == [0, 1, -1]

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianWellsPotential(np.zeros((2, 2)), np.array([1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            GaussianWellsPotential(np.zeros((1, 2)), np.array([-1.0]), np.array([1.0]))

    def test_trajectory_stays_finite_and_shaped(self):
        pot = self.make_two_well()
        traj = langevin_trajectory(pot, np.zeros(2), n_steps=300, record_every=10, rng=np.random.default_rng(0))
        assert traj.shape == (30, 2)
        assert np.all(np.isfinite(traj))

    def test_trajectory_relaxes_into_well(self):
        """Low temperature from near a well: the walker must fall in."""
        pot = self.make_two_well()
        traj = langevin_trajectory(
            pot, np.array([-1.5, 0.0]), n_steps=2000, dt=0.01, temperature=0.05,
            rng=np.random.default_rng(0),
        )
        final_basin = pot.basin_of(traj[-1:])
        assert final_basin[0] == 0

    def test_bad_steps(self):
        pot = self.make_two_well()
        with pytest.raises(ValueError):
            langevin_trajectory(pot, np.zeros(2), n_steps=0)

    def test_rugged_landscape_separation(self):
        pot = make_rugged_landscape(n_wells=8, min_separation=1.5, seed=0)
        assert pot.n_wells == 8
        d = np.linalg.norm(pot.centers[:, None] - pot.centers[None], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 1.5

    def test_basin_coverage_metric(self):
        pot = self.make_two_well()
        samples = np.array([[-2.0, 0.0], [-2.1, 0.0]])
        assert basin_coverage(pot, samples) == 0.5
        assert visited_basins(pot, samples).tolist() == [0]

    def test_coverage_full(self):
        pot = self.make_two_well()
        samples = np.array([[-2.0, 0.0], [2.0, 0.0]])
        assert basin_coverage(pot, samples) == 1.0
