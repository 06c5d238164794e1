"""Synthetic biomedical datasets with planted, verifiable structure.

Substitutes for the restricted/proprietary data the keynote's projects use
(TCGA expression, NCI drug screens, SEER registries, PATRIC genomes, MD
trajectories).  Each generator plants ground-truth structure so tests can
verify that models recover real signal.  See DESIGN.md for the
substitution rationale.
"""

from .amr import AMRDataset, attribution_hit_rate, make_amr_genomes, motif_buckets
from .drug_response import (
    ComboDataset,
    DrugResponseDataset,
    hill_response,
    make_combo_response,
    make_compound_screen,
    make_single_drug_response,
)
from .imaging import ImagingDataset, make_tumor_images
from .sequences import EventSequenceDataset, make_event_sequences
from .gene_expression import (
    ExpressionDataset,
    make_autoencoder_expression,
    make_tumor_expression,
)
from .kmers import encode_sequence, featurize_genomes, kmer_count_vector, kmer_indices
from .md import (
    GaussianWellsPotential,
    basin_coverage,
    langevin_trajectory,
    make_rugged_landscape,
    visited_basins,
)
from .medical_records import TASK_NAMES, MedicalRecordsDataset, make_medical_records

__all__ = [
    "ExpressionDataset", "make_tumor_expression", "make_autoencoder_expression",
    "DrugResponseDataset", "ComboDataset", "make_single_drug_response",
    "make_combo_response", "make_compound_screen", "hill_response",
    "MedicalRecordsDataset", "make_medical_records", "TASK_NAMES",
    "AMRDataset", "make_amr_genomes", "motif_buckets", "attribution_hit_rate",
    "encode_sequence", "kmer_indices", "kmer_count_vector", "featurize_genomes",
    "ImagingDataset", "make_tumor_images",
    "EventSequenceDataset", "make_event_sequences",
    "GaussianWellsPotential", "make_rugged_landscape", "langevin_trajectory",
    "basin_coverage", "visited_basins",
]
