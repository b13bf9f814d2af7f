"""Discriminative filter pruning for small convolutional networks.

Pipeline: train a CNN, score last-conv neurons by intra-class correlation
of their firing, trace each selected neuron's dependencies down the stack
by deconvolution, slice away everything below threshold, retrain, and
optionally swap the dense head for a QDA or SVM on the reduced features.
"""

from .data import DatasetSplit, LabeledImage, generate_synthetic, load_pgm_dir
from .deconv import dependency_scores, deconv_from_neuron, unpool
from .errors import (
    BadMagicError,
    ConfigurationError,
    DimensionError,
    HeaderSchemaError,
    ModelFormatError,
    NonFiniteError,
    NonFiniteWeightsError,
    ShapeChainError,
    TrainingDiverged,
    TruncatedBlobError,
)
from .firing import (
    FiringMatrix,
    NeuronRanking,
    ScatterPair,
    diagonal_dominance,
    extract_firing_matrix,
    full_lda_directions,
    icc_scores,
    rank_and_select,
    scatter_matrices,
    standardize,
    variance_ranking_baseline,
)
from .modelio import load_model, model_param_count, save_model
from .network import LayerSpec, Network, build_cnn, forward, logits, reference_cnn
from .prune import (
    PrunePlan,
    PruneReport,
    apply_prune,
    build_prune_plan,
    equivalence_check,
    magnitude_baseline,
    magnitude_mask,
    masked_forward,
    plateau_threshold_search,
)
from .tensor import Tensor
from .train import TrainConfig, TrainResult, accuracy, retrain, train

__version__ = "0.1.0"
