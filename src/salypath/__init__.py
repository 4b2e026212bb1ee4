"""salypath: saliency-map and scanpath prediction at desk scale.

A from-scratch float32 autodiff core (conv, pooling, softmax, the lot), an
encoder-decoder saliency network with a gated channel+spatial attention
bottleneck, a differentiable soft-argmax scanpath head, the standard
saliency/scanpath evaluation battery, bit-stable file formats, and a
deterministic synthetic-data generator to exercise it all.
"""

from .attention import AttentionGate, attend, channel_attention, spatial_attention
from .data import (
    DatasetManifest,
    ManifestRecord,
    generate_synthetic,
    length_stats,
    load_manifest,
    read_pgm,
    read_ppm,
    read_scanpath_csv,
    resample_map,
    resample_stimulus,
    save_manifest,
    write_pgm,
    write_ppm,
    write_scanpath_csv,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DimensionError,
    ManifestError,
    NumericError,
    SalypathError,
    TrainingDiverged,
)
from .losses import LossWeights, kldiv, mse_map, nss_term, saliency_loss, scanpath_loss
from .model import ModelConfig, SalypathModel, soft_argmax
from .saliency_metrics import auc_borji, auc_judd, cc, kld, nss, sim
from .scanpath_metrics import (
    MultiMatchScores,
    align,
    congruency,
    multimatch,
    nss_scanpath,
    to_saccades,
)
from .tensor import (
    ConvLayer,
    Tensor,
    concat,
    conv2d,
    maxpool2,
    no_grad,
    softmax2d,
    upsample2,
)
from .trainer import Adam, SGD, TrainConfig, TrainReport, lr_schedule, train

__version__ = "0.1.0"
