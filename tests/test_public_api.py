"""The package root's public surface, pinned name by name: adding or
removing an export shows as one line of this file's diff."""

import inspect

import salypath

PUBLIC = [
    "Adam",
    "AttentionGate",
    "CheckpointError",
    "ConfigError",
    "ContractError",
    "ConvLayer",
    "DatasetManifest",
    "DimensionError",
    "LossWeights",
    "ManifestError",
    "ManifestRecord",
    "ModelConfig",
    "MultiMatchScores",
    "NumericError",
    "SGD",
    "SalypathError",
    "SalypathModel",
    "Tensor",
    "TrainConfig",
    "TrainReport",
    "TrainingDiverged",
    "align",
    "attend",
    "auc_borji",
    "auc_judd",
    "cc",
    "channel_attention",
    "concat",
    "congruency",
    "conv2d",
    "generate_synthetic",
    "kld",
    "kldiv",
    "length_stats",
    "load_manifest",
    "lr_schedule",
    "maxpool2",
    "mse_map",
    "multimatch",
    "no_grad",
    "nss",
    "nss_scanpath",
    "nss_term",
    "read_pgm",
    "read_ppm",
    "read_scanpath_csv",
    "resample_map",
    "resample_stimulus",
    "saliency_loss",
    "save_manifest",
    "scanpath_loss",
    "sim",
    "soft_argmax",
    "softmax2d",
    "spatial_attention",
    "to_saccades",
    "train",
    "upsample2",
    "write_pgm",
    "write_ppm",
    "write_scanpath_csv",
]


def test_package_root_exports_exactly_the_public_names():
    names = sorted(n for n, v in vars(salypath).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC
