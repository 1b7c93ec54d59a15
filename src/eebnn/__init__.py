"""Early-exit binary neural networks for audio classification.

A log-mel front-end, four binary block families with five exit heads, one
layer engine for joint multi-exit training (Adam/Bop) and
entropy-thresholded adaptive inference, an evaluation harness, and a
single-file model format with bit-packed binary weights (the tests hold the
engine equal to XNOR/popcount over them).
"""

from . import arch, config, data, evaluation, frontend, layers, modelio, runtime, training
from .arch import ArchSpec, Model, build
from .data import Dataset, synth_dataset
from .evaluation import SweepResult, bench_exits, per_class_exits, sweep
from .frontend import FrontendConfig, MelFeature, featurize
from .modelio import load_model, save_model
from .runtime import DecisionRule, ExitRecord, entropy, infer_early_exit, infer_fixed_exit
from .training import TrainConfig, train_loop

__version__ = "0.1.0"

__all__ = [
    "ArchSpec", "Dataset", "DecisionRule", "ExitRecord",
    "FrontendConfig", "MelFeature", "Model", "SweepResult", "TrainConfig",
    "bench_exits", "build", "entropy", "featurize",
    "infer_early_exit", "infer_fixed_exit", "load_model",
    "per_class_exits", "save_model", "sweep", "synth_dataset", "train_loop",
    "arch", "config", "data", "evaluation", "frontend", "layers", "modelio",
    "runtime", "training",
]
