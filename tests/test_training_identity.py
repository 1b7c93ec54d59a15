"""Training with the blocked, in-place layer engine gives the bits of its one-shot references.

Each family trains one epoch with Adam and with Bop, once on the engine and
once with the references of `oracles` patched into `eebnn.layers`, on the
same host. The parameters, buffers and history (bar wall-clock seconds) must
be identical, so the comparison needs no stored hashes.
"""
import numpy as np
import pytest

import oracles
from eebnn import arch, data, layers, training

REFERENCES = [
    (layers, "_conv_forward", oracles.conv_forward_reference),
    (layers, "_conv_input_grad", oracles.conv_input_grad_reference),
    (layers.BatchNorm, "forward", oracles.batchnorm_forward_reference),
    (layers.BatchNorm, "backward", oracles.batchnorm_backward_reference),
    (layers.BinConv2d, "forward", oracles.binconv_forward_reference),
    (layers.BinConv2d, "backward", oracles.binconv_backward_reference),
    (arch.MeliusBlock, "forward", oracles.melius_forward_reference),
]


@pytest.fixture(scope="module")
def small_bank():
    # 18 training clips: batches of 8, 8 and a ragged 2; 6 test clips
    dataset = data.synth_dataset(3, 8, "mixed", seed=21)
    return dataset, data.FeatureBank(dataset, n_frames=arch.toy_spec().input_shape[0])


def _train(family, optimizer, dataset, bank):
    model = arch.build(arch.toy_spec(family, n_classes=dataset.n_classes), seed=4)
    cfg = training.TrainConfig(optimizer=optimizer, epochs=1, batch_size=8, seed=2, lr=0.003)
    history = training.train_loop(model, dataset, cfg, bank=bank)
    for record in history:
        del record["seconds"]
    state = {f"{path}.{name}": arr.copy() for path, lay in model.named_layers()
             for name, arr in {**lay.params(), **lay.buffers()}.items()}
    return state, history


@pytest.mark.parametrize("optimizer", training.OPTIMIZERS)
@pytest.mark.parametrize("family", arch.FAMILIES)
def test_training_matches_one_shot_references(family, optimizer, small_bank, monkeypatch):
    engine_state, engine_history = _train(family, optimizer, *small_bank)
    for owner, name, reference in REFERENCES:
        monkeypatch.setattr(owner, name, reference)
    ref_state, ref_history = _train(family, optimizer, *small_bank)
    assert engine_history == ref_history
    assert engine_state.keys() == ref_state.keys()
    for key, arr in engine_state.items():
        assert np.array_equal(arr, ref_state[key]), key
