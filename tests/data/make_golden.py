"""Regenerate the frozen artifacts of this directory.

    PYTHONPATH=src python tests/data/make_golden.py

corpus.txt is a small synthetic corpus, written only when it is missing:
its first TRAIN_DOCS documents are trained on and the rest are decoded.
For each encoder, <encoder>.npz is an ordernet-checkpoint-v1 file of a
tiny model trained for EPOCHS epochs, with its AdaGrad state.  expected.json
holds, per encoder, what frozen_outputs computes from that checkpoint:
greedy orders and whole width-4 beams of the decoded documents, with their
log-probabilities, then the loss of one more train_epoch and every parameter
after it.  tests/test_frozen.py recomputes these from the checkpoints.

A change that moves these numbers on purpose reruns this script and states
the largest difference from the previous expected.json.
"""

import json
import sys
from pathlib import Path

import numpy as np

from ordernet.corpus import build_instances, build_vocab, ingest_corpus, noise_pool_of
from ordernet.decoding import beam_decode
from ordernet.synthetic import generate_documents, write_corpus
from ordernet.training import (AdaGradState, Model, TrainConfig, checkpoint_save,
                               decode_instances, train_epoch)

HERE = Path(__file__).resolve().parent
TRAIN_DOCS = 8
BEAM = 4
EPOCHS = 2  # the training of the checkpoints
FROZEN_EPOCH = EPOCHS + 1
# One setting per encoder, between them covering both length modes and noise.
SETTINGS = {
    "cbow": dict(fixed_length=False, noise_mode="always_one"),
    "cnn": dict(fixed_length=True, filter_lengths=(1, 2), feature_maps=2),
    "lstm": dict(fixed_length=False),
}


def splits():
    """(train, decode) documents of corpus.txt."""
    documents = ingest_corpus(HERE / "corpus.txt").documents
    return documents[:TRAIN_DOCS], documents[TRAIN_DOCS:]


def _order(order):
    return [list(order.positions), order.stopped, order.log_prob]


def frozen_outputs(model, opt_state):
    """What expected.json records for a checkpoint; trains model one epoch."""
    train_docs, decode_docs = splits()
    cfg = model.config
    noise_pool = noise_pool_of(train_docs) if cfg.noise_mode != "none" else None
    instances = build_instances(decode_docs, model.vocab, cfg.seed, 0,
                                noise_mode=cfg.noise_mode, fixed_length=cfg.fixed_length)
    outputs = {
        "greedy": [_order(o) for o in decode_instances(model, instances, "greedy")],
        "beam": [[_order(o) for o in beam_decode(inst.inputs, model.params, BEAM,
                                                 inst.has_stop)[1]]
                 for inst in instances],
    }
    outputs["loss"] = train_epoch(model, train_docs, FROZEN_EPOCH, opt_state, noise_pool)
    outputs["params"] = {p.name: p.value.reshape(-1).tolist()
                         for p in model.params.all_params()}
    return outputs


def main():
    if not (HERE / "corpus.txt").exists():
        texts = generate_documents(TRAIN_DOCS + 4, np.random.default_rng(2026),
                                   sentences_per_doc=4, max_fillers=2)
        write_corpus(HERE / "corpus.txt", texts)
    train_docs, _ = splits()
    expected = {}
    for encoder, settings in SETTINGS.items():
        config = TrainConfig(encoder=encoder, hidden_dim=4, embed_dim=3, recurrent_dim=4,
                             batch_size=4, epochs=EPOCHS, adagrad_epsilon=0.3, seed=11,
                             **settings)
        model = Model.create(config, build_vocab(train_docs))
        state = AdaGradState(model.params.all_params(), config.learning_rate,
                             config.adagrad_epsilon)
        noise_pool = noise_pool_of(train_docs) if config.noise_mode != "none" else None
        for epoch in range(1, config.epochs + 1):
            train_epoch(model, train_docs, epoch, state, noise_pool)
        checkpoint_save(HERE / f"{encoder}.npz", model, state, meta={"epoch": config.epochs})
        expected[encoder] = frozen_outputs(model, state)
    (HERE / "expected.json").write_text(json.dumps(expected) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
