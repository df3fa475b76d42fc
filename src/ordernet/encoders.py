"""Sentence encoders: averaged bag of words, convolutional, and recurrent.

Each encoder maps a sentence (a list of word-embedding tensors) to a single
vector.  The convolutional encoder applies tanh feature maps of several
filter widths and max-pools each over time; the recurrent encoder is an LSTM
whose final hidden state is the sentence vector, run over every sentence of
a document at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Param, Tensor
from .errors import ConfigError, EmptyInputError

ENCODER_KINDS = ("cbow", "cnn", "lstm")

WEIGHT_INIT_RANGE = 0.08  # uniform init half-width for non-embedding weights


@dataclass(frozen=True)
class EncoderConfig:
    """Dimensions of the sentence encoder family."""

    kind: str = "lstm"
    embed_dim: int = 100
    filter_lengths: tuple = (3, 4, 5)
    feature_maps: int = 128
    recurrent_dim: int = 200

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ConfigError(f"unknown encoder kind {self.kind!r}")
        object.__setattr__(self, "filter_lengths", tuple(self.filter_lengths))

    @property
    def output_dim(self):
        if self.kind == "cbow":
            return self.embed_dim
        if self.kind == "cnn":
            return self.feature_maps * len(self.filter_lengths)
        return self.recurrent_dim


class LstmCell:
    """Fused-gate LSTM cell; gates are packed as (input, output, forget, candidate)."""

    def __init__(self, w, b, state_dim):
        self.w = w
        self.b = b
        self.state_dim = state_dim

    @classmethod
    def create(cls, name, input_dim, state_dim, rng):
        w = Param(f"{name}.w", rng.uniform(
            -WEIGHT_INIT_RANGE, WEIGHT_INIT_RANGE, size=(input_dim + state_dim, 4 * state_dim)))
        bias = np.zeros(4 * state_dim)
        bias[2 * state_dim:3 * state_dim] = 1.0  # forget gate starts open
        b = Param(f"{name}.b", bias)
        return cls(w, b, state_dim)

    def params(self):
        return [self.w, self.b]


def lstm_step(graph, x, h_prev, c_prev, cell):
    """One LSTM transition; returns the new (hidden, cell) pair."""
    return graph.lstm_step(x, h_prev, c_prev, cell.w, cell.b)


def lstm_run(graph, sequences, cell):
    """Run the cell over each sequence from a zero state, all in one op.

    Returns (hidden, finals) as Graph.lstm_sequence does: every step's
    hidden state per sequence, and each sequence's last (hidden, cell).
    """
    rows = len(sequences)
    h0 = Tensor(np.zeros((rows, cell.state_dim)))
    c0 = Tensor(np.zeros((rows, cell.state_dim)))
    return graph.lstm_sequence(sequences, h0, c0, cell.w, cell.b)


class ConvFilter:
    """One filter width of the convolutional encoder."""

    def __init__(self, width, w, b):
        self.width = width
        self.w = w
        self.b = b

    def params(self):
        return [self.w, self.b]


def create_cnn_filters(name, config, rng):
    filters = []
    for width in config.filter_lengths:
        w = Param(f"{name}.w{width}", rng.uniform(
            -WEIGHT_INIT_RANGE, WEIGHT_INIT_RANGE,
            size=(width * config.embed_dim, config.feature_maps)))
        b = Param(f"{name}.b{width}", np.zeros(config.feature_maps))
        filters.append(ConvFilter(width, w, b))
    return filters


def cbow_vector(graph, word_vectors):
    """Plain average of the word vectors."""
    if not word_vectors:
        raise EmptyInputError("cannot encode an empty sentence")
    return graph.mean_rows(graph.stack_rows(word_vectors))


def cnn_vector(graph, word_vectors, filters):
    """Max-over-time tanh feature maps, one block per filter width.

    Sentences shorter than a filter width are zero-padded up to it, which
    yields exactly one window for that width.
    """
    if not word_vectors:
        raise EmptyInputError("cannot encode an empty sentence")
    embed_dim = word_vectors[0].value.shape[0]
    pooled = []
    for f in filters:
        vecs = list(word_vectors)
        while len(vecs) < f.width:
            vecs.append(Tensor(np.zeros(embed_dim)))
        windows = [
            graph.concat(vecs[k:k + f.width])
            for k in range(len(vecs) - f.width + 1)
        ]
        feature_rows = graph.tanh(
            graph.add_rowvec(graph.matmul(graph.stack_rows(windows), f.w), f.b))
        pooled.append(graph.max_over_time(feature_rows))
    return graph.concat(pooled)


def lstm_vector(graph, word_vectors, cell):
    """Final hidden state of an LSTM run over the words, from a zero state."""
    return lstm_vectors(graph, [word_vectors], cell)[0]


def lstm_vectors(graph, sentences, cell):
    """lstm_vector of every sentence, run as one padded batch."""
    _, finals = lstm_run(graph, sentences, cell)
    return [h for h, _ in finals]
