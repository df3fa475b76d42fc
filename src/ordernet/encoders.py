"""Sentence encoders: averaged bag of words, convolutional, and recurrent.

Each encoder maps a sentence to a single vector, and runs as one op over
any number of sentences: the words of every sentence are the rows of one
matrix, each sentence a run of `lengths[s]` consecutive rows, and the
sentence vectors come out as the rows of another.  The averaging encoder is
a segment mean; the convolutional encoder applies tanh feature maps of
several filter widths and max-pools each over time; the recurrent encoder
is an LSTM whose final hidden state is the sentence vector.  The *_vector
functions encode a single sentence given as a list of word tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Param, Tensor, row_view
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


def lstm_run(graph, x, lengths, cell, keep_hidden=True):
    """Run the cell over each run of rows of x from a zero state, in one op.

    Returns (hidden, final_h, final_c) as Graph.lstm_sequence does.
    """
    zeros = Tensor(np.zeros((len(lengths), cell.state_dim)))
    return graph.lstm_sequence(x, lengths, zeros, zeros, cell.w, cell.b, keep_hidden)


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


def cbow_vectors(graph, words, lengths):
    """Plain average of each sentence's word vectors."""
    return graph.mean_rows(words, lengths)


def cnn_vectors(graph, words, lengths, filters):
    """Max-over-time tanh feature maps, one block of columns per filter width.

    Sentences shorter than a filter width are zero-padded up to it, which
    yields exactly one window for that width.
    """
    return graph.conv_max(words, lengths, [(f.width, f.w, f.b) for f in filters])


def lstm_vectors(graph, words, lengths, cell):
    """Final hidden state of an LSTM run over each sentence's words."""
    _, final_h, _ = lstm_run(graph, words, lengths, cell, keep_hidden=False)
    return final_h


def _one_sentence(encode, graph, word_vectors, *args):
    if not word_vectors:
        raise EmptyInputError("cannot encode an empty sentence")
    words = graph.stack_rows(word_vectors)
    return row_view(encode(graph, words, [len(word_vectors)], *args), 0)


def cbow_vector(graph, word_vectors):
    """cbow_vectors of one sentence given as a list of word tensors."""
    return _one_sentence(cbow_vectors, graph, word_vectors)


def cnn_vector(graph, word_vectors, filters):
    """cnn_vectors of one sentence given as a list of word tensors."""
    return _one_sentence(cnn_vectors, graph, word_vectors, filters)


def lstm_vector(graph, word_vectors, cell):
    """lstm_vectors of one sentence given as a list of word tensors."""
    return _one_sentence(lstm_vectors, graph, word_vectors, cell)
