"""Sentence encoders: averaged bag of words, convolutional, and recurrent.

Each encoder is one Graph op over the word rows of any number of sentences,
which model.encode_batch calls directly: Graph.mean_rows (cbow),
Graph.conv_max (cnn: max-over-time tanh feature maps per filter width) or
Graph.lstm_sequence (lstm: the final hidden state).  This module holds the
encoders' parameters, the one-step LSTM composition lstm_step, and the
*_vector functions, which run the same ops on one sentence given as a list
of word tensors and look up the one row they make as a vector.  Only
model's per-step reference decoder calls lstm_step, and nothing in the
package calls the *_vector functions; the tests compare against them and
bench/tracing.py wraps them by name.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .autodiff import Param
from .errors import EmptyInputError

ENCODER_KINDS = ("cbow", "cnn", "lstm")

WEIGHT_INIT_RANGE = 0.08  # uniform init half-width for non-embedding weights


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
    """One LSTM transition composed from Graph primitives (there is no fused
    step op); returns the new (hidden, cell) pair."""
    d = cell.state_dim
    pre = graph.add(graph.matmul(graph.concat([x, h_prev]), cell.w), cell.b)
    gate_in = graph.sigmoid(graph.narrow(pre, 0, d))
    gate_out = graph.sigmoid(graph.narrow(pre, d, 2 * d))
    gate_forget = graph.sigmoid(graph.narrow(pre, 2 * d, 3 * d))
    candidate = graph.tanh(graph.narrow(pre, 3 * d, 4 * d))
    c = graph.add(graph.mul(c_prev, gate_forget), graph.mul(candidate, gate_in))
    return graph.mul(gate_out, graph.tanh(c)), c


class ConvFilter(NamedTuple):
    """One filter width of the convolutional encoder, as Graph.conv_max takes it."""

    width: int
    w: Param
    b: Param

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


def _one_sentence(graph, word_vectors):
    if not word_vectors:
        raise EmptyInputError("cannot encode an empty sentence")
    return graph.stack_rows(word_vectors), [len(word_vectors)]


def cbow_vector(graph, word_vectors):
    """Plain average of one sentence's word vectors."""
    words, lengths = _one_sentence(graph, word_vectors)
    return graph.lookup(graph.mean_rows(words, lengths), 0)


def cnn_vector(graph, word_vectors, filters):
    """Max-over-time tanh feature maps of one sentence, one block per filter width."""
    words, lengths = _one_sentence(graph, word_vectors)
    return graph.lookup(graph.conv_max(words, lengths, filters), 0)


def lstm_vector(graph, word_vectors, cell):
    """Final hidden state of an LSTM run from a zero state over one sentence."""
    words, lengths = _one_sentence(graph, word_vectors)
    _, h, _ = graph.lstm_sequence(words, lengths, None, None, cell.w, cell.b, keep_hidden=False)
    return graph.lookup(h, 0)
