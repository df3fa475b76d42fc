"""Pointer network over sentences: context encoder, attention decoder, loss.

The encoder LSTM reads the sentence vectors in their given (shuffled) order;
its states double as attention keys.  The decoder LSTM starts from the final
encoder state and points at one input position per step through an additive
attention: the logit of position j at step i is v . tanh(W^T [e_j ; d_i]),
with a separate learned key standing in for the stop action when
variable-length output is enabled.  Already chosen positions are masked out,
so emitted orders can never repeat a position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Graph, Param
from .corpus import stable_seed
from .encoders import (
    EncoderConfig,
    LstmCell,
    cbow_vector,
    cnn_vector,
    create_cnn_filters,
    lstm_run,
    lstm_step,
    lstm_vectors,
)
from .errors import EmptyInputError, IndexRangeError, InvalidOrderError

# Not called here (the lstm encoder runs all sentences through lstm_vectors),
# but bound so that a profiler can wrap every sentence encoder in this
# namespace (bench/tracing.py does).
from .encoders import lstm_vector  # noqa: F401

START = -1  # decoder input sentinel for the first step

EMBED_INIT_RANGE = 0.1  # uniform init half-width for embedding rows


@dataclass(frozen=True)
class Order:
    """A decoded output: chosen input positions, left to right."""

    positions: tuple
    stopped: bool
    log_prob: float


class PtrNetParams:
    """Every trainable tensor of the model, in a fixed creation order."""

    def __init__(self, encoder, hidden_dim, embeddings, word_cell, cnn_filters,
                 context_cell, decoder_cell, attn_w, attn_v, start_input, stop_key):
        self.encoder = encoder
        self.hidden_dim = hidden_dim
        self.embeddings = embeddings
        self.word_cell = word_cell
        self.cnn_filters = cnn_filters
        self.context_cell = context_cell
        self.decoder_cell = decoder_cell
        self.attn_w = attn_w
        self.attn_v = attn_v
        self.start_input = start_input
        self.stop_key = stop_key

    @classmethod
    def create(cls, encoder, hidden_dim, vocab_size, seed, pretrained=None):
        """Build freshly initialized parameters.

        Weights are uniform(-0.08, 0.08) except embeddings, which come from
        `pretrained` when given and uniform(-0.1, 0.1) otherwise, with a zero
        padding row.  Creation order is fixed so a seed pins every value.
        """
        rng = np.random.default_rng(stable_seed(seed, "init"))
        if pretrained is not None:
            emb = np.array(pretrained, dtype=np.float64)
            if emb.shape != (vocab_size, encoder.embed_dim):
                raise IndexRangeError(
                    f"pretrained embeddings {emb.shape} do not match "
                    f"({vocab_size}, {encoder.embed_dim})")
        else:
            emb = rng.uniform(-EMBED_INIT_RANGE, EMBED_INIT_RANGE,
                              size=(vocab_size, encoder.embed_dim))
            emb[0] = 0.0
        embeddings = Param("embeddings", emb)

        word_cell = None
        cnn_filters = None
        if encoder.kind == "lstm":
            word_cell = LstmCell.create("word_lstm", encoder.embed_dim,
                                        encoder.recurrent_dim, rng)
        elif encoder.kind == "cnn":
            cnn_filters = create_cnn_filters("cnn", encoder, rng)

        sent_dim = encoder.output_dim
        context_cell = LstmCell.create("context_lstm", sent_dim, hidden_dim, rng)
        decoder_cell = LstmCell.create("decoder_lstm", sent_dim, hidden_dim, rng)
        attn_w = Param("attn.w", rng.uniform(
            -0.08, 0.08, size=(2 * hidden_dim, hidden_dim)))
        attn_v = Param("attn.v", rng.uniform(-0.08, 0.08, size=hidden_dim))
        start_input = Param("start_input", rng.uniform(-0.08, 0.08, size=sent_dim))
        stop_key = Param("stop_key", rng.uniform(-0.08, 0.08, size=hidden_dim))
        return cls(encoder, hidden_dim, embeddings, word_cell, cnn_filters,
                   context_cell, decoder_cell, attn_w, attn_v, start_input, stop_key)

    def all_params(self):
        params = [self.embeddings]
        if self.word_cell is not None:
            params += self.word_cell.params()
        if self.cnn_filters is not None:
            for f in self.cnn_filters:
                params += f.params()
        params += self.context_cell.params()
        params += self.decoder_cell.params()
        params += [self.attn_w, self.attn_v, self.start_input, self.stop_key]
        return params

    def encode_sentences(self, graph, word_vectors):
        """One vector per sentence; the lstm encoder runs them as one batch."""
        if self.encoder.kind == "cbow":
            return [cbow_vector(graph, wv) for wv in word_vectors]
        if self.encoder.kind == "cnn":
            return [cnn_vector(graph, wv, self.cnn_filters) for wv in word_vectors]
        return lstm_vectors(graph, word_vectors, self.word_cell)


@dataclass
class EncodedInstance:
    """Forward state shared by every decode step of one instance."""

    word_vectors: list         # per sentence, per word embedding tensors
    sentence_vectors: list     # one vector per input sentence
    context_hidden: list       # encoder hidden states e_1..e_n (attention keys)
    final_state: tuple         # (hidden, cell) after the last sentence
    _projected_keys: dict = field(default_factory=dict)


def encode_document(graph, sentences, params):
    """Run the sentence encoders and the context LSTM over the given order."""
    if not sentences:
        raise EmptyInputError("cannot encode a document with no sentences")
    word_vectors = [
        [graph.lookup(params.embeddings, t) for t in sentence]
        for sentence in sentences
    ]
    sentence_vectors = params.encode_sentences(graph, word_vectors)
    (context_hidden,), (final_state,) = lstm_run(graph, [sentence_vectors], params.context_cell)
    return EncodedInstance(word_vectors, sentence_vectors, context_hidden, final_state)


def _projected_keys(graph, encoded, params, allow_stop):
    """Attention keys premultiplied by the key half of W, cached per mode."""
    if allow_stop not in encoded._projected_keys:
        rows = list(encoded.context_hidden)
        if allow_stop:
            rows.append(params.stop_key)
        h = params.hidden_dim
        keys = graph.matmul(graph.stack_rows(rows), graph.narrow(params.attn_w, 0, h))
        encoded._projected_keys[allow_stop] = keys
    return encoded._projected_keys[allow_stop]


def decode_step(graph, decoder_hidden, encoded, mask, params, allow_stop=False):
    """Pointing distribution over input positions (plus stop when allowed).

    mask[j] True hides position j; the stop slot, when present, is the last
    entry.  The logit of slot j is attn_v . tanh(attn_w^T [key_j ; hidden]),
    computed here with attn_w split into its key and query halves.
    """
    h = params.hidden_dim
    keys = _projected_keys(graph, encoded, params, allow_stop)
    query = graph.matmul(decoder_hidden, graph.narrow(params.attn_w, h, 2 * h))
    logits = graph.matmul(graph.tanh(graph.add_rowvec(keys, query)), params.attn_v)
    return graph.masked_softmax(logits, mask)


def advance_decoder(graph, state, chosen, encoded, params):
    """Feed the decoder its next input: START or the chosen sentence's vector."""
    if chosen == START:
        x = params.start_input
    else:
        if not 0 <= chosen < len(encoded.sentence_vectors):
            raise IndexRangeError(f"chosen position {chosen} outside "
                                  f"{len(encoded.sentence_vectors)} inputs")
        x = encoded.sentence_vectors[chosen]
    return lstm_step(graph, x, state[0], state[1], params.decoder_cell)


def validate_target(target, n_inputs):
    """Check a target sequence; returns True when it ends with the stop index."""
    target = list(target)
    if not target:
        raise InvalidOrderError("target is empty")
    has_stop = target[-1] == n_inputs
    body = target[:-1] if has_stop else target
    seen = set()
    for p in body:
        if not 0 <= p < n_inputs:
            raise InvalidOrderError(f"target position {p} outside {n_inputs} inputs")
        if p in seen:
            raise InvalidOrderError(f"target repeats position {p}")
        seen.add(p)
    if not has_stop and len(body) != n_inputs:
        raise InvalidOrderError(
            "fixed-length target must use every input exactly once")
    return has_stop


def sequence_log_prob(graph, sentences, target, params):
    """Log-probability of emitting `target` with teacher forcing.

    The stop step is included when the target ends with the stop index
    (len(sentences)); that also switches the candidate set to variable-length
    mode for every step.
    """
    n = len(sentences)
    allow_stop = validate_target(target, n)
    encoded = encode_document(graph, sentences, params)

    state = encoded.final_state
    mask = np.zeros(n + 1 if allow_stop else n, dtype=bool)
    previous = START
    total = None
    for t in target:
        state = advance_decoder(graph, state, previous, encoded, params)
        probs = decode_step(graph, state[0], encoded, mask, params, allow_stop)
        term = graph.log(graph.pick(probs, t))
        total = term if total is None else graph.add(total, term)
        if t < n:
            mask[t] = True
            previous = t
    return total


def batch_loss(graph, instances, params, reg_lambda):
    """Mean negative log-likelihood plus (reg_lambda / 2) * ||params||^2."""
    if not instances:
        raise EmptyInputError("loss over an empty batch")
    total = None
    for inst in instances:
        lp = sequence_log_prob(graph, inst.inputs, inst.target, params)
        total = lp if total is None else graph.add(total, lp)
    loss = graph.scale(total, -1.0 / len(instances))
    if reg_lambda:
        sq = None
        for p in params.all_params():
            term = graph.sum(graph.mul(p, p))
            sq = term if sq is None else graph.add(sq, term)
        loss = graph.add(loss, graph.scale(sq, reg_lambda / 2.0))
    return loss


@dataclass
class SaliencyResult:
    """Word-level attribution for one decode step."""

    step: int                  # 1-based decode step
    choice: int                # slot the probability belongs to (stop = n)
    probability: float
    scores: list               # per input sentence, per word gradient norms


def saliency(instance, prefix, params, choice=None, allow_stop=False):
    """Gradient-norm attribution of one pointing decision onto every word.

    Runs the decoder teacher-forced through `prefix`, takes the distribution
    of the next step, and differentiates the probability of `choice` (the
    greedy argmax when omitted) with respect to each word embedding use.
    """
    n = len(instance.inputs)
    graph = Graph()
    encoded = encode_document(graph, instance.inputs, params)

    state = encoded.final_state
    mask = np.zeros(n + 1 if allow_stop else n, dtype=bool)
    previous = START
    for p in prefix:
        state = advance_decoder(graph, state, previous, encoded, params)
        mask[p] = True
        previous = p
    state = advance_decoder(graph, state, previous, encoded, params)
    probs = decode_step(graph, state[0], encoded, mask, params, allow_stop)

    if choice is None:
        choice = int(np.argmax(probs.value))
    prob = graph.pick(probs, choice)
    graph.backward(prob)

    scores = [
        [float(np.linalg.norm(w.grad)) for w in sentence]
        for sentence in encoded.word_vectors
    ]
    return SaliencyResult(
        step=len(prefix) + 1,
        choice=choice,
        probability=float(prob.value),
        scores=scores,
    )
