"""Pointer network over sentences: context encoder, attention decoder, loss.

The encoder LSTM reads the sentence vectors in their given (shuffled) order;
its states double as attention keys.  The decoder LSTM starts from the final
encoder state and points at one input position per step through an additive
attention: the logit of position j at step i is v . tanh(W^T [e_j ; d_i]),
with a separate learned key standing in for the stop action when
variable-length output is enabled.  Already chosen positions are masked out,
so emitted orders can never repeat a position.

The loss is defined once, for a whole minibatch on one graph:
batch_log_probs encodes every document, runs the teacher-forced decoder of
all of them as one LSTM op and scores every pointing step with one
attention op.  sequence_log_prob and encode_document are its one-document
cases; advance_decoder and decode_step step a single decoder state, for
saliency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Graph, Param, Tensor, row_view
from .corpus import stable_seed
from .encoders import (
    EncoderConfig,
    LstmCell,
    cbow_vectors,
    cnn_vectors,
    create_cnn_filters,
    lstm_run,
    lstm_step,
    lstm_vectors,
)
from .errors import EmptyInputError, IndexRangeError, InvalidOrderError, NumericError

# Not called here (every sentence of a batch is encoded by one op), but
# bound so that a profiler can wrap every sentence encoder in this
# namespace (bench/tracing.py does).
from .encoders import cbow_vector, cnn_vector, lstm_vector  # noqa: F401

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

    def encode_sentences(self, graph, words, lengths):
        """One vector per sentence, as the rows of one matrix.

        words holds every word embedding, one row each, and sentence s is
        the next lengths[s] rows.
        """
        if self.encoder.kind == "cbow":
            return cbow_vectors(graph, words, lengths)
        if self.encoder.kind == "cnn":
            return cnn_vectors(graph, words, lengths, self.cnn_filters)
        return lstm_vectors(graph, words, lengths, self.word_cell)


@dataclass
class BatchEncoding:
    """Encoder outputs for a batch of documents, stacked over the batch.

    Row blocks follow the documents in order: document b's sentences are
    doc_lengths[b] consecutive rows of sentences and context, starting at
    row doc_offsets[b].
    """

    words: Tensor              # (words, embed) every word use, sentence by sentence
    sentence_lengths: np.ndarray
    sentences: Tensor          # (sentences, sent_dim) one vector per sentence
    doc_lengths: np.ndarray
    doc_offsets: np.ndarray
    context: Tensor            # (sentences, hidden) encoder states e_1..e_n
    final_h: Tensor            # (documents, hidden) state after each last sentence
    final_c: Tensor


def encode_batch(graph, documents, params):
    """Run the sentence encoders and the context LSTM over a batch of documents.

    documents is a list of documents, each a list of sentences of token
    ids, read in their given order.  One embedding lookup covers every word
    and each encoder is one op over all sentences of the batch.
    """
    if not documents:
        raise EmptyInputError("cannot encode an empty batch")
    if not all(documents):
        raise EmptyInputError("cannot encode a document with no sentences")
    sentences = [sentence for doc in documents for sentence in doc]
    sentence_lengths = np.array([len(sentence) for sentence in sentences])
    if sentence_lengths.min() == 0:
        raise EmptyInputError("cannot encode an empty sentence")
    ids = np.fromiter((t for sentence in sentences for t in sentence), dtype=np.intp,
                      count=int(sentence_lengths.sum()))
    words = graph.lookup(params.embeddings, ids)
    vectors = params.encode_sentences(graph, words, sentence_lengths)
    doc_lengths = np.array([len(doc) for doc in documents])
    context, final_h, final_c = lstm_run(graph, vectors, doc_lengths, params.context_cell)
    return BatchEncoding(words, sentence_lengths, vectors, doc_lengths,
                         np.cumsum(doc_lengths) - doc_lengths, context, final_h, final_c)


@dataclass
class EncodedInstance:
    """Forward state shared by every decode step of one instance."""

    word_vectors: list         # per sentence, per word embedding tensors
    sentence_vectors: list     # one vector per input sentence
    context_hidden: list       # encoder hidden states e_1..e_n (attention keys)
    final_state: tuple         # (hidden, cell) after the last sentence
    _projected_keys: dict = field(default_factory=dict)


def encode_document(graph, sentences, params):
    """encode_batch of one document, with every output split into row views."""
    batch = encode_batch(graph, [sentences], params)
    starts = np.cumsum(batch.sentence_lengths) - batch.sentence_lengths
    word_vectors = [[row_view(batch.words, start + j) for j in range(length)]
                    for start, length in zip(starts, batch.sentence_lengths)]
    n = len(sentences)
    sentence_vectors = [row_view(batch.sentences, i) for i in range(n)]
    context_hidden = [row_view(batch.context, i) for i in range(n)]
    final_state = (row_view(batch.final_h, 0), row_view(batch.final_c, 0))
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


def batch_log_probs(graph, documents, targets, params):
    """Teacher-forced log-probability of each document's target, as a (B,) tensor.

    A target ending with the stop index (the document's sentence count)
    includes the stop step and puts that document in variable-length mode.
    The whole batch is one graph: encode_batch, the decoder LSTM over
    every document's teacher-forced inputs (START, then the vector of each
    target sentence but the last) as one lstm_sequence op from the context
    LSTM's final states, and one pointer_log_probs op for every step.
    """
    if len(documents) != len(targets):
        raise InvalidOrderError(f"{len(documents)} documents but {len(targets)} targets")
    allow_stop = [validate_target(target, len(doc)) for doc, target in zip(documents, targets)]
    batch = encode_batch(graph, documents, params)
    n_sentences = len(batch.sentence_lengths)

    # Row 0 of the decoder's input table is START, row 1 + i sentence i.
    inputs = graph.stack_rows([params.start_input, batch.sentences])
    input_rows = np.fromiter(
        (row for offset, target in zip(batch.doc_offsets, targets)
         for row in [0] + [1 + offset + p for p in target[:-1]]),
        dtype=np.intp, count=sum(len(target) for target in targets))
    queries, _, _ = graph.lstm_sequence(
        graph.lookup(inputs, input_rows), [len(target) for target in targets],
        batch.final_h, batch.final_c, params.decoder_cell.w, params.decoder_cell.b)

    # Key row n_sentences is the stop key, the last slot of a document
    # decoded in variable-length mode.
    keys = graph.stack_rows([batch.context, params.stop_key])
    slots = np.full((len(documents), batch.doc_lengths.max() + 1), -1)
    steps = np.full((len(documents), max(len(target) for target in targets)), -1)
    for b, (offset, n, target) in enumerate(zip(batch.doc_offsets, batch.doc_lengths, targets)):
        slots[b, :n] = np.arange(offset, offset + n)
        if allow_stop[b]:
            slots[b, n] = n_sentences
        steps[b, :len(target)] = target
    return graph.pointer_log_probs(keys, slots, queries, steps, params.attn_w, params.attn_v)


def sequence_log_prob(graph, sentences, target, params):
    """batch_log_probs of one document, as a scalar tensor."""
    return graph.pick(batch_log_probs(graph, [sentences], [list(target)], params), 0)


def batch_loss(graph, instances, params, reg_lambda):
    """Mean negative log-likelihood plus (reg_lambda / 2) * ||params||^2.

    Raises NumericError naming the first instance (by doc_id) whose
    log-probability is not finite, before anything is differentiated.
    """
    if not instances:
        raise EmptyInputError("loss over an empty batch")
    # The penalty goes on the tape first, so backward() adds its gradient
    # last, after every other op's scratch arrays are gone.
    penalty = graph.sum_squares(params.all_params()) if reg_lambda else None
    log_probs = batch_log_probs(graph, [inst.inputs for inst in instances],
                                [inst.target for inst in instances], params)
    bad = np.flatnonzero(~np.isfinite(log_probs.value))
    if bad.size:
        inst = instances[bad[0]]
        name = getattr(inst, "doc_id", f"instance {bad[0]}")
        raise NumericError(f"{name}: log-probability is {float(log_probs.value[bad[0]])}")
    loss = graph.scale(graph.sum(log_probs), -1.0 / len(instances))
    if penalty is not None:
        loss = graph.add(loss, graph.scale(penalty, reg_lambda / 2.0))
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
