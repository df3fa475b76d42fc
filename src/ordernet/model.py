"""Pointer network over sentences: context encoder, attention decoder, loss.

The encoder LSTM reads the sentence vectors in their given (shuffled) order;
its states double as attention keys.  The decoder LSTM starts from the final
encoder state and points at one input position per step through an additive
attention: the logit of position j at step i is v . tanh(W^T [e_j ; d_i]),
with a separate learned key standing in for the stop action when
variable-length output is enabled.  Already chosen positions are masked out,
so emitted orders can never repeat a position.

encode_batch encodes a batch with one embedding lookup, one sentence-encoder
op and one context-LSTM op.  The loss is defined once, for a whole
minibatch on one graph: batch_log_probs encodes every document, runs the
teacher-forced decoder of all of them as one LSTM op and scores every
pointing step with one attention op, except a forced last step (one visible
slot, log-probability exactly 0), which it neither runs nor scores.
sequence_log_prob and encode_document are its one-document cases.  For
saliency, advance_decoder and decode_step step a single decoder state over
encode_document's BatchEncoding; they are compositions of Graph primitives
(the decoder LSTM step is encoders.lstm_step), with no fused per-step op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, Param, Tensor, single_blas_thread
from .corpus import stable_seed
from .encoders import LstmCell, create_cnn_filters, lstm_step
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
    """Every trainable tensor of the model in a fixed creation order, and its encoder kind."""

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
    def create(cls, config, vocab_size, pretrained=None):
        """Fresh parameters for the encoder kind, sizes, hidden_dim and seed of
        a training.TrainConfig.  Weights are uniform(-0.08, 0.08) except
        embeddings, which come from `pretrained` when given and
        uniform(-0.1, 0.1) otherwise, with a zero padding row.  Creation
        order is fixed so the seed pins every value."""
        rng = np.random.default_rng(stable_seed(config.seed, "init"))
        if pretrained is not None:
            emb = np.array(pretrained, dtype=np.float64)
            if emb.shape != (vocab_size, config.embed_dim):
                raise IndexRangeError(
                    f"pretrained embeddings {emb.shape} do not match "
                    f"({vocab_size}, {config.embed_dim})")
        else:
            emb = rng.uniform(-EMBED_INIT_RANGE, EMBED_INIT_RANGE,
                              size=(vocab_size, config.embed_dim))
            emb[0] = 0.0
        embeddings = Param("embeddings", emb)

        word_cell = None
        cnn_filters = None
        if config.encoder == "lstm":
            word_cell = LstmCell.create("word_lstm", config.embed_dim,
                                        config.recurrent_dim, rng)
        elif config.encoder == "cnn":
            cnn_filters = create_cnn_filters("cnn", config, rng)

        hidden_dim = config.hidden_dim
        sent_dim = config.sentence_dim
        context_cell = LstmCell.create("context_lstm", sent_dim, hidden_dim, rng)
        decoder_cell = LstmCell.create("decoder_lstm", sent_dim, hidden_dim, rng)
        attn_w = Param("attn.w", rng.uniform(
            -0.08, 0.08, size=(2 * hidden_dim, hidden_dim)))
        attn_v = Param("attn.v", rng.uniform(-0.08, 0.08, size=hidden_dim))
        start_input = Param("start_input", rng.uniform(-0.08, 0.08, size=sent_dim))
        stop_key = Param("stop_key", rng.uniform(-0.08, 0.08, size=hidden_dim))
        return cls(config.encoder, hidden_dim, embeddings, word_cell, cnn_filters,
                   context_cell, decoder_cell, attn_w, attn_v, start_input, stop_key)

    def all_params(self):
        params = [self.embeddings]
        if self.word_cell is not None:
            params += self.word_cell.params()
        for f in self.cnn_filters or ():
            params += f.params()
        params += self.context_cell.params()
        params += self.decoder_cell.params()
        params += [self.attn_w, self.attn_v, self.start_input, self.stop_key]
        return params


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
    and the sentence encoder is one op over all sentences of the batch; the
    lstm encoder gets the word ids with the embeddings, so it projects each
    distinct word once.  The word and context LSTMs start from zero states,
    passed to Graph.lstm_sequence as no state at all.
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
    if params.encoder == "cbow":
        vectors = graph.mean_rows(words, sentence_lengths)
    elif params.encoder == "cnn":
        vectors = graph.conv_max(words, sentence_lengths, params.cnn_filters)
    else:
        cell = params.word_cell
        _, vectors, _ = graph.lstm_sequence(words, sentence_lengths, None, None, cell.w, cell.b,
                                            keep_hidden=False, index=ids)
    doc_lengths = np.array([len(doc) for doc in documents])
    cell = params.context_cell
    context, final_h, final_c = graph.lstm_sequence(vectors, doc_lengths, None, None,
                                                    cell.w, cell.b)
    return BatchEncoding(words, sentence_lengths, vectors, doc_lengths,
                         np.cumsum(doc_lengths) - doc_lengths, context, final_h, final_c)


def encode_document(graph, sentences, params):
    """encode_batch of one document."""
    return encode_batch(graph, [sentences], params)


def decode_step(graph, decoder_hidden, encoded, mask, params, allow_stop=False):
    """Pointing distribution over input positions (plus stop when allowed).

    mask[j] True hides position j; the stop slot, when present, is the last
    entry.  The logit of slot j is attn_v . tanh(attn_w^T [key_j ; hidden]),
    computed here with attn_w split into its key and query halves.
    """
    h = params.hidden_dim
    rows = graph.stack_rows([encoded.context, params.stop_key]) if allow_stop else encoded.context
    keys = graph.matmul(rows, graph.narrow(params.attn_w, 0, h))
    query = graph.matmul(decoder_hidden, graph.narrow(params.attn_w, h, 2 * h))
    logits = graph.matmul(graph.tanh(graph.add_rowvec(keys, query)), params.attn_v)
    return graph.masked_softmax(logits, mask)


def advance_decoder(graph, state, chosen, encoded, params):
    """Feed the decoder its next input: START or the chosen sentence's vector."""
    if chosen == START:
        x = params.start_input
    else:
        n = len(encoded.sentence_lengths)
        if not 0 <= chosen < n:
            raise IndexRangeError(f"chosen position {chosen} outside {n} inputs")
        x = graph.lookup(encoded.sentences, chosen)
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
    scored target sentence but the last) as one lstm_sequence op from the
    context LSTM's final states, projecting each distinct input row once,
    and one pointer_log_probs op for every scored step.

    A target's last step is not scored when it is forced: when the target
    is as long as the document has slots (n in fixed-length mode, n + 1
    for a permutation followed by the stop), the last step has one visible
    slot, so its log-probability is exactly 0 and its gradient exactly
    zero.  A fixed-length document of n > 1 sentences thus runs n - 1
    decoder and pointer steps; a one-step target keeps its step.
    """
    if len(documents) != len(targets):
        raise InvalidOrderError(f"{len(documents)} documents but {len(targets)} targets")
    allow_stop = [validate_target(target, len(doc)) for doc, target in zip(documents, targets)]
    scored = [target[:-1] if 1 < len(target) == len(doc) + stop else target
              for doc, target, stop in zip(documents, targets, allow_stop)]
    batch = encode_batch(graph, documents, params)
    n_sentences = len(batch.sentence_lengths)

    # Row 0 of the decoder's input table is START, row 1 + i sentence i.
    inputs = graph.stack_rows([params.start_input, batch.sentences])
    input_rows = np.fromiter(
        (row for offset, target in zip(batch.doc_offsets, scored)
         for row in [0] + [1 + offset + p for p in target[:-1]]),
        dtype=np.intp, count=sum(len(target) for target in scored))
    queries, _, _ = graph.lstm_sequence(
        graph.lookup(inputs, input_rows), [len(target) for target in scored],
        batch.final_h, batch.final_c, params.decoder_cell.w, params.decoder_cell.b,
        index=input_rows)

    # Key row n_sentences is the stop key, the last slot of a document
    # decoded in variable-length mode.
    keys = graph.stack_rows([batch.context, params.stop_key])
    slots = np.full((len(documents), batch.doc_lengths.max() + 1), -1)
    steps = np.full((len(documents), max(len(target) for target in scored)), -1)
    for b, (offset, n, target) in enumerate(zip(batch.doc_offsets, batch.doc_lengths, scored)):
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

    Runs the decoder teacher-forced through `prefix` (distinct positions),
    takes the distribution of the next step, and differentiates the
    probability of `choice` (the greedy argmax when omitted, else a slot
    not in the prefix) with respect to each word embedding use (a row of
    the document's one embedding lookup), on one BLAS thread.  The
    parameters' gradients are left as they were found.
    A forced step, whose one free slot is the choice, builds no graph: its
    probability is exactly 1 and every score exactly 0, as backward gives.
    """
    n = len(instance.inputs)
    prefix = list(prefix)
    validate_target(prefix + [n], n)  # distinct positions in range
    slots = n + 1 if allow_stop else n
    if choice is not None and (choice in prefix or not 0 <= choice < slots):
        raise InvalidOrderError(f"choice {choice} is not a free slot of {slots}")
    if len(prefix) == slots - 1:
        (free,) = set(range(slots)) - set(prefix)
        return SaliencyResult(step=len(prefix) + 1, choice=free, probability=1.0,
                              scores=[[0.0] * len(sentence) for sentence in instance.inputs])
    with single_blas_thread():
        graph = Graph()
        encoded = encode_document(graph, instance.inputs, params)
        state = (graph.lookup(encoded.final_h, 0), graph.lookup(encoded.final_c, 0))
        mask = np.zeros(slots, dtype=bool)
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
        # backward() adds into every parameter's gradient; a caller between
        # training steps must not see saliency's share of it.
        saved = [(param, param.grad.copy()) for param in params.all_params()]
        try:
            graph.backward(prob)
        finally:
            for param, grad in saved:
                param.grad[...] = grad

        norms = iter([float(np.linalg.norm(row)) for row in encoded.words.grad])
        scores = [[next(norms) for _ in range(length)] for length in encoded.sentence_lengths]
    return SaliencyResult(
        step=len(prefix) + 1,
        choice=choice,
        probability=float(prob.value),
        scores=scores,
    )
