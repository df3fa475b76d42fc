"""Document ingestion, vocabulary, pretrained embeddings, and training instances.

Corpus files are UTF-8 text: one sentence per line, documents separated by one
or more blank lines.  Tokenization lowercases and splits punctuation marks
into standalone tokens.  Instances are shuffled views of documents whose
permutation (and optional noise draw) is keyed by (epoch seed, document id),
so every epoch sees fresh but reproducible shufflings.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorpusError, EmptyInputError, FormatError, NoiseSampleError

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

NOISE_MODES = ("none", "always_one", "half")

_PUNCT_TABLE = str.maketrans({c: f" {c} " for c in string.punctuation})

# Bounded retries when a noise draw keeps hitting the current document.
_NOISE_RETRIES = 100


def stable_seed(*parts):
    """Deterministic 64-bit seed from a mix of ints and strings.

    Unlike hash(), this is stable across processes, which the resume and
    replay guarantees depend on.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def numbered_lines(path):
    """(line number, line) of each line of a UTF-8 text file; bytes that are
    not UTF-8 raise FormatError naming the file and the line holding them."""
    with Path(path).open(encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            with Path(path).open("rb") as raw:  # the first line that loses bytes
                lineno = next((n for n, line in enumerate(raw, start=1)
                               if line.decode("utf-8", "ignore").encode("utf-8") != line), "?")
            raise FormatError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def tokenize(text):
    """Lowercased tokens with punctuation split off as standalone tokens."""
    tokens = text.lower().translate(_PUNCT_TABLE).split()
    if not tokens:
        raise EmptyInputError("sentence has no tokens")
    return tokens


@dataclass
class Document:
    """An ordered list of sentences, each a list of token strings."""

    doc_id: str
    sentences: list

    def __post_init__(self):
        if len(self.sentences) < 2:
            raise CorpusError(f"document {self.doc_id!r} has fewer than 2 sentences")
        for s in self.sentences:
            if not s:
                raise EmptyInputError(f"document {self.doc_id!r} contains an empty sentence")


@dataclass
class CorpusStats:
    n_documents: int
    avg_sentences: float
    avg_words: float
    skipped: int


@dataclass
class Corpus:
    documents: list
    stats: CorpusStats


def ingest_corpus(path):
    """Read a corpus file into documents, skipping one-sentence fragments."""
    path = Path(path)
    groups = []
    current = []
    for _, line in numbered_lines(path):
        if line.strip():
            current.append(tokenize(line))
        elif current:
            groups.append(current)
            current = []
    if current:
        groups.append(current)

    documents = []
    skipped = 0
    stem = path.name
    for sentences in groups:
        if len(sentences) < 2:
            skipped += 1
            continue
        documents.append(Document(f"{stem}:{len(documents)}", sentences))

    n = len(documents)
    total_sentences = sum(len(d.sentences) for d in documents)
    total_words = sum(len(s) for d in documents for s in d.sentences)
    stats = CorpusStats(
        n_documents=n,
        avg_sentences=total_sentences / n if n else 0.0,
        avg_words=total_words / n if n else 0.0,
        skipped=skipped,
    )
    return Corpus(documents, stats)


class Vocab:
    """Token identifiers: 0 is padding, 1 is the unknown token."""

    def __init__(self, tokens):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise CorpusError("vocabulary contains duplicate tokens")

    def __len__(self):
        return len(self.id_to_token)

    def id_of(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def encode(self, tokens):
        return [self.id_of(t) for t in tokens]


def build_vocab(documents, min_count=1):
    """Vocabulary over all document tokens, most frequent first, ties lexicographic."""
    if not documents:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    counts = {}
    for doc in documents:
        for sentence in doc.sentences:
            for token in sentence:
                counts[token] = counts.get(token, 0) + 1
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocab(kept)


def load_pretrained_embeddings(path, vocab, dim, rng):
    """Embedding matrix seeded from a `token v1 .. vdim` text file.

    Tokens absent from the file get uniform(-0.1, 0.1) rows; the padding row
    stays zero.  Returns (matrix, coverage) where coverage is the fraction of
    non-special vocabulary tokens found in the file.
    """
    matrix = rng.uniform(-0.1, 0.1, size=(len(vocab), dim))
    matrix[PAD_ID] = 0.0
    found = set()
    for lineno, line in numbered_lines(path):
        parts = line.split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if len(values) != dim:
            raise FormatError(
                f"{path}:{lineno}: expected {dim} values after the token, got {len(values)}"
            )
        token_id = vocab.token_to_id.get(token)
        if token_id is None or token_id in (PAD_ID, UNK_ID):
            continue
        try:
            row = [float(v) for v in values]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-numeric embedding value") from exc
        if not np.isfinite(row).all():
            raise FormatError(f"{path}:{lineno}: non-finite embedding value")
        matrix[token_id] = row
        found.add(token_id)
    total = len(vocab) - 2
    coverage = len(found) / total if total else 0.0
    return matrix, coverage


@dataclass
class Instance:
    """A shuffled (and possibly noised) view of one document.

    target lists the input positions that restore the original sentence
    order; in variable-length mode it ends with the stop index, which equals
    len(inputs).  noise_position is the input slot holding the injected
    sentence, or None.
    """

    doc_id: str
    inputs: list
    words: list
    target: list
    noise_position: int | None
    permutation_seed: int

    @property
    def n_inputs(self):
        return len(self.inputs)

    @property
    def stop_index(self):
        return len(self.inputs)

    @property
    def has_stop(self):
        return bool(self.target) and self.target[-1] == len(self.inputs)

    @property
    def gold_positions(self):
        """Target without the trailing stop marker."""
        return self.target[:-1] if self.has_stop else list(self.target)


def make_instance(doc, vocab, epoch_seed, noise_mode="none", noise_pool=None,
                  fixed_length=True):
    """Shuffle a document into a training/evaluation instance.

    noise_mode is one of NOISE_MODES.  The noise pool is a list of
    (doc_id, sentence tokens) pairs; draws that land on the current document
    are retried a bounded number of times.  Fixed-length mode excludes noise
    and omits the stop marker.
    """
    if noise_mode not in NOISE_MODES:
        raise CorpusError(f"unknown noise mode {noise_mode!r}")
    if fixed_length and noise_mode != "none":
        raise CorpusError("noise injection requires variable-length mode")

    seed = stable_seed(epoch_seed, doc.doc_id)
    rng = np.random.default_rng(seed)
    n = len(doc.sentences)
    perm = rng.permutation(n)

    words = [list(doc.sentences[perm[k]]) for k in range(n)]
    # positions[i] is where gold sentence i sits in the shuffled inputs
    positions = list(np.argsort(perm))

    noise_position = None
    inject = noise_mode == "always_one" or (
        noise_mode == "half" and rng.random() < 0.5
    )
    if inject:
        if not noise_pool:
            raise NoiseSampleError("noise requested but the pool is empty")
        noise_sentence = None
        for _ in range(_NOISE_RETRIES):
            source_id, candidate = noise_pool[rng.integers(len(noise_pool))]
            if source_id != doc.doc_id:
                noise_sentence = candidate
                break
        if noise_sentence is None:
            raise NoiseSampleError(
                f"could not draw a noise sentence outside {doc.doc_id!r}"
            )
        noise_position = int(rng.integers(n + 1))
        words.insert(noise_position, list(noise_sentence))
        positions = [p + 1 if p >= noise_position else p for p in positions]

    target = [int(p) for p in positions]
    if not fixed_length:
        target.append(len(words))

    return Instance(
        doc_id=doc.doc_id,
        inputs=[vocab.encode(w) for w in words],
        words=words,
        target=target,
        noise_position=noise_position,
        permutation_seed=seed,
    )


def noise_pool_of(documents):
    """All (doc_id, sentence) pairs of a split, for drawing noise sentences."""
    return [(d.doc_id, s) for d in documents for s in d.sentences]


def build_instances(documents, vocab, run_seed, epoch, noise_mode="none",
                    fixed_length=True, noise_pool=None):
    """Instances for one epoch (epoch 0 is the evaluation view)."""
    if noise_mode != "none" and noise_pool is None:
        noise_pool = noise_pool_of(documents)
    epoch_seed = stable_seed(run_seed, "epoch", epoch)
    return [
        make_instance(doc, vocab, epoch_seed, noise_mode, noise_pool, fixed_length)
        for doc in documents
    ]
