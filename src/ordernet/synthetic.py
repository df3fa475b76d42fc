"""Synthetic ordinal-cue corpus for desk-scale experiments.

Every document's sentences begin with an ordinal cue word that reveals the
gold order, followed by a document-level topic word shared by all of its
sentences, and a few fillers drawn from that topic's own small pool.  Tying
the fillers to the topic makes every word of a sentence carry the document
identity, which is what lets a model recognize foreign noise sentences.
Usable as a module or as a script:

    python -m ordernet.synthetic --out corpus_dir --train 500 --test 100 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, OrdernetError

ORDINALS = (
    "first", "second", "third", "fourth", "fifth",
    "sixth", "seventh", "eighth", "ninth", "tenth",
)

TOPICS = (
    "harbor", "forest", "market", "castle", "river", "garden", "bridge",
    "desert", "island", "meadow", "valley", "canyon", "temple", "village",
    "glacier", "lagoon", "orchard", "prairie", "quarry", "tundra",
    "volcano", "wetland", "archive", "bakery", "cellar", "foundry",
    "granary", "harvest", "lantern", "mill",
)

FILLERS = (
    "amber", "basalt", "cedar", "dusty", "ember", "fallow", "gentle",
    "hollow", "ivory", "jagged", "keen", "limber", "mellow", "narrow",
    "oaken", "pale", "quiet", "rustic", "sturdy", "tawny", "umber",
    "vivid", "weathered", "young", "zesty", "brisk", "calm", "deep",
    "eager", "faint", "grand", "humble", "iron", "jolly", "kind",
    "lively", "mild", "noble", "old", "plain", "rough", "swift",
    "tall", "warm", "wide", "small", "bright", "dark", "soft", "bold",
)


FILLERS_PER_TOPIC = 3


def topic_fillers(topic_index):
    """The small filler pool owned by one topic."""
    return [FILLERS[(FILLERS_PER_TOPIC * topic_index + j) % len(FILLERS)]
            for j in range(FILLERS_PER_TOPIC)]


def _check_sentence_count(sentences_per_doc):
    if sentences_per_doc > len(ORDINALS):
        raise ConfigError(f"at most {len(ORDINALS)} sentences per document")


def generate_documents(count, rng, sentences_per_doc=5, min_fillers=1, max_fillers=3):
    """List of documents, each a list of sentence strings in gold order."""
    _check_sentence_count(sentences_per_doc)
    documents = []
    for _ in range(count):
        k = int(rng.integers(len(TOPICS)))
        pool = topic_fillers(k)
        sentences = []
        for i in range(sentences_per_doc):
            n_fill = int(rng.integers(min_fillers, max_fillers + 1))
            fillers = [pool[j] for j in rng.integers(len(pool), size=n_fill)]
            sentences.append(" ".join([ORDINALS[i], TOPICS[k]] + fillers))
        documents.append(sentences)
    return documents


def write_corpus(path, documents):
    """Write documents in the one-sentence-per-line, blank-line-separated format."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for i, sentences in enumerate(documents):
            if i:
                fh.write("\n")
            for s in sentences:
                fh.write(s + "\n")


def generate_splits(out_dir, train=500, test=100, seed=7, sentences_per_doc=5):
    """Write train.txt and test.txt under out_dir; returns their paths."""
    _check_sentence_count(sentences_per_doc)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = {}
    for split, count in (("train", train), ("test", test)):
        docs = generate_documents(count, rng, sentences_per_doc)
        paths[split] = out_dir / f"{split}.txt"
        write_corpus(paths[split], docs)
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--train", type=int, default=500)
    parser.add_argument("--test", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sentences", type=int, default=5)
    args = parser.parse_args(argv)
    try:
        paths = generate_splits(args.out, args.train, args.test, args.seed, args.sentences)
    except OrdernetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for split, path in paths.items():
        print(f"{split}\t{path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
