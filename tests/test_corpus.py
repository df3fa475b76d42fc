"""Tests for ingestion, vocabulary, embeddings, and instance building."""

import hashlib

import numpy as np
import pytest

from ordernet.corpus import (
    PAD_ID,
    UNK_ID,
    Document,
    Vocab,
    build_instances,
    build_vocab,
    ingest_corpus,
    load_pretrained_embeddings,
    make_instance,
    noise_pool_of,
    stable_seed,
    tokenize,
)
from ordernet.errors import (
    ConfigError,
    CorpusError,
    EmptyInputError,
    FormatError,
    NoiseSampleError,
)
from ordernet import synthetic
from ordernet.synthetic import ORDINALS, generate_documents

# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]
    assert tokenize("don't stop") == ["don", "'", "t", "stop"]
    assert tokenize("A  b\tc") == ["a", "b", "c"]
    assert tokenize("...") == [".", ".", "."]


def test_tokenize_rejects_blank_text():
    with pytest.raises(EmptyInputError):
        tokenize("   ")


# ---------------------------------------------------------------------------
# documents and ingestion
# ---------------------------------------------------------------------------


def test_document_needs_two_sentences():
    with pytest.raises(CorpusError):
        Document("d", [["a"]])
    with pytest.raises(EmptyInputError):
        Document("d", [["a"], []])


def test_ingest_corpus_groups_by_blank_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(
        "First sentence here.\nSecond one.\n\n\n"
        "Third doc line one\nand two\nand three\n\n"
        "lonely fragment\n",
        encoding="utf-8")
    corpus = ingest_corpus(path)
    assert corpus.stats.n_documents == 2
    assert corpus.stats.skipped == 1
    assert [d.doc_id for d in corpus.documents] == ["corpus.txt:0", "corpus.txt:1"]
    assert corpus.documents[0].sentences[0] == ["first", "sentence", "here", "."]
    assert len(corpus.documents[1].sentences) == 3


def test_ingest_corpus_handles_missing_trailing_blank(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\nc d", encoding="utf-8")
    corpus = ingest_corpus(path)
    assert corpus.stats.n_documents == 1


def test_ingest_stats_match_independent_recount(tmp_path):
    rng = np.random.default_rng(5)
    lines = []
    docs = []
    for _ in range(12):
        n = int(rng.integers(1, 6))
        doc = [" ".join(f"w{rng.integers(20)}" for _ in range(int(rng.integers(1, 7))))
               for _ in range(n)]
        docs.append(doc)
        lines.extend(doc)
        lines.append("")
    path = tmp_path / "rand.txt"
    path.write_text("\n".join(lines), encoding="utf-8")

    corpus = ingest_corpus(path)
    kept = [d for d in docs if len(d) >= 2]
    assert corpus.stats.n_documents == len(kept)
    assert corpus.stats.skipped == len(docs) - len(kept)
    assert corpus.stats.avg_sentences == pytest.approx(
        sum(len(d) for d in kept) / len(kept))
    expected_words = sum(len(s.split()) for d in kept for s in d)
    assert corpus.stats.avg_words == pytest.approx(expected_words / len(kept))


def test_ingest_corpus_names_the_line_that_is_not_utf8(tmp_path):
    # The bad byte sits far past the first read buffer, so the line number
    # must come from the file, not from where decoding stopped.
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"first words .\nsecond words .\n\n" * 1000 + b"caf\xe9 au lait .\n")
    with pytest.raises(FormatError, match=r"latin1\.txt:3001: not UTF-8 text"):
        ingest_corpus(path)


def test_ingest_empty_file_yields_zero_documents(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    corpus = ingest_corpus(path)
    assert corpus.stats.n_documents == 0
    assert corpus.stats.avg_sentences == 0.0


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def test_vocab_reserves_special_ids():
    v = Vocab(["apple", "pear"])
    assert v.id_of("<pad>") == PAD_ID
    assert v.id_of("<unk>") == UNK_ID
    assert v.id_of("apple") == 2
    assert v.id_of("missing") == UNK_ID
    assert v.encode(["pear", "nope"]) == [3, UNK_ID]
    assert len(v) == 4


def test_vocab_rejects_duplicates():
    with pytest.raises(CorpusError):
        Vocab(["a", "a"])


def test_build_vocab_orders_by_count_then_token():
    docs = [Document("d0", [["b", "a", "b"], ["c", "a"]]),
            Document("d1", [["c", "b"], ["d", "b"]])]
    # counts: b=4, a=2, c=2, d=1
    v = build_vocab(docs)
    assert v.id_to_token == ["<pad>", "<unk>", "b", "a", "c", "d"]


def test_build_vocab_min_count_filters():
    docs = [Document("d0", [["b", "a", "b"], ["c", "a"]])]
    v = build_vocab(docs, min_count=2)
    assert v.id_to_token == ["<pad>", "<unk>", "a", "b"]
    assert v.id_of("c") == UNK_ID


def test_build_vocab_requires_documents():
    with pytest.raises(CorpusError):
        build_vocab([])


# ---------------------------------------------------------------------------
# pretrained embeddings
# ---------------------------------------------------------------------------


def test_load_pretrained_embeddings_mixes_file_and_random(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("apple 1.0 2.0\nzebra 9.0 9.0\npear -1.0 0.5\n",
                    encoding="utf-8")
    vocab = Vocab(["apple", "pear", "plum"])
    matrix, coverage = load_pretrained_embeddings(
        path, vocab, 2, np.random.default_rng(0))
    assert matrix.shape == (5, 2)
    assert np.array_equal(matrix[PAD_ID], [0.0, 0.0])
    assert np.array_equal(matrix[vocab.id_of("apple")], [1.0, 2.0])
    assert np.array_equal(matrix[vocab.id_of("pear")], [-1.0, 0.5])
    # plum falls back to the random range
    assert np.all(np.abs(matrix[vocab.id_of("plum")]) <= 0.1)
    assert coverage == pytest.approx(2 / 3)


def test_load_pretrained_embeddings_reports_bad_lines(tmp_path):
    vocab = Vocab(["apple"])
    short = tmp_path / "short.txt"
    short.write_text("apple 1.0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="short.txt:1"):
        load_pretrained_embeddings(short, vocab, 2, np.random.default_rng(0))
    bad = tmp_path / "bad.txt"
    bad.write_text("apple 1.0 oops\n", encoding="utf-8")
    with pytest.raises(FormatError, match="bad.txt:1"):
        load_pretrained_embeddings(bad, vocab, 2, np.random.default_rng(0))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_pretrained_embeddings_rejects_a_non_finite_value(tmp_path, value):
    path = tmp_path / "vec.txt"
    path.write_text(f"apple 1.0 2.0\npear 0.5 {value}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"vec\.txt:2: non-finite embedding value"):
        load_pretrained_embeddings(path, Vocab(["apple", "pear"]), 2, np.random.default_rng(0))


def test_load_pretrained_embeddings_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_bytes(b"apple 1.0 2.0\n\xffpear 3.0 4.0\n")
    with pytest.raises(FormatError, match=r"vec\.txt:2: not UTF-8 text"):
        load_pretrained_embeddings(path, Vocab(["apple"]), 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def test_stable_seed_matches_direct_blake2b():
    h = hashlib.blake2b(digest_size=8)
    for part in (3, "epoch", "doc:1"):
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    assert stable_seed(3, "epoch", "doc:1") == int.from_bytes(h.digest(), "little")


def test_stable_seed_distinguishes_types_and_boundaries():
    assert stable_seed(1) != stable_seed("1")
    assert stable_seed("ab", "c") != stable_seed("a", "bc")
    assert stable_seed(1, 2) == stable_seed(1, 2)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def _doc(n, doc_id="doc"):
    return Document(doc_id, [[f"s{i}a", f"s{i}b"] for i in range(n)])


def _vocab_for(*docs):
    return build_vocab(list(docs))


def test_make_instance_target_restores_the_original_order():
    rng = np.random.default_rng(9)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        doc = _doc(n)
        vocab = _vocab_for(doc)
        inst = make_instance(doc, vocab, int(rng.integers(1 << 30)))
        assert sorted(inst.target) == list(range(n))
        for gold_index, input_pos in enumerate(inst.target):
            assert inst.words[input_pos] == doc.sentences[gold_index]
        assert inst.inputs == [vocab.encode(w) for w in inst.words]
        assert inst.noise_position is None
        assert not inst.has_stop
        assert inst.gold_positions == inst.target


def test_make_instance_is_reproducible_per_epoch_seed():
    doc = _doc(5)
    vocab = _vocab_for(doc)
    a = make_instance(doc, vocab, 123)
    b = make_instance(doc, vocab, 123)
    c = make_instance(doc, vocab, 124)
    assert a.target == b.target and a.words == b.words
    assert a.permutation_seed == b.permutation_seed
    # A different epoch seed almost surely reshuffles a 5-sentence document.
    assert (a.target != c.target) or (a.permutation_seed != c.permutation_seed)


def test_variable_length_instance_appends_stop_marker():
    doc = _doc(4)
    vocab = _vocab_for(doc)
    inst = make_instance(doc, vocab, 7, fixed_length=False)
    assert inst.has_stop
    assert inst.target[-1] == inst.stop_index == 4
    assert sorted(inst.gold_positions) == list(range(4))


def test_noise_injection_shifts_positions_and_is_excluded_from_target():
    rng = np.random.default_rng(11)
    other = _doc(3, "other")
    pool = noise_pool_of([other])
    for trial in range(100):
        doc = _doc(int(rng.integers(2, 6)), "main")
        vocab = _vocab_for(doc, other)
        inst = make_instance(doc, vocab, int(rng.integers(1 << 30)),
                             noise_mode="always_one", noise_pool=pool,
                             fixed_length=False)
        n = len(doc.sentences)
        assert inst.n_inputs == n + 1
        assert inst.noise_position is not None
        assert inst.words[inst.noise_position] in other.sentences
        assert inst.noise_position not in inst.gold_positions
        assert inst.target[-1] == n + 1  # stop index counts the noise slot
        for gold_index, input_pos in enumerate(inst.gold_positions):
            assert inst.words[input_pos] == doc.sentences[gold_index]


def test_noise_draw_skips_the_documents_own_sentences():
    doc = _doc(3, "self")
    vocab = _vocab_for(doc)
    own_pool = noise_pool_of([doc])
    with pytest.raises(NoiseSampleError):
        make_instance(doc, vocab, 5, noise_mode="always_one",
                      noise_pool=own_pool, fixed_length=False)
    with pytest.raises(NoiseSampleError):
        make_instance(doc, vocab, 5, noise_mode="always_one",
                      noise_pool=[], fixed_length=False)


def test_half_noise_mode_injects_about_half_the_time():
    doc = _doc(4, "main")
    other = _doc(3, "other")
    vocab = _vocab_for(doc, other)
    pool = noise_pool_of([other])
    draws = 10_000
    injected = sum(
        make_instance(doc, vocab, seed, noise_mode="half", noise_pool=pool,
                      fixed_length=False).noise_position is not None
        for seed in range(draws)
    )
    # Binomial(10000, 0.5): three sigma is about 150.
    assert abs(injected - draws / 2) < 300, f"injected {injected} of {draws}"


def test_instance_mode_validation():
    doc = _doc(3)
    vocab = _vocab_for(doc)
    with pytest.raises(CorpusError):
        make_instance(doc, vocab, 1, noise_mode="sometimes")
    with pytest.raises(CorpusError):
        make_instance(doc, vocab, 1, noise_mode="always_one", fixed_length=True)


def test_build_instances_keys_epochs_independently():
    docs = [_doc(5, f"d{i}") for i in range(4)]
    vocab = _vocab_for(*docs)
    epoch1 = build_instances(docs, vocab, run_seed=3, epoch=1)
    epoch1_again = build_instances(docs, vocab, run_seed=3, epoch=1)
    epoch2 = build_instances(docs, vocab, run_seed=3, epoch=2)
    assert [i.target for i in epoch1] == [i.target for i in epoch1_again]
    assert [i.target for i in epoch1] != [i.target for i in epoch2]
    assert [i.doc_id for i in epoch1] == [d.doc_id for d in docs]


def test_synthetic_documents_are_capped_by_the_ordinal_cues():
    rng = np.random.default_rng(0)
    assert len(generate_documents(1, rng, len(ORDINALS))[0]) == len(ORDINALS)
    with pytest.raises(ConfigError):
        generate_documents(1, rng, len(ORDINALS) + 1)


def test_synthetic_splits_check_the_sentence_count_before_creating_the_directory(tmp_path):
    out = tmp_path / "corpus"
    with pytest.raises(ConfigError):
        synthetic.generate_splits(out, train=2, test=1, sentences_per_doc=len(ORDINALS) + 1)
    assert not out.exists()


def test_synthetic_script_reports_errors_on_one_line(tmp_path, capsys):
    out = tmp_path / "corpus"
    rc = synthetic.main(["--out", str(out), "--sentences", str(len(ORDINALS) + 1)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()
    assert synthetic.main(["--out", str(out), "--train", "2", "--test", "1"]) == 0
    assert (out / "train.txt").exists() and (out / "test.txt").exists()
