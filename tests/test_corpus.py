"""Tests for ingestion, vocabulary, encoding, embeddings, and splits."""

import numpy as np
import pytest

from urgentbayes.autodiff import RngStream
from urgentbayes.corpus import (
    LabeledExample,
    RawPost,
    Vocabulary,
    binarize_urgency,
    build_vocabulary,
    encode,
    examples_from_posts,
    load_posts,
    load_pretrained_embeddings,
    load_vocabulary,
    make_example,
    random_embeddings,
    save_vocabulary,
    stratified_split,
    tokenize,
)
from urgentbayes.errors import (
    ConfigurationError,
    DataError,
    DomainError,
    FormatError,
    ParseError,
    StratificationError,
)


class TestBinarize:
    def test_above_threshold_urgent(self):
        assert binarize_urgency(4.5) == 1

    def test_at_threshold_not_urgent(self):
        assert binarize_urgency(4.0) == 0

    def test_minimum_score(self):
        assert binarize_urgency(1.0) == 0

    def test_maximum_score(self):
        assert binarize_urgency(7.0) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            binarize_urgency(0.5)
        with pytest.raises(DomainError):
            binarize_urgency(7.1)

    def test_monotone(self):
        scores = np.random.default_rng(3).uniform(1, 7, size=200)
        scores.sort()
        labels = [binarize_urgency(s) for s in scores]
        assert labels == sorted(labels)


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("Help us asap!!!") == ["help", "us", "asap", "!", "!", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_lowercases(self):
        assert tokenize("Good luck") == ["good", "luck"]

    def test_deterministic(self):
        text = "Will this be on the EXAM?? (urgent)"
        assert tokenize(text) == tokenize(text)


class TestVocabulary:
    def test_frequency_cutoff(self):
        vocab = build_vocabulary([["a", "a", "b"], ["a", "c"]], min_frequency=2)
        assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, "a": 2}

    def test_single_token_retained(self):
        vocab = build_vocabulary([["x"]], min_frequency=1)
        assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, "x": 2}

    def test_nothing_clears_cutoff(self):
        vocab = build_vocabulary([["x"]], min_frequency=2)
        assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1}

    def test_ordering_frequency_then_lexicographic(self):
        vocab = build_vocabulary([["b", "b", "a", "a", "c", "c", "c"]], min_frequency=1)
        assert vocab.id_to_token == ["<pad>", "<unk>", "c", "a", "b"]

    def test_round_trip_bijection(self):
        corpus = [tokenize("the quick brown fox"), tokenize("the lazy dog the end")]
        vocab = build_vocabulary(corpus, min_frequency=1)
        for token, idx in vocab.token_to_id.items():
            assert vocab.id_to_token[idx] == token

    def test_min_frequency_validated(self):
        with pytest.raises(ConfigurationError):
            build_vocabulary([["a"]], min_frequency=0)

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary([["alpha", "beta", "alpha"]], min_frequency=1)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.token_to_id == vocab.token_to_id

    def test_load_rejects_non_vocab_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hello\nworld\n")
        with pytest.raises(FormatError):
            load_vocabulary(path)

    def test_load_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_vocabulary(tmp_path / "absent.txt")

    def test_load_rejects_duplicate_token(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("<pad>\n<unk>\nx\ny\nx\n")
        with pytest.raises(FormatError, match="not a vocabulary file \\(duplicate token 'x'\\)"):
            load_vocabulary(path)

    @pytest.mark.parametrize("tokens", [[], ["<pad>"], ["<unk>", "<pad>"], ["help", "exam"]])
    def test_tokens_must_start_with_specials(self, tokens):
        with pytest.raises(FormatError, match="expected <pad>, <unk> first"):
            Vocabulary(tokens)

    def test_ids_follow_token_order(self):
        vocab = Vocabulary(["<pad>", "<unk>", "b", "a"])
        assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, "b": 2, "a": 3}
        assert vocab.id_for("zzz") == vocab.unk_id


class TestEncode:
    def setup_method(self):
        self.vocab = build_vocabulary([["a", "a"]], min_frequency=2)

    def test_unknown_maps_to_unk(self):
        ids, n = encode(["a", "zzz"], self.vocab, max_len=4)
        np.testing.assert_array_equal(ids, [2, 1, 0, 0])
        assert n == 2

    def test_all_padding(self):
        ids, n = encode([], self.vocab, max_len=3)
        np.testing.assert_array_equal(ids, [0, 0, 0])
        assert n == 0

    def test_truncates_tail(self):
        ids, n = encode(["a", "a", "a"], self.vocab, max_len=2)
        np.testing.assert_array_equal(ids, [2, 2])
        assert n == 2

    def test_ids_always_in_range(self):
        rng = np.random.default_rng(5)
        alphabet = ["a", "b", "zzz", "!", "qq"]
        for _ in range(50):
            tokens = list(rng.choice(alphabet, size=rng.integers(0, 12)))
            ids, n = encode(tokens, self.vocab, max_len=6)
            assert ids.shape == (6,)
            assert (ids >= 0).all() and (ids < len(self.vocab)).all()
            assert (ids[n:] == self.vocab.pad_id).all()

    def test_max_len_validated(self):
        with pytest.raises(ConfigurationError):
            encode(["a"], self.vocab, max_len=0)

    def test_make_example(self):
        ex = make_example(["a"], 1, self.vocab, max_len=3)
        assert isinstance(ex, LabeledExample)
        assert ex.label == 1 and ex.true_length == 1


class TestLoadPosts:
    def test_basic_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            'text,urgency,course_id\n'
            '"please help, deadline tonight!",6.3,med101\n'
            'thanks everyone,1.7,med101\n'
        )
        posts = load_posts(path)
        assert len(posts) == 2
        assert posts[0].urgency == 6.3
        assert posts[0].course_id == "med101"
        assert binarize_urgency(posts[0].urgency) == 1
        assert binarize_urgency(posts[1].urgency) == 0

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,score\nhello,3\n")
        with pytest.raises(FormatError):
            load_posts(path)

    def test_bad_urgency_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,urgency,course_id\nok,2.0,c\nbad,high,c\n")
        with pytest.raises(ParseError) as exc_info:
            load_posts(path)
        assert exc_info.value.line == 3

    def test_out_of_range_urgency(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,urgency,course_id\nok,9.0,c\n")
        with pytest.raises(DataError):
            load_posts(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('text,urgency,course_id\n"   ",3.0,c\n')
        with pytest.raises(DataError):
            load_posts(path)

    def test_pipeline_to_examples(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "text,urgency,course_id\n"
            "help help now,5.0,c\n"
            "all good here help,2.0,c\n"
        )
        posts = load_posts(path)
        corpus = [tokenize(p.text) for p in posts]
        vocab = build_vocabulary(corpus, min_frequency=2)
        examples = examples_from_posts(posts, vocab, max_len=5)
        assert [e.label for e in examples] == [1, 0]
        assert all(e.token_ids.shape == (5,) for e in examples)


class TestEmbeddings:
    def _vocab(self):
        return build_vocabulary([["cat", "dog", "emu"]], min_frequency=1)

    def test_partial_coverage(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n")
        table = load_pretrained_embeddings(path, self._vocab(), d=3)
        assert table.coverage == pytest.approx(2.0 / 3.0)
        vocab = self._vocab()
        np.testing.assert_allclose(table.matrix[vocab.token_to_id["cat"]], [1, 2, 3])
        np.testing.assert_allclose(table.matrix[vocab.token_to_id["dog"]], [4, 5, 6])

    def test_fallback_rows_in_range(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0 3.0\n")
        table = load_pretrained_embeddings(path, self._vocab(), d=3, rng=RngStream(7))
        vocab = self._vocab()
        emu_row = table.matrix[vocab.token_to_id["emu"]]
        assert (np.abs(emu_row) <= 0.05).all()

    def test_arity_mismatch_is_parse_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 0.1 0.2\n")
        with pytest.raises(ParseError) as exc_info:
            load_pretrained_embeddings(path, self._vocab(), d=300)
        assert exc_info.value.line == 1

    def test_non_numeric_is_parse_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 0.1 0.2 oops\n")
        with pytest.raises(ParseError):
            load_pretrained_embeddings(path, self._vocab(), d=3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_is_parse_error(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"cat 0.1 0.2 0.3\ndog 0.1 {value} 0.3\n")
        with pytest.raises(ParseError, match=f"line 2: {path}: non-finite value") as exc_info:
            load_pretrained_embeddings(path, self._vocab(), d=3)
        assert exc_info.value.line == 2

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_pretrained_embeddings(tmp_path / "absent.txt", self._vocab(), d=3)

    def test_header_dim_mismatch_is_format_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("100 50\ncat " + " ".join(["0.0"] * 50) + "\n")
        with pytest.raises(FormatError):
            load_pretrained_embeddings(path, self._vocab(), d=3)

    def test_header_accepted_when_dims_agree(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\ncat 1.0 2.0 3.0\n")
        table = load_pretrained_embeddings(path, self._vocab(), d=3)
        assert table.matched == 1

    def test_empty_vocab_coverage_zero(self, tmp_path):
        vocab = build_vocabulary([["x"]], min_frequency=5)
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0 3.0\n")
        table = load_pretrained_embeddings(path, vocab, d=3)
        assert table.coverage == 0.0

    def test_random_table_shape_and_determinism(self):
        vocab = self._vocab()
        a = random_embeddings(vocab, d=8, rng=RngStream(3))
        b = random_embeddings(vocab, d=8, rng=RngStream(3))
        assert a.matrix.shape == (len(vocab), 8)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.coverage == 0.0


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet exports write, is
    skipped: each text input reads the same with it as without it."""

    def _pair(self, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        return plain, marked

    def test_posts_csv(self, tmp_path):
        plain, marked = self._pair(tmp_path, "text,urgency,course_id\nhelp now,6.0,c\n")
        assert load_posts(marked) == load_posts(plain) == [RawPost("help now", 6.0, "c")]

    def test_vocabulary(self, tmp_path):
        plain, marked = self._pair(tmp_path, "<pad>\n<unk>\nhelp\n")
        assert load_vocabulary(marked).id_to_token == load_vocabulary(plain).id_to_token

    @pytest.mark.parametrize("header", ["", "1 3\n"], ids=["bare", "header"])
    def test_embeddings(self, tmp_path, header):
        vocab = build_vocabulary([["cat", "dog"]], min_frequency=1)
        plain, marked = self._pair(tmp_path, header + "cat 1.0 2.0 3.0\n")
        a = load_pretrained_embeddings(plain, vocab, d=3, rng=RngStream(1))
        b = load_pretrained_embeddings(marked, vocab, d=3, rng=RngStream(1))
        assert a.matched == b.matched == 1
        assert a.matrix.tobytes() == b.matrix.tobytes()


def _labeled(n0, n1):
    out = []
    for i in range(n0):
        out.append(LabeledExample(np.array([2, 0]), 1, 0))
    for i in range(n1):
        out.append(LabeledExample(np.array([3, 0]), 1, 1))
    return out


class TestStratifiedSplit:
    def test_counts_80_20(self):
        train, test = stratified_split(_labeled(80, 20), 0.8, seed=0)
        assert len(train) == 80 and len(test) == 20
        assert sum(e.label for e in train) == 16
        assert sum(e.label for e in test) == 4

    def test_corpus_scale_counts(self):
        # 23,991 / 5,606 at 0.8 rounds to 19,193 / 4,485
        assert round(0.8 * 23991) == 19193
        assert round(0.8 * 5606) == 4485

    def test_same_seed_identical(self):
        examples = _labeled(30, 10)
        a_train, a_test = stratified_split(examples, 0.6, seed=42)
        b_train, b_test = stratified_split(examples, 0.6, seed=42)
        assert [id(e) for e in a_train] == [id(e) for e in b_train]
        assert [id(e) for e in a_test] == [id(e) for e in b_test]

    def test_different_seed_differs(self):
        examples = _labeled(30, 10)
        a_train, _ = stratified_split(examples, 0.6, seed=1)
        b_train, _ = stratified_split(examples, 0.6, seed=2)
        assert [id(e) for e in a_train] != [id(e) for e in b_train]

    def test_partition_property(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            n0 = int(rng.integers(2, 40))
            n1 = int(rng.integers(2, 40))
            frac = float(rng.uniform(0.2, 0.8))
            examples = _labeled(n0, n1)
            train, test = stratified_split(examples, frac, seed=trial)
            assert len(train) + len(test) == len(examples)
            seen = {id(e) for e in train} | {id(e) for e in test}
            assert len(seen) == len(examples)
            # per-class deviation from the requested fraction: at most one example
            for label, total in ((0, n0), (1, n1)):
                got = sum(1 for e in train if e.label == label)
                assert abs(got - frac * total) <= 1.0

    def test_single_class_rejected(self):
        with pytest.raises(StratificationError):
            stratified_split(_labeled(10, 0), 0.8, seed=0)

    def test_tiny_class_rejected(self):
        with pytest.raises(StratificationError):
            stratified_split(_labeled(10, 1), 0.8, seed=0)

    @pytest.mark.parametrize(
        "n0, n1, fraction, label, side",
        [(2, 2, 0.8, 0, "test"), (7, 2, 0.8, 1, "test"), (2, 9, 0.2, 0, "train")],
    )
    def test_class_left_out_of_a_split_rejected(self, n0, n1, fraction, label, side):
        # round(0.8 * 2) = 2 puts every member in train; round(0.2 * 2) = 0 puts none
        with pytest.raises(StratificationError, match=f"class {label} .* the {side} split"):
            stratified_split(_labeled(n0, n1), fraction, seed=0)

    def test_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            stratified_split(_labeled(4, 4), 1.0, seed=0)
