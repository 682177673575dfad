"""Input generation for the benchmark workloads.

Everything here is a pure function of the workload seed, and none of it is
timed. The forum corpus is written as a CSV so that set-up reads it through
`corpus.load_posts` the way a real dataset would be read. The desk corpus is
the program's own `imbalanced_corpus(2000)`, the shape of acceptance
criterion 6.
"""

from __future__ import annotations

import csv
import hashlib
import statistics

import numpy as np

FORUM_VOCAB_WORDS = 19_998          # plus <pad> and <unk>: a vocabulary of 20,000
FORUM_POSTS = 1536                  # 1024 training posts, 512 held out
FORUM_TRAIN_POSTS = 1024
FORUM_TRIAGE_POSTS = 30
URGENT_SHARE = 0.19
URGENT_MARKERS = ("deadline", "blocked", "failing", "urgent")
CALM_MARKERS = ("thanks", "interesting", "sharing", "enjoyed")
# post lengths are log-normal around a median of 36 words, so about a
# quarter of the posts run past max_len 64 and the shortest have 1 word
LENGTH_MEDIAN = 36.0
LENGTH_SIGMA = 1.0
ZIPF_EXPONENT = 1.0

DESK_POSTS = 2000
DESK_TRIAGE_POSTS = 200


def _stratified_lengths(gen, n):
    """One length per stratum of the log-normal, shuffled: every seed gets
    nearly the same length distribution, which keeps per-seed timings
    comparable."""
    dist = statistics.NormalDist()
    u = (gen.permutation(n) + gen.random(n)) / n
    z = np.array([dist.inv_cdf(min(max(x, 1e-12), 1 - 1e-12)) for x in u])
    return np.maximum(1, np.rint(LENGTH_MEDIAN * np.exp(LENGTH_SIGMA * z))).astype(int)


def forum_posts(seed):
    """Rows of (text, urgency): Zipf-distributed filler words, one class
    marker inside the first 64 words of each post, and every word of the
    19,998-word lexicon used at least once."""
    gen = np.random.default_rng([seed, 1])
    fillers = [f"w{r}" for r in range(FORUM_VOCAB_WORDS - len(URGENT_MARKERS) - len(CALM_MARKERS))]
    lengths = _stratified_lengths(gen, FORUM_POSTS)
    ranks = np.arange(1, len(fillers) + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_EXPONENT
    weights /= weights.sum()
    urgent = np.zeros(FORUM_POSTS, dtype=bool)
    urgent[gen.permutation(FORUM_POSTS)[: round(URGENT_SHARE * FORUM_POSTS)]] = True

    drawn = gen.choice(len(fillers), size=int(lengths.sum()), p=weights)
    bounds = np.cumsum(lengths)[:-1]
    posts = [list(words) for words in np.split(drawn, bounds)]
    marker_at = [int(gen.integers(0, min(length, 64))) for length in lengths]

    # plant every filler word no post drew, over a word that occurs again
    # elsewhere and at a position that will hold no marker
    counts = np.bincount(drawn, minlength=len(fillers))
    for words, j in zip(posts, marker_at):
        counts[words[j]] -= 1
    missing = list(np.flatnonzero(counts == 0))
    slots = [(i, j) for i, words in enumerate(posts) for j in range(len(words)) if j != marker_at[i]]
    for s in gen.permutation(len(slots)):
        if not missing:
            break
        i, j = slots[s]
        if counts[posts[i][j]] > 1:
            counts[posts[i][j]] -= 1
            posts[i][j] = missing.pop()

    rows = []
    for i, words in enumerate(posts):
        tokens = [fillers[w] for w in words]
        markers = URGENT_MARKERS if urgent[i] else CALM_MARKERS
        tokens[marker_at[i]] = markers[int(gen.integers(0, len(markers)))]
        score = int(gen.integers(5, 8)) if urgent[i] else int(gen.integers(1, 5))
        rows.append((" ".join(tokens), float(score)))
    return rows


def write_posts_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["text", "urgency", "course_id"])
        for text, urgency in rows:
            writer.writerow([text, urgency, ""])


def desk_posts(seed):
    from urgentbayes.synthetic import imbalanced_corpus

    return imbalanced_corpus(DESK_POSTS, seed=seed)


def stack(examples):
    ids = np.stack([ex.token_ids for ex in examples])
    lengths = np.array([ex.true_length for ex in examples], dtype=np.int64)
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    return ids, lengths, labels


def triage_picks(examples, count):
    """Indices of `count` examples at evenly spaced length quantiles, so the
    single-post latency sample covers short and truncated posts alike."""
    order = sorted(range(len(examples)), key=lambda i: (examples[i].true_length, i))
    step = len(order) / count
    return [order[int((k + 0.5) * step)] for k in range(count)]


def input_record(vocab_size, examples, batch_size, raw_lengths):
    """The input properties later speed claims depend on, and a hash of the
    id arrays the program receives. `raw_lengths` are token counts before
    truncation."""
    ids, lengths, labels = stack(examples)
    raw_lengths = np.asarray(raw_lengths)
    digest = hashlib.sha256()
    for arr in (ids, lengths, labels):
        digest.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    padded = []
    for start in range(0, len(examples), batch_size):
        batch = lengths[start : start + batch_size]
        padded.append(1.0 - batch.sum() / (len(batch) * batch.max()))
    return {
        "vocab_size": int(vocab_size),
        "posts": len(examples),
        "tokens": int(raw_lengths.sum()),
        "tokens_kept": int(lengths.sum()),
        "max_len": int(ids.shape[1]),
        "truncated_share": float(np.mean(raw_lengths > ids.shape[1])),
        "mean_true_length": float(lengths.mean()),
        "padded_share_per_batch": float(np.mean(padded)),
        "urgent_share": float(labels.mean()),
        "ids_sha256": digest.hexdigest(),
    }
