import heapq
import math
import os
import random
import re
import string
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import semkit
from semkit import selection
from semkit.corpus import load_dataset, load_split
from semkit.errors import PoolExhaustedError
from semkit.execute import operators_of
from semkit.resources import dataset_path, split_path
from semkit.selection import (BM25_B, BM25_K1, Bm25Index, GreedyTrace, bm25_rank,
                             coverage_fraction, greedy_select, setcov, tokenize)

GOLDEN_GREEDY_K10 = ["gq-03", "gq-04", "gq-27", "gq-07", "gq-13",
                     "gq-14", "gq-29", "gq-39", "gq-44", "gq-48"]
GOLDEN_COVERAGE_FRACTION = 0.725


def test_setcov_examples():
    structures = frozenset({"a", "b", "c"})
    assert setcov(structures, [frozenset({"a"}), frozenset({"b", "z"})]) == 2
    assert setcov(structures, []) == 0
    assert setcov(structures, [frozenset({"a", "b", "c", "d"})]) == 3


def test_setcov_is_monotone_and_bounded():
    rng = random.Random(3)
    structures = frozenset(f"s{i}" for i in range(8))
    sets = [frozenset(rng.sample(sorted(structures), rng.randint(0, 5))) for _ in range(6)]
    last = 0
    for i in range(len(sets)):
        cov = setcov(structures, sets[:i + 1])
        assert cov >= last
        assert cov <= min(len(structures), sum(len(s) for s in sets[:i + 1]))
        last = cov


def geo_pool(geoquery, geoquery_split):
    return [(ex_id, operators_of("funql", geoquery[ex_id].programs["funql"]))
            for ex_id in geoquery_split.train_ids]


def test_setcov_equals_union_size_on_bundle(geoquery, geoquery_split):
    pool = dict(geo_pool(geoquery, geoquery_split))
    structures = frozenset().union(*pool.values())
    chosen = ["gq-01", "gq-03", "gq-04"]
    union = set()
    for ex_id in chosen:
        union |= pool[ex_id]
    assert setcov(structures, [pool[i] for i in chosen]) == len(union & structures)


def test_greedy_three_disjoint_candidates():
    pool = [("small", frozenset({"a"})),
            ("large", frozenset({"d", "e", "f"})),
            ("medium", frozenset({"b", "c"}))]
    structures = frozenset("abcdef")
    assert greedy_select(pool, structures, 3) == ["large", "medium", "small"]


def test_greedy_k1_takes_best_overlap():
    pool = [("x", frozenset({"a", "z"})), ("y", frozenset({"a", "b", "q"}))]
    assert greedy_select(pool, frozenset({"a", "b"}), 1) == ["y"]


def test_greedy_tie_goes_to_lowest_pool_index():
    pool = [("first", frozenset({"a"})), ("second", frozenset({"a"}))]
    assert greedy_select(pool, frozenset({"a", "b"}), 2) == ["first", "second"]


def test_greedy_pool_exhausted():
    with pytest.raises(PoolExhaustedError):
        greedy_select([("a", frozenset({"x"}))], frozenset({"x"}), 2)


# Run in a child process: before the distinct-id check this call never returned.
_DUPLICATE_IDS_PROBE = """
from semkit.errors import PoolExhaustedError
from semkit.selection import greedy_select
pool = [("a", frozenset({"x"})), ("a", frozenset({"y"}))]
try:
    greedy_select(pool, frozenset({"x", "y"}), 2)
except PoolExhaustedError as exc:
    print("PoolExhaustedError:", exc)
"""


def test_greedy_duplicate_ids_fewer_than_k_raise():
    src = str(Path(semkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    try:
        result = subprocess.run([sys.executable, "-c", _DUPLICATE_IDS_PROBE], env=env,
                                capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("greedy_select did not return on a pool of 1 distinct id with k=2")
    assert result.returncode == 0, result.stderr
    assert result.stdout == ("PoolExhaustedError: requested k=2 from a pool of "
                             "1 distinct ids\n")


def test_greedy_duplicate_ids_enough_distinct():
    pool = [("a", frozenset({"x"})), ("a", frozenset({"y"})), ("b", frozenset({"y"}))]
    assert greedy_select(pool, frozenset({"x", "y"}), 2) == ["a", "b"]


def test_greedy_golden_bundle(geoquery, geoquery_split):
    pool = geo_pool(geoquery, geoquery_split)
    structures = frozenset().union(*(s for _, s in pool))
    assert len(structures) == 40
    selected = greedy_select(pool, structures, 10)
    assert selected == GOLDEN_GREEDY_K10
    sets = dict(pool)
    fraction = coverage_fraction([sets[i] for i in selected], structures)
    assert abs(fraction - GOLDEN_COVERAGE_FRACTION) < 1e-12


def setcov_greedy_with_trace(pool, structures, k):
    """greedy_select as it was before the incremental gain: setcov over the whole cover."""
    selected, selected_ids, cover_sets, trace = [], set(), [], []
    current_cov = -math.inf
    while len(selected) < k:
        best_id, best_set, best_cov = None, None, -math.inf
        for cand_id, cand_set in pool:
            if cand_id in selected_ids:
                continue
            cov = setcov(structures, [*cover_sets, cand_set])
            if cov > best_cov:
                best_id, best_set, best_cov = cand_id, cand_set, cov
        if best_cov > current_cov:
            current_cov = best_cov
            selected.append(best_id)
            selected_ids.add(best_id)
            cover_sets.append(best_set)
            trace.append(GreedyTrace(picked=best_id, coverage=best_cov))
        else:
            cover_sets = []
            current_cov = -math.inf
            trace.append(GreedyTrace(picked=None, coverage=None))
    return selected, trace


def test_incremental_greedy_matches_setcov_greedy_on_seeded_pools():
    resets = 0
    for seed in range(300):
        rng = random.Random(seed)
        operators = [f"op{i}" for i in range(rng.randint(1, 12))]
        n = rng.randint(1, 25)
        pool = [(f"c{i:02d}", frozenset(rng.sample(operators, rng.randint(0, len(operators)))))
                for i in range(n)]
        # structures outside every candidate, and candidate operators outside the structures
        structures = frozenset(rng.sample(operators, rng.randint(0, len(operators))) + ["extra"])
        k = rng.randint(1, n)
        want = setcov_greedy_with_trace(pool, structures, k)
        assert greedy_select(pool, structures, k, with_trace=True) == want, seed
        assert greedy_select(pool, structures, k) == want[0]
        resets += sum(step.picked is None for step in want[1])
    assert resets >= 100  # the seeded pools do exercise the reset path


def repeated_set_pool(rng, duplicate_ids):
    """A pool drawing its operator sets from a small bank, so many candidates share a set.

    Some bank entries are equal sets built as separate objects, and with
    ``duplicate_ids`` candidates draw their ids from fewer names than the pool holds.
    """
    operators = [f"op{i}" for i in range(rng.randint(1, 10))]
    bank = [frozenset(rng.sample(operators, rng.randint(0, len(operators))))
            for _ in range(rng.randint(1, 5))]
    bank += [frozenset(set(s)) for s in bank[:2]]  # equal sets, distinct objects
    n = rng.randint(1, 40)
    names = rng.randint(1, n) if duplicate_ids else n
    pool = [(f"c{rng.randrange(names) if duplicate_ids else i:02d}", rng.choice(bank))
            for i in range(n)]
    structures = frozenset(rng.sample(operators, rng.randint(0, len(operators))) + ["extra"])
    return pool, structures


@pytest.mark.parametrize("duplicate_ids", [False, True])
def test_grouped_greedy_matches_per_candidate_greedy_on_repeated_sets(duplicate_ids):
    resets = merged = 0
    for seed in range(400):
        rng = random.Random(seed)
        pool, structures = repeated_set_pool(rng, duplicate_ids)
        distinct = len({cand_id for cand_id, _ in pool})
        k = rng.randint(1, distinct)
        want = setcov_greedy_with_trace(pool, structures, k)
        assert greedy_select(pool, structures, k, with_trace=True) == want, seed
        assert greedy_select(pool, structures, k) == want[0] == \
            reference_greedy(pool, structures, k), seed
        resets += sum(step.picked is None for step in want[1])
        raw_sets = {cand_set for _, cand_set in pool}
        merged += len({cand_set & structures for cand_set in raw_sets}) < len(raw_sets)
        if k < distinct:
            with pytest.raises(PoolExhaustedError):
                greedy_select(pool, structures, distinct + 1)
    assert resets >= 100  # the seeded pools do exercise the reset path
    assert merged >= 100  # and sets that differ only outside the structures


def test_grouped_greedy_ties_between_groups_go_to_the_lowest_position():
    x, y = frozenset({"x"}), frozenset({"y"})
    pool = [("a", x), ("b", y), ("c", x), ("d", y), ("e", x | y)]
    structures = frozenset({"x", "y"})
    want = setcov_greedy_with_trace(pool, structures, 5)
    assert want == (["e", "a", "b", "c", "d"],
                    [GreedyTrace("e", 2), GreedyTrace(None, None), GreedyTrace("a", 1),
                     GreedyTrace("b", 2), GreedyTrace(None, None), GreedyTrace("c", 1),
                     GreedyTrace("d", 2)])
    assert greedy_select(pool, structures, 5, with_trace=True) == want


def test_coverage_fraction_bounds():
    assert coverage_fraction([frozenset({"a", "b"})], frozenset({"a", "b"})) == 1.0
    assert coverage_fraction([], frozenset({"a"})) == 0.0


def reference_greedy(pool, structures, k):
    """Straight transcription of the greedy set-cover pseudocode (with resets)."""
    selected, current_cover = [], []
    current_cov = -math.inf
    while len(selected) < k:
        best, best_cov = None, -math.inf
        for cand_id, cand_set in pool:
            if cand_id in selected:
                continue
            covered = set()
            for s in [*current_cover, cand_set]:
                covered |= s
            cov = len(structures & covered)
            if cov > best_cov:
                best, best_cov = (cand_id, cand_set), cov
        if best_cov > current_cov:
            selected.append(best[0])
            current_cover.append(best[1])
            current_cov = best_cov
        else:
            current_cover, current_cov = [], -math.inf
    return selected


def test_greedy_matches_reference_on_random_pools():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 12)
        operators = [f"op{i}" for i in range(rng.randint(1, 10))]
        pool = [(f"c{i:02d}", frozenset(rng.sample(operators,
                                                   rng.randint(0, len(operators)))))
                for i in range(n)]
        structures = frozenset(operators)
        k = rng.randint(1, n)
        assert greedy_select(pool, structures, k) == reference_greedy(pool, structures, k)


def test_greedy_coverage_never_decreases(geoquery, geoquery_split):
    pool = geo_pool(geoquery, geoquery_split)
    structures = frozenset().union(*(s for _, s in pool))
    selected, trace = greedy_select(pool, structures, 15, with_trace=True)
    sets = dict(pool)
    last = 0
    for i in range(1, len(selected) + 1):
        cov = setcov(structures, [sets[x] for x in selected[:i]])
        assert cov >= last
        last = cov


REFERENCE_TOKEN = re.compile(r"[a-z0-9]+")  # the tokenizer's definition
# ASCII letters, digits, punctuation and every control and whitespace byte; non-ASCII
# letters and digits, two of which lowercase to ASCII (U+0130 and U+212A); lone surrogates
TOKEN_ALPHABET = (string.ascii_letters + string.digits + string.punctuation + " \x7f"
                  + "".join(map(chr, range(0x20))) + "\u00e9\u00df\u0130\u212a\u017f\u00b2\uff11"
                  + "\ud800\udfff")


def test_tokenize_matches_the_regex_reference():
    rng = random.Random(21)
    texts = ["", *TOKEN_ALPHABET, *(f"a{c}Z{c}9" for c in TOKEN_ALPHABET)]
    texts += ["".join(rng.choices(TOKEN_ALPHABET, k=rng.randint(0, 30))) for _ in range(5000)]
    for text in texts:
        assert tokenize(text) == REFERENCE_TOKEN.findall(text.lower()), repr(text)


@pytest.mark.parametrize("text,tokens", [
    ("", []),
    ("What's the Capital of TEXAS?", ["what", "s", "the", "capital", "of", "texas"]),
    ("café ﬁne 1st² １２ Straße", ["caf", "ne", "1st", "stra", "e"]),  # non-ASCII separates
    ("\u212aELVIN \u0130stanbul", ["kelvin", "i", "stanbul"]),  # lowercased to ASCII first
    ("a\ud800b\x00c\x1fd\te\x0bf", ["a", "b", "c", "d", "e", "f"]),
])
def test_tokenize_examples(text, tokens):
    assert tokenize(text) == tokens


def naive_bm25_scores(query, documents, k1=1.5, b=0.75):
    import re

    def toks(text):
        return re.findall(r"[a-z0-9]+", text.lower())

    docs = [toks(text) for _, text in documents]
    n_docs = len(docs)
    avgdl = sum(len(d) for d in docs) / n_docs if n_docs else 0.0
    scores = []
    for doc in docs:
        score = 0.0
        for term in toks(query):
            f = doc.count(term)
            if not f:
                continue
            n = sum(1 for other in docs if term in other)
            idf = max(0.0, math.log((n_docs - n + 0.5) / (n + 0.5)))
            score += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(doc) / avgdl))
        scores.append(score)
    return scores


def test_bm25_identical_query_ranks_first(geoquery, geoquery_split):
    pool = [(i, geoquery[i].utterance) for i in geoquery_split.train_ids]
    target = pool[7]
    assert bm25_rank(target[1], Bm25Index(pool), 1) == [target[0]]


def test_bm25_no_shared_tokens_gives_id_order(geoquery, geoquery_split):
    pool = [(i, geoquery[i].utterance) for i in geoquery_split.train_ids]
    ranked = bm25_rank("zzz qqq xyzzy", Bm25Index(pool), 5)
    assert ranked == sorted(i for i, _ in pool)[:5]


def test_bm25_matches_naive_scorer_on_bundle(geoquery, geoquery_split):
    pool = [(i, geoquery[i].utterance) for i in geoquery_split.train_ids]
    index = Bm25Index(pool)
    query = "rivers in texas"
    got = index.scores(query)
    want = naive_bm25_scores(query, pool)
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))
    ranked = bm25_rank(query, index, len(pool))
    naive_ranked = [i for i, _ in sorted(zip([p[0] for p in pool], want),
                                         key=lambda t: (-t[1], t[0]))]
    assert ranked == naive_ranked


def random_texts(rng, n):
    vocabulary = ["river", "state", "city", "capital", "longest", "texas", "population",
                  "border", "highest", "point", "how", "many", "what", "which"]
    return [(f"d{i:03d}", " ".join(rng.choices(vocabulary, k=rng.randint(1, 8))))
            for i in range(n)]


def test_bm25_equals_naive_on_random_instances():
    rng = random.Random(5)
    for _ in range(200):
        pool = random_texts(rng, rng.randint(1, 12))
        query = " ".join(rng.choices(["river", "texas", "longest", "qqq"],
                                     k=rng.randint(0, 4)))
        want_scores = naive_bm25_scores(query, pool)
        ranked = bm25_rank(query, Bm25Index(pool), len(pool))
        want = [i for i, _ in sorted(zip([p[0] for p in pool], want_scores),
                                     key=lambda t: (-t[1], t[0]))]
        assert ranked == want


def per_document_bm25_scores(query, documents, k1=1.5, b=0.75):
    """BM25 scored one document at a time, with each term of the query added in turn."""
    import re
    from collections import Counter

    def toks(text):
        return re.findall(r"[a-z0-9]+", text.lower())

    term_freqs = [Counter(toks(text)) for _, text in documents]
    doc_lens = [sum(tf.values()) for tf in term_freqs]
    avgdl = sum(doc_lens) / len(documents) if documents else 0.0
    df = Counter(term for tf in term_freqs for term in tf)
    idf = {term: max(0.0, math.log((len(documents) - n + 0.5) / (n + 0.5)))
           for term, n in df.items()}
    scores = []
    for tf, dl in zip(term_freqs, doc_lens):
        norm = k1 * (1 - b + b * (dl / avgdl if avgdl else 0.0))
        score = 0.0
        for term in toks(query):
            f = tf.get(term, 0)
            if f:
                score += idf[term] * f * (k1 + 1) / (f + norm)
        scores.append(score)
    return scores


class ReferenceBm25Index:
    """The postings-list index the occurrence-list index replaced, kept as the reference.

    A (document, term frequency) postings list per term, every weight computed
    per query into a full score list.
    """

    def __init__(self, documents, k1=BM25_K1, b=BM25_B):
        self.ids = [doc_id for doc_id, _ in documents]
        self.k1 = k1
        term_freqs = [Counter(tokenize(text)) for _, text in documents]
        doc_lens = [sum(tf.values()) for tf in term_freqs]
        n_docs = len(documents)
        avgdl = (sum(doc_lens) / n_docs) if n_docs else 0.0
        self.norms = [k1 * (1 - b + b * (dl / avgdl if avgdl else 0.0)) for dl in doc_lens]
        self.postings = {}
        for position, tf in enumerate(term_freqs):
            for term, f in tf.items():
                self.postings.setdefault(term, []).append((position, f))
        self.idf = {term: max(0.0, math.log((n_docs - len(docs) + 0.5) / (len(docs) + 0.5)))
                    for term, docs in self.postings.items()}

    def scores(self, query):
        out = [0.0] * len(self.ids)
        scale = self.k1 + 1
        for term in tokenize(query):
            idf = self.idf.get(term)
            if idf is None:
                continue
            for position, f in self.postings[term]:
                out[position] += idf * f * scale / (f + self.norms[position])
        return out

    def rank(self, query, k):
        """The keyed ``nsmallest`` ranking: descending score, then ascending id."""
        scored = heapq.nsmallest(k, zip(self.ids, self.scores(query)),
                                 key=lambda p: (-p[1], p[0]))
        return [doc_id for doc_id, _ in scored]


def bits(scores):
    return [score.hex() for score in scores]  # tells 0.0 from -0.0, and every last bit


def assert_matches_reference(documents, queries):
    """Scores bitwise equal and rankings equal to the reference, cold and warm."""
    reference = ReferenceBm25Index(documents, selection.BM25_K1, selection.BM25_B)
    index = Bm25Index(documents)
    ks = sorted({1, min(3, len(documents)), len(documents)})
    for _ in range(2):  # the first pass fills the weight cache, the second reads it
        for query in queries:
            assert bm25_rank(query, index, ks[0]) == reference.rank(query, ks[0]), query
            want = reference.scores(query)
            assert bits(index.scores(query)) == bits(want), query
            for k in ks:
                assert bm25_rank(query, index, k) == reference.rank(query, k), (query, k)


def special_queries(documents):
    """Unknown, empty, single-document and repeated-term queries over ``documents``."""
    df = Counter(term for _, text in documents for term in set(tokenize(text)))
    rare = sorted(term for term, n in df.items() if n == 1)[:2]
    common = sorted(df, key=lambda term: (-df[term], term))[:2]
    return ["", "  ?  ", "zzz qqq xyzzy", " ".join(rare), " ".join(rare + rare),
            " ".join(common), f"{common[0]} zzz {common[0]}",
            " ".join(common + rare + common)]


@pytest.mark.parametrize("name", ["geoquery", "overnight", "smcalflow"])
def test_bm25_prebuilt_index_matches_per_query_ranking(name):
    dataset = load_dataset(dataset_path(name))
    split = load_split(split_path(f"{name}_iid"), dataset)
    pool = [(i, dataset[i].utterance) for i in split.train_ids]
    index = Bm25Index(pool)
    utterances = [dataset[i].utterance for i in split.test_ids]
    words = utterances[0].split()
    queries = [*utterances,
               *(f"{u} {u}" for u in utterances),  # every term repeated
               f"{words[0]} {words[-1]} {words[0]} {words[0]}",
               "zzz qqq xyzzy", f"zzz {utterances[0]} qqq",  # unknown terms
               "", "  ?  "]  # no terms at all
    for query in queries:
        scores = index.scores(query)
        assert scores == per_document_bm25_scores(query, pool)  # bitwise
        by_score = [i for i, _ in sorted(zip(index.ids, scores), key=lambda t: (-t[1], t[0]))]
        for k in (1, 3, len(pool)):  # the shared index against one built for this query
            assert bm25_rank(query, index, k) == bm25_rank(query, Bm25Index(pool), k)
            assert bm25_rank(query, index, k) == by_score[:k]
    with pytest.raises(PoolExhaustedError):
        bm25_rank(utterances[0], index, len(pool) + 1)
    assert_matches_reference(pool, queries + [ex.utterance for ex in dataset.examples]
                             + special_queries(pool))


PADDING = ["quick", "november", "chat", "elbert", "total", "park", "lowest", "hall",
           "meeting", "new", "march", "carol", "density", "population", "alex", "is", "in"]


def padded_pool(seed, n):
    """``n`` seeded copies of the bundled utterances, each with 0 to 4 padding words."""
    rng = random.Random(seed)
    utterances = [ex.utterance for name in ("geoquery", "overnight", "smcalflow")
                  for ex in load_dataset(dataset_path(name)).examples]
    return [(f"p{i:04d}",
             " ".join([rng.choice(utterances), *rng.choices(PADDING, k=rng.randint(0, 4))]))
            for i in range(n)]


def test_bm25_matches_reference_on_a_1000_document_padded_pool():
    pool = padded_pool(11, 1000)
    rng = random.Random(12)
    queries = [text for _, text in rng.sample(pool, 30)]
    queries += [f"{q} {' '.join(rng.choices(PADDING, k=3))}" for q in queries[:10]]
    assert_matches_reference(pool, queries + special_queries(pool))


def test_bm25_matches_reference_on_random_pools_with_duplicate_ids():
    rng = random.Random(13)
    for _ in range(100):
        pool = [(f"d{rng.randint(0, 5)}", text)
                for _, text in random_texts(rng, rng.randint(1, 14))]
        pool += [(f"d{rng.randint(0, 5)}", rng.choice(["", "?!", "texas texas texas"]))]
        queries = [" ".join(rng.choices(["river", "texas", "longest", "how", "qqq"],
                                        k=rng.randint(0, 5))) for _ in range(4)]
        assert_matches_reference(pool, queries + special_queries(pool))


@pytest.mark.parametrize("k1,b", [(1.2, 0.0), (1.2, 1.0), (0.5, 0.3), (2.0, 0.9), (0.0, 0.75)])
def test_bm25_matches_reference_with_other_parameters(k1, b, monkeypatch):
    monkeypatch.setattr(selection, "BM25_K1", k1)
    monkeypatch.setattr(selection, "BM25_B", b)
    pool = padded_pool(14, 200) + [("empty", ""), ("short", "texas")]
    rng = random.Random(15)
    queries = [text for _, text in rng.sample(pool, 15)]
    assert_matches_reference(pool, queries + special_queries(pool))


def test_bm25_terms_in_every_document_have_zero_idf():
    pool = [(f"d{i}", f"common word{i % 3} common") for i in range(6)]
    index = Bm25Index(pool)
    assert index.weights("common") == ((), ())
    assert index.scores("common common") == [0.0] * 6
    assert bm25_rank("common", index, 3) == ["d0", "d1", "d2"]
    assert_matches_reference(pool, ["common", "common common", "common word1", "word2 common"])


def test_bm25_query_touching_fewer_than_k_documents_falls_back_to_id_order():
    pool = [("c", "rivers"), ("a", "states"), ("d", "texas rivers"), ("b", "lakes")]
    assert bm25_rank("texas", Bm25Index(pool), 3) == ["d", "a", "b"]
    assert_matches_reference(pool, ["texas", "texas lakes"])


def test_bm25_index_shared_between_threads_ranks_as_serial():
    pool = padded_pool(16, 300)
    queries = [text for _, text in random.Random(17).sample(pool, 40)]
    serial = Bm25Index(pool)
    want = [bm25_rank(query, serial, 3) for query in queries]
    shared = Bm25Index(pool)  # the weight cache starts empty and fills from four threads
    got = [None] * len(queries)
    start = threading.Barrier(4, timeout=30)

    def work(offset):
        start.wait()
        for i in range(offset, len(queries), 4):
            got[i] = bm25_rank(queries[i], shared, 3)

    threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside weight computations too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want
