import math
import random

import pytest

from semkit.corpus import load_dataset, load_split
from semkit.errors import PoolExhaustedError
from semkit.execute import operators_of
from semkit.resources import dataset_path, split_path
from semkit.selection import Bm25Index, bm25_rank, coverage_fraction, greedy_select, setcov

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


def test_greedy_golden_bundle(geoquery, geoquery_split):
    pool = geo_pool(geoquery, geoquery_split)
    structures = frozenset().union(*(s for _, s in pool))
    assert len(structures) == 40
    selected = greedy_select(pool, structures, 10)
    assert selected == GOLDEN_GREEDY_K10
    sets = dict(pool)
    fraction = coverage_fraction([sets[i] for i in selected], structures)
    assert abs(fraction - GOLDEN_COVERAGE_FRACTION) < 1e-12


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
    assert bm25_rank(target[1], pool, 1) == [target[0]]


def test_bm25_no_shared_tokens_gives_id_order(geoquery, geoquery_split):
    pool = [(i, geoquery[i].utterance) for i in geoquery_split.train_ids]
    ranked = bm25_rank("zzz qqq xyzzy", pool, 5)
    assert ranked == sorted(i for i, _ in pool)[:5]


def test_bm25_matches_naive_scorer_on_bundle(geoquery, geoquery_split):
    pool = [(i, geoquery[i].utterance) for i in geoquery_split.train_ids]
    index = Bm25Index(pool)
    query = "rivers in texas"
    got = index.scores(query)
    want = naive_bm25_scores(query, pool)
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, want))
    ranked = bm25_rank(query, pool, len(pool))
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
        ranked = bm25_rank(query, pool, len(pool))
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
        for k in (1, 3, len(pool)):
            assert bm25_rank(query, index, k) == bm25_rank(query, pool, k) == by_score[:k]
    with pytest.raises(PoolExhaustedError):
        bm25_rank(utterances[0], index, len(pool) + 1)
