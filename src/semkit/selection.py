"""Demonstration selection: greedy operator-set coverage and Okapi BM25.

Set coverage
------------
For a structure set S and candidate demonstrations z with operator sets S_z,

    setcov(S, Z) = sum over s in S of max over z in Z of [s in S_z]

i.e. the number of structures covered by at least one member of Z.  Greedy
selection repeatedly picks the candidate maximizing setcov over the current
cover; when no candidate strictly improves it, the current cover is reset and
a fresh cover is started, until k demonstrations are selected.  Ties in the
argmax go to the lowest pool index (golden traces depend on this).  Note that
right after a reset any candidate strictly improves the (-inf) score, so a
zero-gain candidate can legitimately be picked then.

:func:`greedy_select` computes this incrementally: it keeps the set of
structures the current cover covers, and a candidate's setcov with the cover
is that count plus its gain |(S_z ∩ S) ∖ covered|, so the argmax is taken
over gains and no step re-unions the cover.

BM25
----
Okapi scoring with k1=1.5, b=0.75 by default.  Documents and queries are
tokenized by lowercasing and splitting on non-alphanumerics.  With document
frequency n over N documents,

    idf(t) = max(0, ln((N - n + 0.5) / (n + 0.5)))

(the IDF is floored at zero) and a document d of length |d| scores

    score(q, d) = sum over t in q of idf(t) * f(t,d) * (k1 + 1)
                  / (f(t,d) + k1 * (1 - b + b * |d| / avgdl))

Ranking sorts by descending score with ascending id as the tiebreak.

A :class:`Bm25Index` is built once per pool: it keeps a postings list of
(document, term frequency) per term and the length norm
``k1 * (1 - b + b * |d| / avgdl)`` per document, so a query only touches the
documents that share a term with it.  Query terms are added in query order,
repeats included, which keeps every score bitwise equal to the per-document
sum above.  :func:`bm25_rank` takes either a pool of (id, text) documents or
a prebuilt index, so many queries against one pool share a single index.
:class:`semkit.experiment.DemoSelector` holds that index, the pool's operator
sets and the greedy picks for one experiment.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass

from .errors import PoolExhaustedError

BM25_K1 = 1.5
BM25_B = 0.75

_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def setcov(structures: frozenset[str], candidate_sets) -> int:
    """Number of structures covered by at least one of the candidate sets."""
    covered = set()
    for s_z in candidate_sets:
        covered |= s_z
    return len(structures & covered)


def coverage_fraction(candidate_sets, structures: frozenset[str]) -> float:
    if not structures:
        return 0.0
    return setcov(structures, candidate_sets) / len(structures)


@dataclass(frozen=True)
class GreedyTrace:
    """One greedy step: which candidate was taken, or a cover reset."""

    picked: str | None  # candidate id, None for a reset
    coverage: int | None


def greedy_select(pool: list[tuple[str, frozenset[str]]], structures: frozenset[str],
                  k: int, with_trace: bool = False):
    """Greedy set-coverage selection over (id, operator set) candidates.

    Returns the selected ids in pick order (and the step trace when asked).
    An id is picked at most once, so the pool must hold at least k distinct ids.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    distinct = len({cand_id for cand_id, _ in pool})
    if k > distinct:
        raise PoolExhaustedError(f"requested k={k} from a pool of {distinct} distinct ids")
    candidates = [(cand_id, cand_set & structures) for cand_id, cand_set in pool]
    selected: list[str] = []
    selected_ids: set[str] = set()
    covered: set[str] = set()  # structures covered by the current cover
    fresh = True  # the cover is empty since the start or a reset: any pick improves it
    trace: list[GreedyTrace] = []
    while len(selected) < k:
        best_id, best_set, best_gain = None, None, -1
        for cand_id, cand_set in candidates:
            if cand_id in selected_ids:
                continue
            gain = len(cand_set - covered)
            if gain > best_gain:
                best_id, best_set, best_gain = cand_id, cand_set, gain
        if best_id is not None and (fresh or best_gain > 0):
            fresh = False
            covered |= best_set
            selected.append(best_id)
            selected_ids.add(best_id)
            trace.append(GreedyTrace(picked=best_id, coverage=len(covered)))
        else:
            covered = set()
            fresh = True
            trace.append(GreedyTrace(picked=None, coverage=None))
    return (selected, trace) if with_trace else selected


class Bm25Index:
    """Okapi BM25 over a fixed pool of (id, text) documents."""

    def __init__(self, documents: list[tuple[str, str]], k1: float = BM25_K1, b: float = BM25_B):
        self.ids = [doc_id for doc_id, _ in documents]
        self.k1 = k1
        self.b = b
        term_freqs = [Counter(tokenize(text)) for _, text in documents]
        doc_lens = [sum(tf.values()) for tf in term_freqs]
        n_docs = len(documents)
        avgdl = (sum(doc_lens) / n_docs) if n_docs else 0.0
        self.norms = [k1 * (1 - b + b * (dl / avgdl if avgdl else 0.0)) for dl in doc_lens]
        self.postings: dict[str, list[tuple[int, int]]] = {}
        for position, tf in enumerate(term_freqs):
            for term, f in tf.items():
                self.postings.setdefault(term, []).append((position, f))
        self.idf = {term: max(0.0, math.log((n_docs - len(docs) + 0.5) / (len(docs) + 0.5)))
                    for term, docs in self.postings.items()}

    def __len__(self) -> int:
        return len(self.ids)

    def scores(self, query: str) -> list[float]:
        out = [0.0] * len(self.ids)
        norms = self.norms
        scale = self.k1 + 1
        for term in tokenize(query):  # query order, repeats included (see module docstring)
            idf = self.idf.get(term)
            if idf is None:
                continue
            for position, f in self.postings[term]:
                out[position] += idf * f * scale / (f + norms[position])
        return out


def bm25_rank(query: str, pool: list[tuple[str, str]] | Bm25Index, k: int,
              k1: float = BM25_K1, b: float = BM25_B) -> list[str]:
    """Top-k pool ids by Okapi BM25 score; ties and empty queries fall back to id order.

    ``pool`` is a list of (id, text) documents or a prebuilt :class:`Bm25Index`,
    whose own k1 and b then apply.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(pool):
        raise PoolExhaustedError(f"requested k={k} from a pool of {len(pool)}")
    index = pool if isinstance(pool, Bm25Index) else Bm25Index(pool, k1=k1, b=b)
    scored = heapq.nsmallest(k, zip(index.ids, index.scores(query)),
                             key=lambda p: (-p[1], p[0]))
    return [doc_id for doc_id, _ in scored]
