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

Pools repeat programs, so they repeat operator sets: candidates are grouped
by S_z ∩ S once, and each step scans the groups, not the candidates.  Members
of a group have equal gains, so the group offers its first unpicked member in
pool order, and a tie between groups goes to the lowest offered pool position:
that is the candidate the per-candidate argmax picks, so picks, resets and
the trace are the same.  A member whose id was already picked, from its own
group or from another under a duplicate id, is dropped when its group is
next scanned.

BM25
----
Okapi scoring with the constants k1 = ``BM25_K1`` (1.5) and b = ``BM25_B``
(0.75).  A document's or query's tokens are the maximal runs of ASCII a-z and
0-9 in its ``str.lower()``, exactly
``re.findall(r"[a-z0-9]+", text.lower())``: every other character separates,
non-ASCII letters and digits included (``"café"`` is ``caf``, ``"１"`` and
``"²"`` are no token), while a character that lowercases to ASCII counts as that
letter (U+212A KELVIN SIGN is ``k``).  :func:`tokenize` computes this with one
byte table, which turns every byte but a-z and 0-9 into a space, over the
lowercased text encoded to ASCII with each other character replaced, then splits
on the spaces.  With document frequency n over N documents,

    idf(t) = max(0, ln((N - n + 0.5) / (n + 0.5)))

(the IDF is floored at zero) and a document d of length |d| scores

    score(q, d) = sum over t in q of idf(t) * f(t,d) * (k1 + 1)
                  / (f(t,d) + k1 * (1 - b + b * |d| / avgdl))

Ranking sorts by descending score with ascending id as the tiebreak.

A :class:`Bm25Index` is built once per pool, in one pass over its tokens.
It keeps, per term, the positions of the term's occurrences in pool order (a
document holding the term f times is listed f times), and per document the
length norm ``k1 * (1 - b + b * |d| / avgdl)``.  A term's weights
``idf * f * (k1 + 1) / (f + norm)`` are computed the first time a query uses
the term, in one list comprehension over its documents, with the same
expression in the same order as above, so each is the same float.  The
weights are cached on the index as a (positions, weights) tuple.  A term with
zero IDF gets no weights.  Each would be 0.0, and ``x + 0.0 == x`` for every x
but -0.0, which no score is: a sum that starts at +0.0 never becomes -0.0.

A query adds the weights of its terms in query order, repeats included, into
a list of N floats, so every score is bitwise the per-document sum above.
The top k come in two steps: ``heapq.nlargest(k, scores)`` finds the k-th
largest score, and the keyed ``heapq.nlargest`` then ranks only the positions,
in id order, whose score reaches it.  Those hold every member of the top k,
and ``nlargest`` is stable: equal scores fall to ascending id, and within a
repeated id to pool order.  :func:`bm25_rank` ranks against a prebuilt index,
so many queries against one pool share a single index and its weights.
:class:`semkit.experiment.DemoSelector` holds that index, the pool's operator
sets and the greedy picks for one experiment.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from typing import NamedTuple

from .errors import PoolExhaustedError

BM25_K1 = 1.5
BM25_B = 0.75

# every byte but ASCII a-z and 0-9 translates to a space
_SEPARATORS = bytes(c if c in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32
                    for c in range(256))


def tokenize(text: str) -> list[str]:
    """The maximal runs of ASCII a-z and 0-9 in ``text.lower()`` (see the module docstring)."""
    return text.lower().encode("ascii", "replace").translate(_SEPARATORS).decode().split()


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


class GreedyTrace(NamedTuple):
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
    by_set: dict[frozenset[str], list[tuple[int, str]]] = {}  # intersect each set once
    for position, (cand_id, cand_set) in enumerate(pool):
        by_set.setdefault(cand_set, []).append((position, cand_id))
    # operator set within the structures -> (position, id) of its members, last first
    groups: dict[frozenset[str], list[tuple[int, str]]] = {}
    for cand_set, members in by_set.items():
        groups.setdefault(cand_set & structures, []).extend(members)
    for members in groups.values():
        members.sort(reverse=True)
    selected: list[str] = []
    selected_ids: set[str] = set()
    covered: set[str] = set()  # structures covered by the current cover
    fresh = True  # the cover is empty since the start or a reset: any pick improves it
    trace: list[GreedyTrace] = []
    while len(selected) < k:
        best, best_set, best_gain = None, None, -1  # best: the members of the best group
        for cand_set, members in groups.items():
            while members and members[-1][1] in selected_ids:
                members.pop()  # picked from this group or, under a duplicate id, another
            if members:
                gain = len(cand_set - covered)
                if gain > best_gain or (gain == best_gain and members[-1][0] < best[-1][0]):
                    best, best_set, best_gain = members, cand_set, gain
        if best is not None and (fresh or best_gain > 0):
            fresh = False
            covered |= best_set
            best_id = best.pop()[1]
            selected.append(best_id)
            selected_ids.add(best_id)
            trace.append(GreedyTrace(picked=best_id, coverage=len(covered)))
        else:
            covered = set()
            fresh = True
            trace.append(GreedyTrace(picked=None, coverage=None))
    return (selected, trace) if with_trace else selected


class Bm25Index:
    """Okapi BM25 over a fixed pool of (id, text) documents (layout in the module docstring)."""

    def __init__(self, documents: list[tuple[str, str]]):
        self.ids = [doc_id for doc_id, _ in documents]
        occurrences = defaultdict(list)  # term -> positions, a document repeated f times
        doc_lens = []
        for position, (_, text) in enumerate(documents):
            terms = tokenize(text)
            doc_lens.append(len(terms))
            for term in terms:
                occurrences[term].append(position)
        n_docs = len(documents)
        avgdl = (sum(doc_lens) / n_docs) if n_docs else 0.0
        k1, b = BM25_K1, BM25_B
        self.norms = [k1 * (1 - b + b * (dl / avgdl if avgdl else 0.0)) for dl in doc_lens]
        self.occurrences = dict(occurrences)
        self.by_id = sorted(range(n_docs), key=self.ids.__getitem__)  # ties keep position order
        self._weights: dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def weights(self, term: str) -> tuple:
        """(positions, weights) of the documents holding ``term``; empty for zero IDF.

        Computed on first use and cached (see the module docstring).
        """
        entry = self._weights.get(term)
        if entry is None:
            entry = ((), ())
            positions = self.occurrences.get(term)
            if positions is not None:
                freqs = Counter(positions)  # position -> f, in pool order
                idf = max(0.0, math.log((len(self.ids) - len(freqs) + 0.5) / (len(freqs) + 0.5)))
                if idf:
                    scale = BM25_K1 + 1
                    norms = self.norms
                    entry = (list(freqs), [idf * f * scale / (f + norms[position])
                                           for position, f in freqs.items()])
            self._weights[term] = entry
        return entry

    def scores(self, query: str) -> list[float]:
        out = [0.0] * len(self.ids)
        for term in tokenize(query):  # query order, repeats included (see module docstring)
            positions, weights = self.weights(term)
            for position, w in zip(positions, weights):
                out[position] += w
        return out


def bm25_rank(query: str, index: Bm25Index, k: int) -> list[str]:
    """Top-k ids of the index's pool by Okapi BM25 score;
    ties and empty queries fall back to id order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(index):
        raise PoolExhaustedError(f"requested k={k} from a pool of {len(index)}")
    scores = index.scores(query)
    kth = heapq.nlargest(k, scores)[-1]  # no position scoring below it is in the top k
    # nlargest is stable: equal scores keep id order (and position order within an id)
    top = heapq.nlargest(k, [position for position in index.by_id if scores[position] >= kth],
                         key=scores.__getitem__)
    ids = index.ids
    return [ids[position] for position in top]
