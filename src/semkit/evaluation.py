"""Execution-based and exact-match evaluation.  :func:`scorer` is the one rule that judges a
predicted program against its gold program, for ``run``, ``bootstrap`` and the data generator.

Per-environment comparison rules (:data:`POLICIES`):

* geo: denotation comparison in *set* mode (order and multiplicity ignored);
* social: *multiset* mode (order ignored, multiplicity kept);
* calendar: *state* mode — the multisets of created events must match on
  (start, end, location, attendees, avoided); the subject is ignored, and
  person names mentioned in predicted/gold program texts are
  first consistently mapped onto the world's people (see
  :func:`canonicalize_names`).

Numbers compare with relative tolerance 1e-9; unit tags are informative only.
Execution failures always score as incorrect and are counted separately;
harness errors (the completion client failed) score as incorrect and are
counted in neither.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .errors import PoolExhaustedError
from .execute import memoized_runs
from .outcomes import Denotation, Outcome, WorldDelta

if TYPE_CHECKING:  # an annotation only: importing this module loads no world
    from .calendar_world import CalendarWorld

NUMBER_RELATIVE_TOLERANCE = 1e-9


class ComparisonPolicy(NamedTuple):
    mode: str  # "denotation-set" | "denotation-multiset" | "state"
    name_canonicalization: bool = False


POLICIES = {
    "geo": ComparisonPolicy(mode="denotation-set"),
    "social": ComparisonPolicy(mode="denotation-multiset"),
    "calendar": ComparisonPolicy(mode="state", name_canonicalization=True),
}


def _numbers_equal(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(sorted(a), sorted(b)):
        scale = max(abs(x), abs(y), 1.0)
        if abs(x - y) > NUMBER_RELATIVE_TOLERANCE * scale:
            return False
    return True


def compare_denotations(pred: Denotation, gold: Denotation, policy: ComparisonPolicy) -> bool:
    """Order-insensitive comparison; set mode also ignores multiplicity."""
    if not isinstance(pred, Denotation) or not isinstance(gold, Denotation):
        return False
    if pred.kind != gold.kind:
        return False
    if pred.kind == "number":
        return _numbers_equal(pred.values, gold.values)
    if policy.mode == "denotation-set":
        return set(pred.entities) == set(gold.entities)
    return Counter(pred.entities) == Counter(gold.entities)


def compare_states(pred: WorldDelta, gold: WorldDelta) -> bool:
    """Multiset equality of created events, their subjects left out."""
    if not isinstance(pred, WorldDelta) or not isinstance(gold, WorldDelta):
        return False

    def key(event):
        return (event.start, event.end, event.location,
                tuple(sorted(event.attendees)), tuple(sorted(event.avoided)))

    return Counter(key(e) for e in pred.created) == Counter(key(e) for e in gold.created)


def compare_outcomes(pred: Outcome, gold: Outcome, policy: ComparisonPolicy) -> bool:
    if not pred.ok or not gold.ok:
        return False
    if policy.mode == "state":
        return compare_states(pred.value, gold.value)
    return compare_denotations(pred.value, gold.value, policy)


def exact_match(pred: str, gold: str) -> bool:
    """Program-text equality after collapsing whitespace runs and trimming."""
    normalize = lambda s: " ".join(s.split())
    return normalize(pred) == normalize(gold)


# --- person-name canonicalization (calendar) ---------------------------------

# the text inside a single- or double-quoted name passed to the person-lookup API in
# restricted-Python programs, positionally or as ``name=``, and bare-word person
# arguments in Dataflow-Simple calls
_PY_NAME = re.compile(
    r"""find_person\(\s*(?:name\s*=\s*)?(["'])(?P<name>(?:(?!\1).)*)\1\s*\)""")
_DFS_NAME = re.compile(
    r"(?:FindManager|FindTeamOf|with_attendee|avoid_attendee)\(\s*(?P<name>[^(),]*?)\s*\)")


def _name_spans(text: str) -> list[tuple[int, int, str]]:
    spans = []
    for pattern in (_PY_NAME, _DFS_NAME):
        for match in pattern.finditer(text):
            name = match.group("name")
            if name and not name[0].isdigit():
                spans.append((match.start("name"), match.end("name"), name))
    spans.sort()
    return spans


def canonicalize_names(pred_program: str, gold_program: str,
                       world: CalendarWorld) -> tuple[str, str]:
    """Map person names in both program texts onto the world's people.

    Distinct names (case-insensitive), in first-appearance order across the
    gold text then the predicted text, are assigned to the world's people in
    order; the same mapping is applied to both texts.  Idempotent.  Raises
    PoolExhaustedError when the programs mention more distinct names than the
    world has people.
    """
    gold_spans = _name_spans(gold_program)
    pred_spans = _name_spans(pred_program)
    mapping: dict[str, str] = {}
    for _, _, name in [*gold_spans, *pred_spans]:
        key = name.lower()
        if key not in mapping:
            if len(mapping) >= len(world.people):
                raise PoolExhaustedError(
                    f"programs mention more than {len(world.people)} distinct people")
            mapping[key] = world.people[len(mapping)].name

    def apply(text: str, spans) -> str:
        out, last = [], 0
        for start, end, name in spans:
            out.append(text[last:start])
            out.append(mapping[name.lower()])
            last = end
        out.append(text[last:])
        return "".join(out)

    return apply(pred_program, pred_spans), apply(gold_program, gold_spans)


# --- scoring ------------------------------------------------------------------

VERDICTS = ("correct", "wrong-result", "execution-failure", "harness-error")


class AccuracyReport(NamedTuple):
    seed: int
    n_total: int
    n_correct: int
    n_execution_failures: int
    verdicts: tuple[tuple[str, str], ...] = ()  # (example id, verdict)

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n_total if self.n_total else 0.0

    @property
    def exec_failure_rate(self) -> float:
        return self.n_execution_failures / self.n_total if self.n_total else 0.0

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "n_total": self.n_total,
            "n_correct": self.n_correct,
            "n_execution_failures": self.n_execution_failures,
            "accuracy": self.accuracy,
            "exec_failure_rate": self.exec_failure_rate,
            "verdicts": [list(v) for v in self.verdicts],
        }


def verdict_of(pred: Outcome, gold: Outcome, policy: ComparisonPolicy) -> str:
    if not pred.ok:
        return "execution-failure"
    return "correct" if compare_outcomes(pred, gold, policy) else "wrong-result"


def scorer(environment: str, world):
    """``score(dialect, pred, gold_dialect, gold) -> verdict`` under ``POLICIES[environment]``,
    with one outcome memo (:func:`~semkit.execute.memoized_runs`) for both texts.  Names are
    canonicalized where the policy asks; a pair naming more people than ``world`` has is the
    prediction's ``execution-failure``."""
    policy = POLICIES[environment]
    run = memoized_runs(environment, world)

    def score(dialect: str, pred: str, gold_dialect: str, gold: str) -> str:
        if policy.name_canonicalization:  # module globals, so a tracer's rebinding runs
            try:
                pred, gold = canonicalize_names(pred, gold, world)
            except PoolExhaustedError:
                return "execution-failure"
        return verdict_of(run(dialect, pred), run(gold_dialect, gold), policy)

    return score


def report_from_verdicts(seed: int, verdicts) -> AccuracyReport:
    verdicts = tuple(verdicts)
    for _, verdict in verdicts:
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
    return AccuracyReport(
        seed=seed,
        n_total=len(verdicts),
        n_correct=sum(1 for _, v in verdicts if v == "correct"),
        n_execution_failures=sum(1 for _, v in verdicts if v == "execution-failure"),
        verdicts=verdicts,
    )


def score_run(reports: list[AccuracyReport]) -> dict:
    """Aggregate per-seed reports: mean and population standard deviation."""
    if not reports:
        raise ValueError("no reports to aggregate")
    accuracies = [r.accuracy for r in reports]
    mean = sum(accuracies) / len(accuracies)
    variance = sum((a - mean) ** 2 for a in accuracies) / len(accuracies)
    return {
        "seeds": [r.seed for r in reports],
        "accuracies": accuracies,
        "mean_accuracy": mean,
        "stddev_accuracy": variance ** 0.5,
        "mean_exec_failure_rate": sum(r.exec_failure_rate for r in reports) / len(reports),
    }
