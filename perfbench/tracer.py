"""Outside-in layer tracing for the semkit benchmark.

:meth:`Tracer.install` wraps the public function of each layer from here,
without touching semkit's sources.  Each target is looked up once where it is
defined; then every attribute of every loaded ``semkit.*`` module that *is*
that function object is rebound to the wrapper, so call sites that imported
the name (``from .execute import run_program``) are traced too, wherever the
caller later moves.  The named methods are wrapped on their classes.

Each call records a span (id, parent id, name, start, end, self time, key,
raised) in memory; :meth:`Tracer.write` saves them at the end.  Self time is
the span's duration minus the time its child spans cover.

:data:`LAYER_METRICS` turns the spans of one workload pass (one call of each
entry of the workload) into the per-layer metrics: ``.s`` is self time per
pass, ``.calls`` a count per pass, and each is the median over the traced
passes.  ``execute.run_program.<dialect>.s`` is the exception: it is the
inclusive time of that dialect's programs, parse and execute spans included.
The table also names the workload each metric's layer is exercised on, for
the coverage self-check.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time

FUNCTIONS = (
    "corpus.load_dataset", "corpus.sample_demos",
    "execute.operators_of", "execute.load_environment", "execute.run_program",
    "selection.bm25_rank", "selection.greedy_select", "selection.coverage_fraction",
    "prompts.build_prompt", "prompts.default_template", "prompts.render_dd",
    "llm.extract_program", "llm.bootstrap_annotations",
    "funql.parse_funql", "funql.exec_funql",
    "social.parse_ldcs", "social.simplify_ldcs", "social.exec_ldcs_simple",
    "calflow.parse_dfs", "calflow.exec_dfs",
    "pymr.parse_pymr", "pymr.exec_pymr",
    "evaluation.canonicalize_names", "evaluation.verdict_of",
    "evaluation.report_from_verdicts", "evaluation.score_run",
    "cli.run_experiment",
)
METHODS = (
    "llm.ReplayCache.__init__", "llm.ReplayCache.get", "llm.LlmClient.complete",
    "selection.Bm25Index.__init__",
)
KEYED = ("execute.run_program", "execute.operators_of")  # spans keyed by (dialect, text)
DIALECTS = ("funql", "ldcs", "ldcs-simple", "dataflow-simple", "pymr")
# per-call latency: metric prefix -> (span, home workload), and the fields reported
LATENCY = {"execute.run_program": ("execute.run_program", "sweep"),
           "llm.complete": ("llm.LlmClient.complete", "sweep"),
           "selection.bm25_rank": ("selection.bm25_rank", "retrieval")}
LATENCY_FIELDS = {"lat_p50_us": ("us", "lower"), "lat_tail_us": ("us", "lower"),
                  "lat_tail_pct": ("%", "higher"), "lat_n": ("count", "higher")}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _dialect_text(args, kwargs):
    dialect = args[0] if args else kwargs.get("dialect")
    text = args[1] if len(args) > 1 else kwargs.get("text")
    return dialect, text


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, start, child time]
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._next_id = 0

    def _wrap(self, name: str, fn):
        keyed = name in KEYED
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [self._next_id, clock(), 0.0]
            stack.append(frame)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                spans.append((frame[0], parent[0] if parent else None, name, frame[1], end,
                              duration - frame[2],
                              _dialect_text(args, kwargs) if keyed else None, raised))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "semkit" or n.startswith("semkit."))]
        for name in FUNCTIONS:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"semkit.{module_name}"), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for name in METHODS:
            module_name, cls_name, attr = name.split(".")
            cls = getattr(importlib.import_module(f"semkit.{module_name}"), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end", "self_s", "dialect",
                                 "raised"]) + "\n")
            for sid, parent, name, start, end, self_s, key, raised in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end, self_s,
                                     key[0] if key else None, raised]) + "\n")


class PassSummary:
    """Counts and times of the spans of one workload pass."""

    def __init__(self, spans):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.raised: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.dialect_calls: dict[str, int] = {}
        self.dialect_s: dict[str, float] = {}
        for _, _, name, start, end, self_s, key, raised in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s
            self.raised[name] = self.raised.get(name, 0) + raised
            if key is not None:
                self.keys.setdefault(name, set()).add(key)
                if name == "execute.run_program":
                    self.dialect_calls[key[0]] = self.dialect_calls.get(key[0], 0) + 1
                    self.dialect_s[key[0]] = self.dialect_s.get(key[0], 0.0) + end - start

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def seconds(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def ratio(self, part: int, name: str) -> float:
        return part / self.count(name) if self.count(name) else 0.0

    def useful(self, name: str) -> float:
        return self.ratio(len(self.keys.get(name, ())), name)


def _layer_metrics():
    """(metric, unit, better, home workload, span that must record calls there,
    value from a :class:`PassSummary`)."""
    table = []

    def add(metric, unit, better, home, span, value):
        table.append((metric, unit, better, home, span, value))

    def seconds(metric, span, home="sweep"):
        add(metric, "s", "lower", home, span, lambda p: p.seconds(span))

    def calls(metric, span, home="sweep"):
        add(metric, "count", "lower", home, span, lambda p: p.count(span))

    seconds("corpus.load_dataset.s", "corpus.load_dataset")
    calls("corpus.sample_demos.calls", "corpus.sample_demos")
    seconds("corpus.sample_demos.s", "corpus.sample_demos")
    calls("execute.operators_of.calls", "execute.operators_of", "coverage")
    seconds("execute.operators_of.s", "execute.operators_of", "coverage")
    add("execute.operators_of.useful_ratio", "ratio", "higher", "coverage",
        "execute.operators_of", lambda p: p.useful("execute.operators_of"))
    seconds("selection.bm25_rank.s", "selection.bm25_rank", "retrieval")
    calls("selection.Bm25Index.builds", "selection.Bm25Index.__init__", "retrieval")
    seconds("selection.greedy_select.s", "selection.greedy_select", "coverage")
    seconds("selection.coverage_fraction.s", "selection.coverage_fraction", "coverage")
    calls("prompts.build_prompt.calls", "prompts.build_prompt")
    seconds("prompts.build_prompt.s", "prompts.build_prompt")
    calls("prompts.default_template.calls", "prompts.default_template")
    calls("prompts.render_dd.calls", "prompts.render_dd")
    seconds("llm.ReplayCache.load_s", "llm.ReplayCache.__init__")
    calls("llm.complete.calls", "llm.LlmClient.complete")
    seconds("llm.complete.s", "llm.LlmClient.complete")
    add("llm.complete.failed", "count", "lower", "sweep", "llm.LlmClient.complete",
        lambda p: p.raised.get("llm.LlmClient.complete", 0))
    add("llm.cache_hit_ratio", "ratio", "higher", "sweep", "llm.ReplayCache.get",
        lambda p: p.ratio(p.count("llm.ReplayCache.get") - p.raised.get("llm.ReplayCache.get", 0),
                          "llm.ReplayCache.get"))
    seconds("llm.extract_program.s", "llm.extract_program")
    seconds("llm.bootstrap_annotations.s", "llm.bootstrap_annotations", "annotate")
    # filled in from the workload's own counts, see worker.py
    add("llm.bootstrap.accept_ratio", "ratio", "higher", "annotate",
        "llm.bootstrap_annotations", None)
    seconds("execute.load_environment.s", "execute.load_environment")
    calls("execute.run_program.calls", "execute.run_program")
    seconds("execute.run_program.s", "execute.run_program")
    add("execute.run_program.useful_ratio", "ratio", "higher", "sweep", "execute.run_program",
        lambda p: p.useful("execute.run_program"))
    for dialect in DIALECTS:  # inclusive time: parse and execute spans included
        add(f"execute.run_program.{dialect}.s", "s", "lower", "sweep",
            ("execute.run_program", dialect), lambda p, d=dialect: p.dialect_s.get(d, 0.0))
    for span in ("funql.parse_funql", "funql.exec_funql", "social.parse_ldcs",
                 "social.simplify_ldcs", "social.exec_ldcs_simple", "calflow.parse_dfs",
                 "calflow.exec_dfs", "pymr.parse_pymr", "pymr.exec_pymr",
                 "evaluation.canonicalize_names", "evaluation.verdict_of",
                 "evaluation.report_from_verdicts", "evaluation.score_run"):
        seconds(f"{span}.s", span)
    calls("cli.run_experiment.calls", "cli.run_experiment")
    seconds("cli.run_experiment.self_s", "cli.run_experiment")
    return table


LAYER_METRICS = _layer_metrics()
LATENCY_METRICS = [(f"{prefix}.{field}", unit, better)
                   for prefix in LATENCY for field, (unit, better) in LATENCY_FIELDS.items()]
OVERHEAD_METRIC = ("trace.overhead_share", "share", "lower")


def latency(durations: list[float]) -> dict[str, float]:
    """Median and the highest ladder percentile with at least ten samples beyond it."""
    n = len(durations)
    out = {"lat_p50_us": 0.0, "lat_tail_us": 0.0, "lat_tail_pct": 0.0, "lat_n": n}
    if not n:
        return out
    ordered = sorted(durations)
    out["lat_p50_us"] = statistics.median(ordered) * 1e6
    for pct in TAIL_LADDER:
        if n * (1 - pct / 100) >= 10:
            out["lat_tail_us"] = ordered[math.ceil(pct / 100 * n) - 1] * 1e6
            out["lat_tail_pct"] = pct
            break
    return out


def layer_metrics(tracer: Tracer, passes: list[tuple[int, int]],
                  extra: dict) -> tuple[dict, list[PassSummary]]:
    """Per-layer metrics: the median over traced passes, and pooled latencies.

    ``passes`` are (first, end) indexes into ``tracer.spans``; ``extra`` holds
    values the workload measured itself (``llm.bootstrap.accept_ratio``).
    """
    summaries = [PassSummary(tracer.spans[a:b]) for a, b in passes]
    metrics = {}
    for metric, unit, _, _, _, value in LAYER_METRICS:
        got = extra.get(metric, 0.0) if value is None else \
            statistics.median(value(s) for s in summaries)
        metrics[metric] = {"value": got, "unit": unit}
    for prefix, (span, _) in LATENCY.items():
        samples = [end - start for a, b in passes
                   for _, _, name, start, end, _, _, _ in tracer.spans[a:b] if name == span]
        for field, value in latency(samples).items():
            metrics[f"{prefix}.{field}"] = {"value": value, "unit": LATENCY_FIELDS[field][0]}
    return metrics, summaries


def missing_layers(workload: str, summaries: list[PassSummary]) -> list[str]:
    """Metrics homed on ``workload`` whose layer recorded no call in the traced run."""
    missing = []
    for metric, _, _, home, span, _ in LAYER_METRICS:
        if home != workload:
            continue
        if isinstance(span, tuple):
            seen = sum(s.dialect_calls.get(span[1], 0) for s in summaries)
        else:
            seen = sum(s.count(span) for s in summaries)
        if not seen:
            missing.append(metric)
    for prefix, (span, home) in LATENCY.items():
        if home == workload and not sum(s.count(span) for s in summaries):
            missing.extend(f"{prefix}.{field}" for field in LATENCY_FIELDS)
    return missing
