"""Runs one prepared workload, checks its outputs and measures it.

    python3 perfbench/worker.py PLAN_JSON --seconds S --trace 0|1 [--freeze]

Started by ``run.py`` in a fresh interpreter, so that its peak resident
memory is that of the workload alone.  Prints one JSON object.

A pass calls every entry of the plan once through semkit's public entry
points (``run_experiment``, or ``bootstrap_annotations`` as ``semkit
bootstrap`` drives it) with ``jobs=1``.  Only those calls are timed; the
output checks between them are not.  One untimed warm-up pass comes first.
With ``--trace 1`` half the time runs untraced and half traced, and the gap
between the two throughputs is the tracing overhead.

Output checks, per call and pass:

* every scored example got the verdict the scripted model implies; a raised
  call fails all of its examples, and so does any example a cache miss was
  reported for on stderr, which ``run_experiment`` would otherwise book as
  the model's ``execution-failure``;
* the annotation pool holds exactly the examples that got a gold proposal,
  in order, with that program;
* the output files hash the same on every pass, to the digests frozen in
  ``digests.json`` at the default seed, and the bundled replay run keeps its
  frozen per-seed accuracies.

Throughput and CPU cost are medians over passes, scaled by the reference task
(``reference.py``) sampled between calls; the unscaled figures are returned
too.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# semkit is called through module attributes, so that the tracer's rebinding applies
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from model import ScriptedModel  # noqa: E402
from semkit import cli, corpus, execute, llm, prompts, resources  # noqa: E402

DIGESTS = HERE / "digests.json"
REPLAY_ACCURACIES = [0.8, 0.7, 0.9]  # acceptance 9 of the test suite
REFERENCE_EVERY_S = 0.4
MAX_TRACED_SPANS = 150_000  # the traced half ends early rather than hold more
_MISS_LINE = re.compile(r"^seed (\S+) (\S+): ", re.MULTILINE)


def digest_dir(path: Path) -> dict[str, str]:
    if path.is_file():
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


class RunCall:
    """One ``run_experiment`` call: an experiment config and its expected verdicts."""

    def __init__(self, spec: dict):
        self.name = spec["name"]
        self.config_path = Path(spec["config"])
        self.out = Path(spec["out"])
        self.expected = spec["expected"]  # {seed: {test id: verdict}}, None for replay
        self.examples = spec["examples"]
        self.config = json.loads(self.config_path.read_text(encoding="utf-8"))

    def run(self):
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            aggregate = cli.run_experiment(self.config, self.config_path.parent, self.out)
        return aggregate, stderr.getvalue()

    def failures(self, result, errors: list[str]) -> int:
        aggregate, stderr = result
        if self.expected is None:
            if aggregate["accuracies"] != REPLAY_ACCURACIES:
                errors.append(f"{self.name}: accuracies {aggregate['accuracies']} "
                              f"!= {REPLAY_ACCURACIES}")
            return len(_MISS_LINE.findall(stderr))
        failed = {(seed, test_id) for seed, test_id in _MISS_LINE.findall(stderr)}
        for seed, expected in self.expected.items():
            path = self.out / f"report_seed{seed}.json"
            got = dict(json.loads(path.read_text(encoding="utf-8"))["verdicts"]) \
                if path.exists() else {}
            failed.update((seed, i) for i, verdict in expected.items() if got.get(i) != verdict)
        return len(failed)


class BootstrapCall:
    """Annotation bootstrapping as ``semkit bootstrap`` runs it, on a live scripted client."""

    def __init__(self, spec: dict):
        self.name = spec["name"]
        self.config_path = Path(spec["config"])
        self.out = Path(spec["out"])
        self.model = ScriptedModel.load(spec["answers"])
        self.config = json.loads(self.config_path.read_text(encoding="utf-8"))
        # proposals checked by the last call; at least one per unlabeled example
        self.examples = len(self.config["unlabeled_ids"])

    def run(self):
        self.model.log = []
        config, base = self.config, self.config_path.parent
        dataset = corpus.load_dataset(base / config["dataset"])
        seed_pool = [dataset[i] for i in config["seed_ids"]]
        unlabeled = []
        for ex_id in config["unlabeled_ids"]:
            example = dataset[ex_id]
            programs = {d: p for d, p in example.programs.items() if d != config["dialect"]}
            unlabeled.append(corpus.Example(id=example.id, utterance=example.utterance,
                                     programs=programs, tags=example.tags))
        env_object = execute.load_environment(
            config["environment"], resources.environment_path(config["environment"]))
        client = llm.LlmClient(mode="live", transport=self.model.transport)
        bootstrap_config = llm.BootstrapConfig(
            environment=config["environment"], dialect=config["dialect"],
            gold_dialect=config["gold_dialect"], model=config["model"], k=config["k"],
            passes=config["passes"], seed=config["seed"],
            dd_declarations=prompts.load_dd_source(resources.dd_path(config["environment"],
                                                             config["dialect"])))
        pool = llm.bootstrap_annotations(seed_pool, unlabeled, env_object, client, bootstrap_config)
        self.out.parent.mkdir(parents=True, exist_ok=True)
        with open(self.out, "w", encoding="utf-8") as fh:
            for example in pool:
                fh.write(corpus.example_to_json_line(example) + "\n")
        self.examples = len(self.model.log)
        return pool, len(seed_pool)

    def failures(self, result, errors: list[str]) -> int:
        pool, n_seed = result
        dialect = self.config["dialect"]
        gold = {a.example_id: a.gold for a in self.model.answers.values()}
        last_kind = dict(self.model.log)
        want = [i for i, kind in self.model.log if kind == "gold"]
        got = {ex.id: ex.programs.get(dialect) for ex in pool[n_seed:]}
        failed = {i for i in want if got.get(i) != gold[i]}
        failed |= {i for i in got if last_kind.get(i) != "gold"}
        if not failed and [ex.id for ex in pool[n_seed:]] != want:
            errors.append(f"{self.name}: pool order differs from proposal order")
        if [ex.id for ex in pool[:n_seed]] != self.config["seed_ids"]:
            errors.append(f"{self.name}: seed pool changed")
        return len(failed)

    def accept_ratio(self, result) -> float:
        pool, n_seed = result
        return (len(pool) - n_seed) / len(self.model.log) if self.model.log else 0.0


class Workload:
    def __init__(self, plan: dict, frozen: dict | None, strict: bool):
        self.plan = plan
        self.calls = [RunCall(c) if c["kind"] == "run" else BootstrapCall(c)
                      for c in plan["calls"]]
        self.frozen = frozen or {}  # {call name: {file: sha256}} to match
        self.strict = strict  # every call must have frozen digests
        self.first_digests: dict[str, dict] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.accept_ratio = 0.0
        self.references: list[float] = []  # reference task seconds, in run order
        self._unsampled = 0.0  # timed seconds since the last reference sample

    def one_pass(self, count: bool) -> tuple[float, float, int]:
        """Run every call once; returns (wall s, CPU s, examples) of the timed calls.

        The reference task runs between calls, after each ``REFERENCE_EVERY_S``
        seconds of timed work."""
        wall = cpu = 0.0
        examples = 0
        for call in self.calls:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = call.run()
            except Exception as exc:  # noqa: BLE001 - a raised call fails its examples
                result = exc
            call_wall = time.perf_counter() - t0
            cpu += time.process_time() - c0
            wall += call_wall
            self._unsampled += call_wall
            if self._unsampled >= REFERENCE_EVERY_S:
                self.references.append(reference.reference_seconds())
                self._unsampled = 0.0
            n = call.examples
            failed = n if isinstance(result, Exception) else call.failures(result, self.errors)
            if isinstance(result, Exception):
                self.errors.append(f"{call.name}: raised {type(result).__name__}: {result}")
            elif isinstance(call, BootstrapCall):
                self.accept_ratio = call.accept_ratio(result)
            self.check_digests(call)
            examples += n
            if count:
                self.attempted += n
                self.failed += failed
            elif failed:
                self.errors.append(f"{call.name}: {failed} examples failed in the warm-up pass")
        return wall, cpu, examples

    def check_digests(self, call) -> None:
        digests = digest_dir(call.out) if call.out.exists() else {}
        first = self.first_digests.setdefault(call.name, digests)
        if digests != first:
            self.errors.append(f"{call.name}: outputs differ between passes")
        if call.name in self.frozen or self.strict:
            if digests != self.frozen.get(call.name):
                self.errors.append(f"{call.name}: outputs differ from the frozen digests")

    def measure(self, seconds: float, tracer=None):
        """Passes for ``seconds``, the reference samples taken meanwhile, and, when
        traced, each pass's (first, end) span indexes."""
        passes, bounds = [], []
        first_reference = len(self.references)
        started = time.perf_counter()
        while not passes or (time.perf_counter() - started < seconds and
                             (tracer is None or len(tracer.spans) < MAX_TRACED_SPANS)):
            first_span = len(tracer.spans) if tracer else 0
            passes.append(self.one_pass(count=True))
            bounds.append((first_span, len(tracer.spans) if tracer else 0))
        return passes, self.references[first_reference:], bounds


def load_frozen() -> dict | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="print the output digests of one pass and stop")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))

    frozen = None if args.freeze else load_frozen()
    # every workload runs the bundled replay once, untimed, against its frozen outputs
    gate = Workload({**plan, "calls": [plan["gate"]]},
                    {"replay": frozen["replay"]} if frozen else None, strict=False)
    gate.one_pass(count=False)
    strict = frozen is not None and plan["seed"] == frozen["seed"]
    if strict:
        workload_frozen = frozen["workloads"].get(plan["workload"], {})
    else:
        workload_frozen = {"replay": frozen["replay"]} if frozen else None
    workload = Workload(plan, workload_frozen, strict=strict)
    workload.one_pass(count=False)  # warm-up, checked
    if args.freeze:
        print(json.dumps(workload.first_digests))
        return 0 if not workload.errors else 1

    result = {}
    if args.trace:
        untraced, untraced_refs, _ = workload.measure(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_refs, bounds = workload.measure(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics, summaries = tracing.layer_metrics(
            tracer, bounds, {"llm.bootstrap.accept_ratio": workload.accept_ratio})
        traced_summary = summary(traced, traced_refs)
        result.update(summary(untraced, untraced_refs),
                      traced_examples_per_s=traced_summary["examples_per_s"],
                      missing_layers=tracing.missing_layers(plan["workload"], summaries),
                      passes=len(untraced) + len(traced))
        metrics[tracing.OVERHEAD_METRIC[0]] = {
            "value": 1 - traced_summary["examples_per_s"] / result["examples_per_s"],
            "unit": tracing.OVERHEAD_METRIC[1]}
        result["layers"] = metrics
        tracer.write(Path(args.plan).parent / "spans.jsonl")
    else:
        timed, refs, _ = workload.measure(args.seconds)
        result.update(summary(timed, refs), passes=len(timed))
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=workload.attempted, failed=workload.failed,
        errors=sorted(set(gate.errors + workload.errors)))
    print(json.dumps(result))
    return 0


def summary(passes, references) -> dict[str, float]:
    """Median throughput and CPU cost over passes, scaled to the reference host."""
    slowdown = reference.slowdown(references)
    examples_per_s = statistics.median(n / wall for wall, _, n in passes)
    cpu_ms = statistics.median(1000 * cpu / n for _, cpu, n in passes)
    return {"examples_per_s": examples_per_s * slowdown,
            "cpu_ms_per_example": cpu_ms / slowdown,
            "unscaled_examples_per_s": examples_per_s, "unscaled_cpu_ms_per_example": cpu_ms,
            "host_slowdown": slowdown}


if __name__ == "__main__":
    raise SystemExit(main())
