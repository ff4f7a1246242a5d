"""Completion client with record/replay, the per-example evaluation step, and bootstrapping.

The cache is an append-only JSONL file keyed by a request fingerprint
(sha256 of the canonical JSON encoding of model id, prompt and temperature);
each entry also stores the full prompt digest so fingerprint collisions are
detected rather than silently served.  ``replay`` mode never touches the
network — a missing entry is a :class:`~semkit.errors.CacheMissError`.

The live transport posts ``{"model", "prompt", "temperature", "max_tokens",
"stop"}`` as JSON to the configured endpoint (auth bearer token from an
environment variable) and expects ``{"completion": str}`` back; transient
transport failures retry with exponential backoff.  Tests and offline runs
inject a ``transport`` callable instead.

Completions are post-processed by :func:`extract_program`: the first fenced
code block wins, else the first function-shaped block (``def ...`` through the
end of its indented body), else the whole text stripped.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field, replace

from .corpus import Example, Lcg, _draw
from .errors import (CacheMissError, DataFormatError, PoolExhaustedError, SemkitError,
                     TransportError)
from .evaluation import POLICIES, ComparisonPolicy, canonicalize_names, verdict_of
from .execute import dialect_for, memoized_runs
from .prompts import PromptSpec, build_prompt, default_template, render_dd
from .resources import read_jsonl

DEFAULT_TEMPERATURE = 0.0
DEFAULT_MAX_TOKENS = 512
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_SECONDS = 0.5


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    model: str
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    stop: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be within [0, 2]")

    def fingerprint(self) -> str:
        canonical = json.dumps(
            {"model": self.model, "prompt": self.prompt, "temperature": self.temperature},
            sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def prompt_digest(self) -> str:
        return hashlib.sha256(self.prompt.encode("utf-8")).hexdigest()


_ENTRY_KEYS = ("fingerprint", "prompt_sha256", "completion")  # what get() reads


class ReplayCache:
    """Append-only fingerprint -> completion store backed by a JSONL file.

    A line that is not a JSON object holding ``fingerprint``,
    ``prompt_sha256`` and ``completion`` is a DataFormatError naming the line.
    """

    def __init__(self, path):
        self.path = path
        self.entries: dict[str, dict] = {}
        self._write_lock = threading.Lock()  # appends serialize through one writer
        if os.path.exists(path):
            for lineno, entry in read_jsonl(path):
                if not isinstance(entry, dict):
                    raise DataFormatError(f"{path}: line {lineno}: expected a JSON object")
                for key in _ENTRY_KEYS:
                    if key not in entry:
                        raise DataFormatError(f"{path}: line {lineno}: missing field {key!r}")
                self.entries[entry["fingerprint"]] = entry

    def get(self, request: CompletionRequest) -> str:
        entry = self.entries.get(request.fingerprint())
        if entry is None:
            raise CacheMissError(request.fingerprint())
        if entry["prompt_sha256"] != request.prompt_digest():
            raise SemkitError("fingerprint collision: cached prompt digest differs")
        return entry["completion"]

    def put(self, request: CompletionRequest, completion: str, meta: dict | None = None) -> None:
        entry = {
            "fingerprint": request.fingerprint(),
            "prompt_sha256": request.prompt_digest(),
            "model": request.model,
            "temperature": request.temperature,
            "completion": completion,
            "meta": meta or {},
        }
        with self._write_lock:
            self.entries[entry["fingerprint"]] = entry
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, ensure_ascii=False) + "\n")


def http_transport(endpoint: str, api_key_env: str = "SEMKIT_API_KEY", timeout: float = 60.0):
    """Default live transport: JSON POST to a completion endpoint."""
    import urllib.request  # with http.client and ssl, only live runs pay for the import

    def send(request: CompletionRequest) -> str:
        payload = json.dumps({
            "model": request.model, "prompt": request.prompt,
            "temperature": request.temperature, "max_tokens": request.max_tokens,
            "stop": list(request.stop),
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        req = urllib.request.Request(endpoint, data=payload, headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except (OSError, ValueError) as exc:
            raise TransportError(f"completion endpoint failed: {exc}") from exc
        if not isinstance(body, dict) or not isinstance(body.get("completion"), str):
            raise TransportError("malformed response: expected {'completion': str}")
        return body["completion"]

    return send


@dataclass
class LlmClient:
    mode: str  # "live" | "record" | "replay"
    cache: ReplayCache | None = None
    transport: object = None  # callable(CompletionRequest) -> str
    retries: int = DEFAULT_RETRIES
    backoff_seconds: float = DEFAULT_BACKOFF_SECONDS

    def __post_init__(self):
        if self.mode not in ("live", "record", "replay"):
            raise ValueError(f"unknown client mode {self.mode!r}")
        if self.mode in ("record", "replay") and self.cache is None:
            raise ValueError(f"{self.mode} mode needs a cache")
        if self.mode in ("live", "record") and self.transport is None:
            raise ValueError(f"{self.mode} mode needs a transport")

    def complete(self, request: CompletionRequest) -> str:
        if self.mode == "replay":
            return self.cache.get(request)
        completion = self._send_with_retries(request)
        if self.mode == "record":
            self.cache.put(request, completion)
        return completion

    def _send_with_retries(self, request: CompletionRequest) -> str:
        delay = self.backoff_seconds
        for attempt in range(self.retries + 1):
            try:
                return self.transport(request)
            except TransportError:
                if attempt == self.retries:
                    raise
                time.sleep(delay)
                delay *= 2


_FENCE = re.compile(r"```[a-zA-Z0-9_-]*\n(.*?)```", re.DOTALL)


def extract_program(completion: str) -> str:
    """First fenced block, else first function-shaped block, else the whole text."""
    fenced = _FENCE.search(completion)
    if fenced:
        return fenced.group(1).strip()
    lines = completion.splitlines()
    for start, line in enumerate(lines):
        if line.lstrip().startswith("def "):
            block = [line]
            for next_line in lines[start + 1:]:
                if next_line.strip() == "" or next_line.startswith((" ", "\t")):
                    block.append(next_line)
                else:
                    break
            return "\n".join(block).strip()
    return completion.strip()


# --- the per-example evaluation step and annotation bootstrapping ---------------

def example_evaluator(client: LlmClient, model: str, temperature: float, dialect: str,
                      gold_dialect: str, dd_variant: str, dd_text: str, template: str,
                      policy: ComparisonPolicy, run, names_world=None):
    """``evaluate(example, demos) -> (verdict, program)``, shared by run and bootstrap.

    Prompt, complete, extract; run the model's program and the gold program
    through ``run`` (the caller's outcome memo), with names canonicalized onto
    ``names_world`` if given, and compare under ``policy``.  A client
    ``SemkitError`` is a ``harness-error``, with its message for the program.
    """

    def evaluate(example: Example, demos) -> tuple[str, str]:
        spec = PromptSpec(
            dd_variant=dd_variant, dd_text=dd_text,
            demonstrations=tuple((d.utterance, d.programs[dialect]) for d in demos),
            test_utterance=example.utterance, dialect=dialect)
        request = CompletionRequest(prompt=build_prompt(spec, template), model=model,
                                    temperature=temperature)
        try:
            completion = client.complete(request)
        except SemkitError as exc:
            return "harness-error", str(exc)
        program = extract_program(completion)
        pred, gold = program, example.programs[gold_dialect]
        if names_world is not None:
            try:
                pred, gold = canonicalize_names(pred, gold, names_world)
            except PoolExhaustedError:
                return "execution-failure", program
        return verdict_of(run(dialect, pred), run(gold_dialect, gold), policy), program

    return evaluate


@dataclass
class BootstrapConfig:
    environment: str
    dialect: str  # the dialect being annotated (programs the LLM writes)
    gold_dialect: str  # dialect providing the execution-equality gold signal
    model: str
    k: int = 3
    passes: int = 3
    seed: int = 0
    dd_declarations: list = field(default_factory=list)


def bootstrap_annotations(seed_pool: list[Example], unlabeled: list[Example],
                          env_object, client: LlmClient, config: BootstrapConfig) -> list[Example]:
    """Grow an annotation pool with LLM-proposed programs that execute correctly.

    Each pass runs :func:`example_evaluator` on a Full-DD prompt with demos
    drawn from the pool examples annotated in ``config.dialect`` (the partial
    Fisher-Yates draw of :func:`~semkit.corpus.sample_demos`, seeded per pass,
    O(k) per prompt) and keeps exactly the ``correct`` proposals, verbatim:
    names are not canonicalized.  One outcome memo per call
    (:func:`~semkit.execute.memoized_runs`) runs each distinct proposal or
    gold program once.  A ``harness-error`` aborts the remainder of a pass but
    never discards the pool.
    """
    if not seed_pool:
        raise ValueError("seed pool must be nonempty")
    if config.k < 1:
        raise ValueError("k must be >= 1")
    dialect_for(config.dialect, config.environment)
    dialect_for(config.gold_dialect, config.environment)
    pool = list(seed_pool)
    annotated = [ex for ex in pool if config.dialect in ex.programs]
    if not annotated:
        raise SemkitError(f"no seed-pool example is annotated in {config.dialect!r}")
    pending = [ex for ex in unlabeled if config.dialect not in ex.programs]
    evaluate = example_evaluator(
        client, config.model, DEFAULT_TEMPERATURE, config.dialect, config.gold_dialect, "full",
        render_dd(config.dd_declarations, "full"), default_template(),
        POLICIES[config.environment], memoized_runs(config.environment, env_object))
    for pass_index in range(config.passes):
        still_pending = []
        for at, example in enumerate(pending):
            demos = _draw(annotated, min(config.k, len(annotated)),
                         Lcg(config.seed + pass_index))
            verdict, program = evaluate(example, demos)
            if verdict == "correct":
                accepted = replace(example, programs={**example.programs, config.dialect: program})
                pool.append(accepted)
                annotated.append(accepted)
            elif verdict == "harness-error":
                still_pending.extend(pending[at:])
                break
            else:
                still_pending.append(example)
        pending = still_pending
    return pool
