"""Completion client with deterministic record/replay, plus annotation bootstrapping.

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
import urllib.request
from dataclasses import dataclass, field

from .corpus import Dataset, Example, sample_demos, Split
from .errors import CacheMissError, SemkitError, TransportError
from .evaluation import POLICIES, compare_outcomes
from .execute import run_program
from .prompts import PromptSpec, build_prompt, default_template, render_dd

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


class ReplayCache:
    """Append-only fingerprint -> completion store backed by a JSONL file."""

    def __init__(self, path):
        self.path = path
        self.entries: dict[str, dict] = {}
        self._write_lock = threading.Lock()  # appends serialize through one writer
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        entry = json.loads(line)
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


# --- annotation bootstrapping -------------------------------------------------

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
    template: str | None = None


def bootstrap_annotations(seed_pool: list[Example], unlabeled: list[Example],
                          env_object, client: LlmClient, config: BootstrapConfig) -> list[Example]:
    """Grow an annotation pool with LLM-proposed programs that execute correctly.

    Each pass prompts with a Full-DD prompt and demonstrations sampled from
    the current pool, executes the proposed program, checks it against the
    gold program's outcome, and keeps only matches.  Client errors abort the
    remainder of a pass but never discard the pool.
    """
    if not seed_pool:
        raise ValueError("seed pool must be nonempty")
    pool = list(seed_pool)
    pending = [ex for ex in unlabeled if config.dialect not in ex.programs]
    policy = POLICIES[config.environment]
    dd_text = render_dd(config.dd_declarations, "full")
    template = config.template or default_template()
    for pass_index in range(config.passes):
        if not pending:
            break
        still_pending = []
        aborted = False
        for example in pending:
            if aborted:
                still_pending.append(example)
                continue
            demos = _sample_pool(pool, config.dialect, config.k, config.seed + pass_index)
            spec = PromptSpec(
                dd_variant="full", dd_text=dd_text,
                demonstrations=tuple((d.utterance, d.programs[config.dialect]) for d in demos),
                test_utterance=example.utterance, dialect=config.dialect)
            request = CompletionRequest(prompt=build_prompt(spec, template),
                                        model=config.model)
            try:
                completion = client.complete(request)
            except SemkitError:
                aborted = True
                still_pending.append(example)
                continue
            program = extract_program(completion)
            pred = run_program(config.dialect, program, config.environment, env_object)
            gold = run_program(config.gold_dialect, example.programs[config.gold_dialect],
                               config.environment, env_object)
            if pred.ok and gold.ok and compare_outcomes(pred, gold, policy):
                programs = dict(example.programs)
                programs[config.dialect] = program
                pool.append(Example(id=example.id, utterance=example.utterance,
                                    programs=programs, tags=example.tags))
            else:
                still_pending.append(example)
        pending = still_pending
    return pool


def _sample_pool(pool: list[Example], dialect: str, k: int, seed: int) -> list[Example]:
    annotated = [ex for ex in pool if dialect in ex.programs]
    dataset = Dataset(name="pool", dialects=(dialect,), examples=tuple(annotated))
    split = Split(name="pool", train_ids=tuple(ex.id for ex in annotated), test_ids=())
    k = min(k, len(annotated))
    return list(sample_demos(dataset, split, k, seed).examples)
