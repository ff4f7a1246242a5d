"""Completion client with record/replay, the per-example evaluation step, and bootstrapping.

The cache is an append-only JSONL file keyed by a request fingerprint
(sha256 of the canonical JSON encoding of model id, prompt and temperature);
each entry also stores the full prompt digest so fingerprint collisions are
detected rather than silently served.  ``replay`` mode never touches the
network — a missing entry is a :class:`~semkit.errors.CacheMissError`.

Both digests are streamed.  The canonical JSON,
``json.dumps({"model", "prompt", "temperature"}, sort_keys=True,
ensure_ascii=False)``, escapes a string one character at a time, so the
escape of a prompt ``lead + rest`` is the escape of ``lead`` followed by that
of ``rest``.  A request carries its prompt's constant leading text as
``lead``; the two sha256 states after it (the canonical JSON open inside the
prompt string, and the raw UTF-8 prompt) come from a cache bounded at eight
``(model, lead)`` entries.  A request's digests ``copy()`` them and take only
the rest of the prompt (and, for the fingerprint, the closing quote and the
temperature, encoded on each call, so that ``1``, ``1.0`` and ``-0.0`` keep
their own encodings).  The temperature is encoded with ``repr``, which gives
``json.dumps``'s text for a finite int or float; a request refuses a bool,
which ``json.dumps`` would write as ``true``.  A prompt that does not start
with its lead streams from the empty one.  Within one experiment the model, header and DD never
change, and under random or coverage selection neither do a seed's demos, so
:func:`example_evaluator` hashes that constant text once.  The text comes from
:mod:`semkit.prompts`, the one module that knows where the test utterance
goes: it is the ``lead`` of the prompt's ``(lead, tail)`` segments.

The live transport posts ``{"model", "prompt", "temperature", "max_tokens":
512, "stop": []}`` as JSON to the configured endpoint (bearer token from an
environment variable, 60 s timeout) and expects ``{"completion": str}`` back;
a transport failure is retried ``DEFAULT_RETRIES`` times, after sleeps that
double from ``DEFAULT_BACKOFF_SECONDS``.  Tests inject a ``transport`` instead.

Completions are post-processed by :func:`extract_program`: the first fenced
code block wins, else the first function-shaped block (``def ...`` through the
end of its indented body), else the whole text stripped.

The per-example step (:func:`example_evaluator`) is split around the
completion call, the one step that waits on I/O: a caller may overlap
completions on worker threads and judge them all on its own thread.  The
judging half scores the extracted program with :func:`semkit.evaluation.scorer`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from functools import lru_cache

from .corpus import Example, sample_demos
from .errors import CacheMissError, SemkitError, TransportError
from .evaluation import scorer
from .execute import dialect_for
from .prompts import build_prompt, default_template, prompt_segments, render_dd
from .readonly import Frozen
from .resources import STRING, Schema, read_jsonl

DEFAULT_TEMPERATURE = 0.0
DEFAULT_MAX_TOKENS = 512
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_SECONDS = 0.5
DEFAULT_TIMEOUT_SECONDS = 60.0


_escape = json.encoder.encode_basestring  # json.dumps's string escape under ensure_ascii=False


@lru_cache(maxsize=8)
def _lead_states(model: str, lead: str) -> tuple:
    """``(fingerprint, prompt)``, the sha256 states after a prompt's leading text ``lead``
    for ``model``: ``fingerprint`` has taken the canonical JSON of a request up to the end of
    the text, ``{"model": <model>, "prompt": "<escaped lead>``, and ``prompt`` the text's
    UTF-8 bytes.  Copy a state before updating it."""
    return (hashlib.sha256(f'{{"model": {_escape(model)}, "prompt": {_escape(lead)[:-1]}'
                           .encode("utf-8")),
            hashlib.sha256(lead.encode("utf-8")))


class CompletionRequest(Frozen):
    """One prompt for one model and temperature; ``lead`` is the prompt's constant leading
    text, to stream the digests from."""

    __slots__ = ("prompt", "model", "temperature", "lead")

    def __init__(self, prompt: str, model: str, temperature: float = DEFAULT_TEMPERATURE,
                 lead: str = ""):
        if isinstance(temperature, bool) or not 0.0 <= temperature <= 2.0:
            raise ValueError("temperature must be a number within [0, 2]")
        object.__setattr__(self, "prompt", prompt)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "temperature", temperature)
        object.__setattr__(self, "lead", lead)

    def fingerprint(self) -> str:
        """sha256 of ``json.dumps({"model", "prompt", "temperature"}, sort_keys=True,
        ensure_ascii=False)``, streamed (see the module docstring)."""
        rest, (state, _) = self._states()
        state = state.copy()
        state.update(f'{_escape(rest)[1:]}, "temperature": {self.temperature!r}}}'
                     .encode("utf-8"))  # from the quote that closes the prompt
        return state.hexdigest()

    def prompt_digest(self) -> str:
        """sha256 of the prompt's UTF-8 bytes, streamed."""
        rest, (_, state) = self._states()
        state = state.copy()
        state.update(rest.encode("utf-8"))
        return state.hexdigest()

    def _states(self) -> tuple:
        """The prompt after its lead, and the lead's states; a prompt that does not start with
        ``lead`` (a request built by hand, say) streams from the empty lead."""
        lead = self.lead if self.prompt.startswith(self.lead) else ""
        return self.prompt[len(lead):], _lead_states(self.model, lead)


_ENTRY = Schema(("fingerprint", STRING), ("prompt_sha256", STRING), ("completion", STRING))


class ReplayCache:
    """Append-only fingerprint -> completion store backed by a JSONL file.

    A line that is not a JSON object holding the strings ``fingerprint``, ``prompt_sha256``
    and ``completion`` (what :meth:`get` reads) is a DataFormatError naming the line.
    """

    def __init__(self, path):
        self.path = path
        self.entries: dict[str, dict] = {}
        self._write_lock = threading.Lock()  # appends serialize through one writer
        if os.path.exists(path):
            for lineno, entry in read_jsonl(path):
                self.entries[_ENTRY.read(entry, path, lineno)[0]] = entry

    def get(self, request: CompletionRequest) -> str:
        fingerprint = request.fingerprint()
        entry = self.entries.get(fingerprint)
        if entry is None:
            raise CacheMissError(fingerprint)
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


def http_transport(endpoint: str, api_key_env: str):
    """The live transport: JSON POST to ``endpoint``, bearer token from ``$api_key_env``."""
    import urllib.request  # with http.client and ssl, only live runs pay for the import

    def send(request: CompletionRequest) -> str:
        payload = json.dumps({
            "model": request.model, "prompt": request.prompt,
            "temperature": request.temperature, "max_tokens": DEFAULT_MAX_TOKENS, "stop": [],
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        req = urllib.request.Request(endpoint, data=payload, headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=DEFAULT_TIMEOUT_SECONDS) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except (OSError, ValueError) as exc:
            raise TransportError(f"completion endpoint failed: {exc}") from exc
        if not isinstance(body, dict) or not isinstance(body.get("completion"), str):
            raise TransportError("malformed response: expected {'completion': str}")
        return body["completion"]

    return send


class LlmClient:
    """A completion client: ``replay`` and ``record`` need a cache, ``live`` and ``record``
    a transport (:func:`semkit.experiment.make_client` checks a config's client block)."""

    __slots__ = ("mode", "cache", "transport")

    def __init__(self, mode: str, cache: ReplayCache | None = None, transport=None):
        self.mode = mode  # "live" | "record" | "replay"
        self.cache = cache
        self.transport = transport  # callable(CompletionRequest) -> str

    def complete(self, request: CompletionRequest) -> str:
        if self.mode == "replay":
            return self.cache.get(request)
        completion = self._send_with_retries(request)
        if self.mode == "record":
            self.cache.put(request, completion)
        return completion

    def _send_with_retries(self, request: CompletionRequest) -> str:
        delay = DEFAULT_BACKOFF_SECONDS
        for attempt in range(DEFAULT_RETRIES + 1):
            try:
                return self.transport(request)
            except TransportError:
                if attempt == DEFAULT_RETRIES:
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

def completion_of(client: LlmClient, request: CompletionRequest) -> str | SemkitError:
    """The client's completion for ``request``, or the ``SemkitError`` it raised."""
    try:
        return client.complete(request)
    except SemkitError as exc:
        return exc


def example_evaluator(model: str, temperature: float, dialect: str, gold_dialect: str,
                      dd_text: str, template: str, environment: str, world):
    """``(request, judge)``: the per-example step shared by run and bootstrap, in two halves.

    ``request(example, demos)`` assembles the prompt into a
    :class:`CompletionRequest`.  ``judge(example, completion) -> (verdict,
    program)`` takes the completion (see :func:`completion_of`), extracts the
    program and scores it against the example's gold program with one
    :func:`~semkit.evaluation.scorer` of ``environment`` and ``world`` (so one
    outcome memo per step).  A completion that is a ``SemkitError`` is a
    ``harness-error``, with its message for the program.

    An empty ``dd_text`` means a prompt without a DD header.  Each request
    carries its prompt's text before the test utterance, the ``lead`` of
    :func:`~semkit.prompts.prompt_segments`, so the request half keeps no
    state.  The lead's hash states are computed on a digest's first use, once
    per model and lead while they stay in the bounded cache, so a ``live``
    client, which never asks for a digest, hashes nothing.
    """
    score = scorer(environment, world)

    def request(example: Example, demos) -> CompletionRequest:
        demonstrations = tuple((d.utterance, d.programs[dialect]) for d in demos)
        return CompletionRequest(
            build_prompt(template, dd_text, demonstrations, example.utterance),
            model, temperature, prompt_segments(template, dd_text, demonstrations)[0])

    def judge(example: Example, completion: str | SemkitError) -> tuple[str, str]:
        if isinstance(completion, SemkitError):
            return "harness-error", str(completion)
        program = extract_program(completion)
        return score(dialect, program, gold_dialect, example.programs[gold_dialect]), program

    return request, judge


class BootstrapConfig:
    """``dialect`` is the dialect being annotated (programs the LLM writes), ``gold_dialect``
    the dialect providing the execution-equality gold signal."""

    __slots__ = ("environment", "dialect", "gold_dialect", "model", "k", "passes", "seed",
                 "dd_declarations")

    def __init__(self, environment: str, dialect: str, gold_dialect: str, model: str, k: int,
                 passes: int, seed: int, dd_declarations: list):
        self.environment, self.dialect, self.gold_dialect = environment, dialect, gold_dialect
        self.model, self.k, self.passes, self.seed = model, k, passes, seed
        self.dd_declarations = dd_declarations


def bootstrap_annotations(seed_pool: list[Example], unlabeled: list[Example],
                          env_object, client: LlmClient, config: BootstrapConfig) -> list[Example]:
    """Grow an annotation pool with LLM-proposed programs that execute correctly.

    Each pass runs :func:`example_evaluator` on a Full-DD prompt with demos
    drawn from the pool examples annotated in ``config.dialect``
    (:func:`~semkit.corpus.sample_demos`, seeded per pass, O(k) per prompt).
    A proposal is judged as ``semkit run`` judges it (on calendar, after name
    canonicalization) and kept, as written, exactly when it is ``correct``.
    The step's one outcome memo runs each distinct proposal or gold program
    once per call.  A ``harness-error`` aborts the remainder of a pass but
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
    request, judge = example_evaluator(
        config.model, DEFAULT_TEMPERATURE, config.dialect, config.gold_dialect,
        render_dd(config.dd_declarations, "full"), default_template(), config.environment,
        env_object)
    for pass_index in range(config.passes):
        still_pending = []
        for at, example in enumerate(pending):
            demos = sample_demos(annotated, min(config.k, len(annotated)),
                                 config.seed + pass_index)
            verdict, program = judge(example, completion_of(client, request(example, demos)))
            if verdict == "correct":
                accepted = example._replace(programs={**example.programs, config.dialect: program})
                pool.append(accepted)
                annotated.append(accepted)
            elif verdict == "harness-error":
                still_pending.extend(pending[at:])
                break
            else:
                still_pending.append(example)
        pending = still_pending
    return pool
