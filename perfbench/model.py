"""The scripted completion model the benchmark's workloads are answered by.

It imports nothing from semkit, so the process that runs a workload pays only
for what the workload itself loads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

EXPECTED_VERDICT = {"gold": "correct", "other": "wrong-result", "truncated": "execution-failure"}
FORMS = 3


@dataclass(frozen=True)
class Answer:
    """The three completions the scripted model can give for one test example."""

    example_id: str
    gold: str
    other: str  # another example's program, which scores wrong-result
    truncated: str  # a cut of the gold program, which scores execution-failure


class ScriptedModel:
    """Deterministic stand-in for an LLM: the completion is a function of the prompt.

    ``mix`` gives the percentages of gold and other completions; the rest are
    truncated.  ``log`` records (example id, kind) per completion, in order.
    """

    def __init__(self, answers: dict[str, Answer], mix: tuple[int, int]):
        self.answers = answers  # test utterance -> Answer
        self.mix = mix
        self.log: list[tuple[str, str]] = []

    def kind_of(self, prompt: str) -> tuple[str, int]:
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        roll = int.from_bytes(digest[:4], "big") % 100
        form = digest[4] % FORMS
        if roll < self.mix[0]:
            return "gold", form
        if roll < self.mix[0] + self.mix[1]:
            return "other", form
        return "truncated", form

    def __call__(self, prompt: str) -> str:
        answer = self.answers[query_of(prompt)]
        kind, form = self.kind_of(prompt)
        self.log.append((answer.example_id, kind))
        return render_completion(getattr(answer, kind), form)

    def transport(self, request) -> str:
        """The ``LlmClient`` transport signature: request in, completion text out."""
        return self(request.prompt)

    def to_json(self) -> dict:
        return {"mix": list(self.mix),
                "answers": {u: [a.example_id, a.gold, a.other, a.truncated]
                            for u, a in self.answers.items()}}

    @classmethod
    def load(cls, path) -> "ScriptedModel":
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        answers = {u: Answer(*fields) for u, fields in record["answers"].items()}
        return cls(answers, tuple(record["mix"]))


def query_of(prompt: str) -> str:
    """The test query of a prompt built from the v1 template."""
    return prompt.rsplit("\nquery: ", 1)[1].rsplit("\nsolution:", 1)[0]


def render_completion(program: str, form: int) -> str:
    if form == 0:
        return f"```python\n{program}\n```"
    if form == 1:
        return f"Here is the program:\n\n```\n{program}\n```\nLet me know if it helps."
    return program
