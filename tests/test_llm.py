import hashlib
import json
import sys
import threading

import pytest

from semkit import experiment, funql, llm
from semkit.corpus import Example, Lcg, load_dataset
from semkit.errors import CacheMissError, DataFormatError, SemkitError, TransportError
from semkit.evaluation import POLICIES, canonicalize_names, compare_outcomes
from semkit.execute import run_program
from semkit.experiment import dd_text, run_bootstrap, run_experiment
from semkit.llm import (DEFAULT_BACKOFF_SECONDS, DEFAULT_RETRIES, BootstrapConfig,
                        CompletionRequest, LlmClient, ReplayCache, bootstrap_annotations,
                        example_evaluator, extract_program)
from semkit.prompts import DD_VARIANTS, build_prompt, default_template, load_dd_source
from semkit.resources import data_path, dataset_path, dd_path


def request(prompt="hello", model="m1"):
    return CompletionRequest(prompt=prompt, model=model)


def reference_fingerprint(req: CompletionRequest) -> str:
    """The fingerprint's definition, hashed in one piece."""
    canonical = json.dumps(
        {"model": req.model, "prompt": req.prompt, "temperature": req.temperature},
        sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def reference_prompt_digest(req: CompletionRequest) -> str:
    return hashlib.sha256(req.prompt.encode("utf-8")).hexdigest()


def assert_reference_digests(req: CompletionRequest) -> tuple[str, str]:
    digests = req.fingerprint(), req.prompt_digest()
    assert digests == (reference_fingerprint(req), reference_prompt_digest(req)), req.prompt
    return digests


def evaluator_requests(dialect="pymr", dd="", model="desk-model-1", temperature=0.0):
    return example_evaluator(model, temperature, dialect, dialect, dd, default_template(),
                             "geo", None)[0]


def assert_lead_ends_at_the_test_query(req: CompletionRequest, example: Example) -> None:
    """The request streams from the lead of its own demos, which under the bundled
    template is all of the prompt before the test utterance."""
    assert req.lead + example.utterance + "\nsolution:" == req.prompt


BUNDLED_PAIRS = [("geo", "funql", "geoquery"), ("geo", "pymr", "geoquery"),
                 ("social", "ldcs", "overnight"), ("social", "ldcs-simple", "overnight"),
                 ("social", "pymr", "overnight"), ("calendar", "dataflow-simple", "smcalflow"),
                 ("calendar", "pymr", "smcalflow")]


def test_bundled_pairs_are_every_bundled_dd_source():
    assert sorted(dd_path(env, dialect) for env, dialect, _ in BUNDLED_PAIRS) == \
        sorted(data_path("dd").iterdir())


@pytest.mark.parametrize("environment, dialect, dataset", BUNDLED_PAIRS)
def test_streamed_digests_match_the_reference_on_bundled_prompts(environment, dialect, dataset):
    annotated = [ex for ex in load_dataset(dataset_path(dataset)).examples
                 if dialect in ex.programs]
    for variant in DD_VARIANTS:
        for k in (0, 1, 3):
            if variant == "none" and k == 0:
                continue  # build_prompt rejects a prompt with neither
            request_of = evaluator_requests(dialect, dd_text(environment, dialect, variant))
            first, second = annotated[:k], annotated[k:2 * k]
            cases = [(ex, demos) for demos in (first, second, first) for ex in annotated[-4:]]
            requests = [request_of(ex, demos) for ex, demos in cases]
            digests = [assert_reference_digests(req) for req in requests]
            for req, (ex, _) in zip(requests, cases):
                assert_lead_ends_at_the_test_query(req, ex)
            assert len(set(digests)) == (8 if k else 4)  # the third block repeats the first


_AWKWARD = ['"', "\\", "\n", "\t", "\r", "\b", "\f", *map(chr, range(0x20)), "\x7f", "é", "ß",
            "中文", "😀", "\u2028", "[DD]", "[query-test]", "[query-i]", "[solution-i]",
            "query: ", "\nsolution:", "a", " ", "Texas"]


def awkward_text(rng: Lcg) -> str:
    return "".join(_AWKWARD[rng.below(len(_AWKWARD))] for _ in range(rng.below(12)))


@pytest.mark.parametrize("temperature", [0.0, 0.7, 1])
@pytest.mark.parametrize("seed", range(4))
def test_streamed_digests_match_the_reference_on_awkward_text(seed, temperature):
    rng = Lcg(seed)
    examples = [Example(id=f"x{i}", utterance=awkward_text(rng),
                        programs={"pymr": awkward_text(rng)}) for i in range(12)]
    dd = "class State:  # " + awkward_text(rng)
    model = 'desk "model" ünï\\' + awkward_text(rng)
    for text in (dd, ""):
        request_of = evaluator_requests(dd=text, model=model, temperature=temperature)
        for at, example in enumerate(examples):
            demos = examples[:3] if at % 4 else examples[at - 3:at] or examples[-1:]
            assert_reference_digests(request_of(example, demos))


def test_an_int_temperature_keeps_its_encoding():
    example = Example("t", "q", {})
    whole, fraction = (evaluator_requests(dd="class State: ...", temperature=t)(example, [])
                       for t in (1, 1.0))
    assert whole.prompt == fraction.prompt
    assert assert_reference_digests(whole)[0] != assert_reference_digests(fraction)[0]


def test_each_request_streams_from_the_lead_of_its_own_demos(geoquery):
    """Requests are digested lazily, in any order: each one streams from its own demos."""
    pool = [ex for ex in geoquery.examples if "pymr" in ex.programs]
    request_of = evaluator_requests(dd=dd_text("geo", "pymr", "full"))
    seeds = (pool[:3], pool[3:6])
    requests = [request_of(ex, demos) for demos in seeds for ex in pool[6:9]]
    digests = [assert_reference_digests(req) for req in requests[3:] + requests[:3]]
    assert len(set(digests)) == len(requests)
    for req, ex in zip(requests, pool[6:9] * 2):
        assert_lead_ends_at_the_test_query(req, ex)


# sha256 of the sha256 lines of every prompt_corpus() prompt: a change to the bytes of
# any prompt, and so to the replay-cache key of its request, shows here
PROMPT_CORPUS_SHA256 = "87de0bafa852f5304a2ab07ed4a4f89c4063f19b1ac0e17f234383373b2fd778"


def prompt_corpus():
    """(dialect, DD text, test example, demos) of every prompt in the digest tests above:
    the bundled pairs x DD variants x k, and the awkward text."""
    for environment, dialect, dataset in BUNDLED_PAIRS:
        annotated = [ex for ex in load_dataset(dataset_path(dataset)).examples
                     if dialect in ex.programs]
        for variant in DD_VARIANTS:
            for k in (0, 1, 3) if variant != "none" else (1, 3):
                for demos in (annotated[:k], annotated[k:2 * k]):
                    for example in annotated[-4:]:
                        yield dialect, dd_text(environment, dialect, variant), example, demos
    for seed in range(4):
        rng = Lcg(seed)
        examples = [Example(id=f"x{i}", utterance=awkward_text(rng),
                            programs={"pymr": awkward_text(rng)}) for i in range(12)]
        dd = "class State:  # " + awkward_text(rng)
        for text in (dd, ""):
            for at, example in enumerate(examples):
                demos = examples[:3] if at % 4 else examples[at - 3:at] or examples[-1:]
                yield "pymr", text, example, demos


def corpus_digest(prompt_digests) -> str:
    return hashlib.sha256("".join(d + "\n" for d in prompt_digests).encode()).hexdigest()


def test_build_prompt_reproduces_the_frozen_prompt_corpus():
    digests = []
    for dialect, dd, example, demos in prompt_corpus():
        prompt = build_prompt(default_template(), dd,
                              tuple((d.utterance, d.programs[dialect]) for d in demos),
                              example.utterance)
        digests.append(hashlib.sha256(prompt.encode()).hexdigest())
    assert len(digests) == 712 and corpus_digest(digests) == PROMPT_CORPUS_SHA256


def test_the_steps_requests_reproduce_the_frozen_prompt_corpus():
    steps, digests = {}, []
    for dialect, dd, example, demos in prompt_corpus():
        if (dialect, dd) not in steps:
            steps[dialect, dd] = evaluator_requests(dialect, dd)
        digests.append(steps[dialect, dd](example, demos).prompt_digest())
    assert corpus_digest(digests) == PROMPT_CORPUS_SHA256


def test_digests_streamed_on_many_threads_match_the_reference(geoquery):
    pool = [ex for ex in geoquery.examples if "pymr" in ex.programs]
    request_of = evaluator_requests(dd=dd_text("geo", "pymr", "full"))
    requests = [request_of(ex, pool[at % 3:at % 3 + 3]) for at, ex in enumerate(pool[6:30])]
    want = [(reference_fingerprint(r), reference_prompt_digest(r)) for r in requests]
    wrong = []

    def digest_all(offset):
        for at in range(len(requests)):
            at = (at + offset) % len(requests)
            if (requests[at].fingerprint(), requests[at].prompt_digest()) != want[at]:
                wrong.append(at)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=digest_all, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and wrong == []


def test_a_request_whose_lead_does_not_fit_streams_from_the_empty_lead():
    req = evaluator_requests(dd="class State: ...")(Example("t", "q", {}), [])
    for changed in (CompletionRequest("other", req.model, req.temperature, req.lead),
                    CompletionRequest(req.prompt, "other", req.temperature, req.lead),
                    CompletionRequest(req.prompt, req.model, 0.5, req.lead)):
        assert_reference_digests(changed)


def test_a_negative_zero_temperature_keeps_its_encoding_after_a_zero_one():
    """The lead's states are shared by every temperature, so each request encodes its own."""
    lead = evaluator_requests(dd="class State: ...")(Example("t", "q", {}), []).lead
    zero, negative = (CompletionRequest(lead + "q\nsolution:", "desk-model-1", t, lead)
                      for t in (0.0, -0.0))
    assert assert_reference_digests(zero)[0] != assert_reference_digests(negative)[0]


def test_the_lead_cache_stays_within_its_bound(geoquery):
    pool = [ex for ex in geoquery.examples if "pymr" in ex.programs]
    request_of = evaluator_requests(dd=dd_text("geo", "pymr", "full"))
    leads = set()
    for at in range(100):
        req = request_of(pool[-1], [pool[at % 40], pool[at // 40]])
        leads.add(req.lead)
        assert_reference_digests(req)
    assert len(leads) == 100 and llm._lead_states.cache_info().currsize <= 8


def test_temperature_bounds():
    with pytest.raises(ValueError):
        CompletionRequest(prompt="p", model="m", temperature=3.0)
    assert CompletionRequest(prompt="p", model="m").temperature == 0.0


@pytest.mark.parametrize("temperature", [True, False])
def test_a_bool_temperature_is_refused(temperature):
    with pytest.raises(ValueError, match="temperature must be a number within"):
        CompletionRequest(prompt="p", model="m", temperature=temperature)


# the fingerprint encodes the temperature with repr, which is json.dumps's text for these
@pytest.mark.parametrize("temperature", [0.0, -0.0, 1, 1.0, 0.7, 2])
def test_the_temperature_encodes_as_json_does(temperature):
    lead = evaluator_requests(dd="class State: ...")(Example("t", "q", {}), []).lead
    for req in (CompletionRequest("p", "m", temperature),
                CompletionRequest(lead + "q\nsolution:", "desk-model-1", temperature, lead)):
        assert_reference_digests(req)


def test_replay_returns_stored_text(tmp_path):
    cache = ReplayCache(tmp_path / "c.jsonl")
    cache.put(request(), "stored text")
    client = LlmClient(mode="replay", cache=ReplayCache(tmp_path / "c.jsonl"))
    assert client.complete(request()) == "stored text"


def test_replay_miss_names_fingerprint(tmp_path):
    client = LlmClient(mode="replay", cache=ReplayCache(tmp_path / "c.jsonl"))
    with pytest.raises(CacheMissError) as err:
        client.complete(request())
    assert request().fingerprint() in str(err.value)


def test_record_then_replay_round_trip(tmp_path):
    sent = []

    def transport(req):
        sent.append(req)
        return "completion body"

    path = tmp_path / "c.jsonl"
    recorder = LlmClient(mode="record", cache=ReplayCache(path), transport=transport)
    recorded = recorder.complete(request())

    def exploding(req):  # replay must never touch the network
        raise AssertionError("transport used in replay mode")

    replayer = LlmClient(mode="replay", cache=ReplayCache(path), transport=exploding)
    assert replayer.complete(request()) == recorded == "completion body"
    assert len(sent) == 1


def test_cache_file_is_append_only_jsonl(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ReplayCache(path)
    cache.put(request("a"), "one")
    cache.put(request("b"), "two")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    assert {"fingerprint", "prompt_sha256", "model", "temperature", "completion",
            "meta"} <= set(lines[0])


def test_fingerprint_collision_detected(tmp_path):
    path = tmp_path / "c.jsonl"
    cache = ReplayCache(path)
    cache.put(request("a"), "one")
    entry = json.loads(path.read_text())
    entry["prompt_sha256"] = "0" * 64
    path.write_text(json.dumps(entry) + "\n")
    with pytest.raises(SemkitError, match="collision"):
        ReplayCache(path).get(request("a"))


ENTRY = {"fingerprint": "f", "prompt_sha256": "p", "completion": "c"}


@pytest.mark.parametrize("line,message", [
    ('{"fingerprint" "f"}', "not valid JSON: Expecting ':' delimiter: line 1 column 16 (char 15)"),
    ('["f", "p", "c"]', "expected a JSON object"),
    (json.dumps({k: v for k, v in ENTRY.items() if k != "fingerprint"}),
     "missing field 'fingerprint'"),
    (json.dumps({k: v for k, v in ENTRY.items() if k != "prompt_sha256"}),
     "missing field 'prompt_sha256'"),
    (json.dumps({k: v for k, v in ENTRY.items() if k != "completion"}),
     "missing field 'completion'"),
    (json.dumps({**ENTRY, "completion": 7}), "field 'completion' is not a string: 7"),
    (json.dumps({**ENTRY, "fingerprint": ["f"]}), "field 'fingerprint' is not a string: ['f']"),
    (json.dumps({**ENTRY, "prompt_sha256": None}), "field 'prompt_sha256' is not a string: None"),
])
def test_malformed_cache_line_is_a_data_format_error(tmp_path, line, message):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(ENTRY) + "\n\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        ReplayCache(path)
    assert str(info.value) == f"{path}: line 3: {message}"


def test_retries_with_backoff(monkeypatch):
    delays = []
    monkeypatch.setattr(llm.time, "sleep", delays.append)
    attempts = []

    def flaky(req):
        attempts.append(1)
        if len(attempts) < 3:
            raise TransportError("try again")
        return "finally"

    client = LlmClient(mode="live", transport=flaky)
    assert client.complete(request()) == "finally"
    assert len(attempts) == 3
    assert delays == [DEFAULT_BACKOFF_SECONDS, 2 * DEFAULT_BACKOFF_SECONDS]

    def always_down(req):
        attempts.append(1)
        raise TransportError("down")

    attempts.clear()
    delays.clear()
    client = LlmClient(mode="live", transport=always_down)
    with pytest.raises(TransportError, match="down"):
        client.complete(request())
    assert len(attempts) == DEFAULT_RETRIES + 1
    assert delays == [DEFAULT_BACKOFF_SECONDS * 2 ** i for i in range(DEFAULT_RETRIES)]


def test_extract_program_fenced():
    text = "Sure!\n```python\ndef answer():\n    return 1\n```\nHope that helps."
    assert extract_program(text) == "def answer():\n    return 1"


def test_extract_program_function_shaped():
    text = "Here you go:\ndef answer():\n    x = 1\n    return x\nThat's it."
    assert extract_program(text) == "def answer():\n    x = 1\n    return x"


def test_extract_program_plain():
    assert extract_program("  answer(count(state(all)))\n") == "answer(count(state(all)))"


def strip_pymr(example):
    return Example(id=example.id, utterance=example.utterance,
                   programs={d: p for d, p in example.programs.items() if d != "pymr"},
                   tags=example.tags)


@pytest.fixture()
def bootstrap_setup(geoquery):
    seed_ids = ["gq-01", "gq-02", "gq-03", "gq-04", "gq-06"]
    unlabeled_ids = ["gq-07", "gq-08", "gq-09", "gq-11", "gq-12"]
    seed_pool = [geoquery[i] for i in seed_ids]
    unlabeled = [strip_pymr(geoquery[i]) for i in unlabeled_ids]
    config = BootstrapConfig(
        environment="geo", dialect="pymr", gold_dialect="funql", model="desk-model-1",
        k=3, passes=3, seed=0, dd_declarations=load_dd_source(dd_path("geo", "pymr")))
    return seed_pool, unlabeled, config


def test_bootstrap_fixture_grows_pool_5_to_9(geo_model, bootstrap_setup):
    seed_pool, unlabeled, config = bootstrap_setup
    client = LlmClient(mode="replay", cache=ReplayCache(data_path("bootstrap_cache.jsonl")))
    pool = bootstrap_annotations(seed_pool, unlabeled, geo_model, client, config)
    assert len(pool) == 9
    added = {ex.id for ex in pool} - {ex.id for ex in seed_pool}
    assert added == {"gq-07", "gq-08", "gq-11", "gq-12"}  # gq-09's candidate was wrong
    assert pool[:5] == seed_pool
    assert [ex.id for ex in pool[5:]] == ["gq-07", "gq-08", "gq-11", "gq-12"]  # accept order


def test_bootstrap_runs_each_distinct_gold_once_per_call(monkeypatch, geo_model,
                                                          bootstrap_setup):
    seed_pool, unlabeled, config = bootstrap_setup
    at = [ex.id for ex in unlabeled].index("gq-09")  # rejected on every pass
    gq09 = unlabeled[at]
    # right behind gq-09 its twin sees the same pool, so the same (cached) prompt
    twin = Example(id="gq-09-twin", utterance=gq09.utterance, programs=gq09.programs,
                   tags=gq09.tags)
    unlabeled = [*unlabeled[:at + 1], twin, *unlabeled[at + 1:]]
    runs = []
    original = funql.exec_funql

    def counting_exec(ast, world):
        runs.append(ast)
        return original(ast, world)

    monkeypatch.setattr(funql, "exec_funql", counting_exec)
    golds = {ex.programs["funql"] for ex in unlabeled}
    assert len(golds) == len(unlabeled) - 1
    for call in (1, 2):  # the memo lives for one call
        client = LlmClient(mode="replay", cache=ReplayCache(data_path("bootstrap_cache.jsonl")))
        pool = bootstrap_annotations(seed_pool, unlabeled, geo_model, client, config)
        assert len(pool) == 9
        assert len(runs) == call * len(golds)


def test_bootstrap_without_annotated_seed_fails_before_any_request(geo_model, bootstrap_setup):
    _, unlabeled, config = bootstrap_setup
    requests = []

    def transport(req):
        requests.append(req)
        return "def answer():\n    return 1"

    client = LlmClient(mode="live", transport=transport)
    with pytest.raises(SemkitError, match="no seed-pool example is annotated in 'pymr'"):
        bootstrap_annotations(unlabeled, unlabeled, geo_model, client, config)
    assert requests == []


def test_bootstrap_k_below_one_is_rejected(geo_model, bootstrap_setup, tmp_path):
    seed_pool, unlabeled, config = bootstrap_setup
    config.k = 0
    client = LlmClient(mode="replay", cache=ReplayCache(tmp_path / "empty.jsonl"))
    with pytest.raises(ValueError, match="k must be >= 1"):
        bootstrap_annotations(seed_pool, unlabeled, geo_model, client, config)


def test_bootstrap_added_programs_reverify_offline(geo_model, geoquery, bootstrap_setup):
    seed_pool, unlabeled, config = bootstrap_setup
    client = LlmClient(mode="replay", cache=ReplayCache(data_path("bootstrap_cache.jsonl")))
    pool = bootstrap_annotations(seed_pool, unlabeled, geo_model, client, config)
    policy = POLICIES["geo"]
    for example in pool:
        pred = run_program("pymr", example.programs["pymr"], "geo", geo_model)
        gold = run_program("funql", geoquery[example.id].programs["funql"], "geo", geo_model)
        assert pred.ok and gold.ok and compare_outcomes(pred, gold, policy), example.id


def test_bootstrap_client_error_aborts_pass_not_pool(geo_model, bootstrap_setup, tmp_path,
                                                     monkeypatch):
    seed_pool, unlabeled, config = bootstrap_setup
    client = LlmClient(mode="replay", cache=ReplayCache(tmp_path / "empty.jsonl"))
    requests = []
    complete = LlmClient.complete
    monkeypatch.setattr(LlmClient, "complete",
                        lambda self, request: requests.append(request) or complete(self, request))
    pool = bootstrap_annotations(seed_pool, unlabeled, geo_model, client, config)
    assert [ex.id for ex in pool] == [ex.id for ex in seed_pool]
    assert len(requests) == config.passes  # each pass stops at its first harness error


def test_calendar_bootstrap_stores_the_model_text_verbatim(calendar_world, smcalflow):
    sm03 = smcalflow["sm-03"]  # "set a meeting with John at 10 am"; John renamed to a world person
    renamed = Example(id=sm03.id, utterance=sm03.utterance.replace("John", "Emma"),
                      programs={d: p.replace("John", "Emma") for d, p in sm03.programs.items()},
                      tags=sm03.tags)
    unlabeled = [strip_pymr(renamed), strip_pymr(smcalflow["sm-01"])]
    gold = {ex.utterance: ex.programs["pymr"] for ex in (renamed, smcalflow["sm-01"])}
    prompts = []

    def transport(request):  # answers each test query with its gold pymr program, fenced
        prompts.append(request.prompt)
        query = request.prompt.rsplit("query: ", 1)[1].split("\n", 1)[0]
        return f"```python\n{gold[query]}\n```"

    config = BootstrapConfig(
        environment="calendar", dialect="pymr", gold_dialect="dataflow-simple",
        model="desk-model-1", k=2, passes=2, seed=0,
        dd_declarations=load_dd_source(dd_path("calendar", "pymr")))
    seed_pool = [smcalflow[i] for i in ("sm-06", "sm-08", "sm-09")]
    pool = bootstrap_annotations(seed_pool, unlabeled, calendar_world,
                                 LlmClient(mode="live", transport=transport), config)
    assert [ex.id for ex in pool[3:]] == ["sm-03", "sm-01"] and len(prompts) == 2
    accepted = pool[3].programs["pymr"]
    assert accepted == renamed.programs["pymr"] and 'find_person("Emma")' in accepted
    assert canonicalize_names(accepted, renamed.programs["dataflow-simple"],
                              calendar_world)[0] != accepted  # as run would have renamed it


def gold_echo(dataset, answers=None) -> LlmClient:
    """A live client that answers each test query with ``answers[id]`` where given, else
    with that example's gold pymr program, fenced."""
    by_utterance = {ex.utterance: ex for ex in dataset.examples}
    answers = answers or {}

    def transport(request):
        query = request.prompt.rsplit("query: ", 1)[1].split("\n", 1)[0]
        example = by_utterance[query]
        return f"```python\n{answers.get(example.id, example.programs['pymr'])}\n```"

    return LlmClient(mode="live", transport=transport)


def test_calendar_bootstrap_judges_gold_programs_as_run_does(calendar_world, smcalflow):
    """Gold pymr programs name people the world lacks (sm-07's Mary, sm-10's Alex and Sam);
    bootstrap canonicalizes names before judging, as run does, so it accepts all 15, each
    stored as written."""
    config = BootstrapConfig(
        environment="calendar", dialect="pymr", gold_dialect="dataflow-simple",
        model="desk-model-1", k=3, passes=1, seed=0,
        dd_declarations=load_dd_source(dd_path("calendar", "pymr")))
    seed_pool, rest = list(smcalflow.examples[:5]), list(smcalflow.examples[5:])
    assert len(rest) == 15
    pool = bootstrap_annotations(seed_pool, [strip_pymr(ex) for ex in rest], calendar_world,
                                 gold_echo(smcalflow), config)
    assert pool == seed_pool + rest


CALENDAR_TEST_IDS = ["sm-04", "sm-08", "sm-12", "sm-16", "sm-20"]
# seven distinct people; the bundled calendar world has six
CROWD = ("def answer():\n    api.add_event(Event(attendees=["
         + ", ".join(f'api.find_person("{name}")' for name in "ABCDEFG") + "]))")


@pytest.mark.parametrize("command", ["run", "bootstrap"])
def test_run_and_bootstrap_judge_a_calendar_program_alike(monkeypatch, tmp_path, smcalflow,
                                                          command):
    verdicts = {}
    evaluator = llm.example_evaluator

    def recording(*args):
        request, judge = evaluator(*args)

        def recorded(example, completion):
            verdict, program = judge(example, completion)
            verdicts[example.id] = verdict
            return verdict, program

        return request, recorded

    client = gold_echo(smcalflow, {"sm-16": CROWD})
    monkeypatch.setattr(experiment, "make_client", lambda *args: (client, "desk-model-1"))
    for module in (experiment, llm):
        monkeypatch.setattr(module, "example_evaluator", recording)
    config = {"dataset": "bundled:datasets/smcalflow.jsonl", "environment": "calendar",
              "dialect": "pymr", "gold_dialect": "dataflow-simple", "client": {}}
    if command == "run":
        run_experiment({**config, "split": "bundled:splits/smcalflow_iid.json", "seeds": [0]},
                       tmp_path, tmp_path / "out")
    else:
        run_bootstrap({**config, "seed_ids": ["sm-01", "sm-02", "sm-03", "sm-05", "sm-06"],
                       "unlabeled_ids": CALENDAR_TEST_IDS, "passes": 1,
                       "output": str(tmp_path / "pool.jsonl")}, tmp_path)
    assert verdicts == {**dict.fromkeys(CALENDAR_TEST_IDS, "correct"),
                        "sm-16": "execution-failure"}


class _Endpoint:
    """One-process completion endpoint for transport tests."""

    def __init__(self, payload):
        import http.server
        import threading

        payload_bytes = json.dumps(payload).encode()

        class Handler(http.server.BaseHTTPRequestHandler):
            requests = []
            headers_seen = []

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                Handler.requests.append(json.loads(self.rfile.read(length)))
                Handler.headers_seen.append(self.headers)
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload_bytes)))
                self.end_headers()
                self.wfile.write(payload_bytes)

            def log_message(self, *args):
                pass

        self.handler = Handler
        self.server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/"
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def test_http_transport_round_trip(monkeypatch):
    from semkit.llm import http_transport

    endpoint = _Endpoint({"completion": "from the endpoint"})
    monkeypatch.setenv("SEMKIT_API_KEY", "sekret")
    try:
        send = http_transport(endpoint.url, "SEMKIT_API_KEY")
        assert send(request("live prompt", "live-model")) == "from the endpoint"
        assert endpoint.handler.requests == [{
            "model": "live-model", "prompt": "live prompt", "temperature": 0.0,
            "max_tokens": 512, "stop": []}]
        headers = endpoint.handler.headers_seen[0]
        assert headers["Authorization"] == "Bearer sekret"
        assert headers["Content-Type"] == "application/json"
    finally:
        endpoint.close()


def test_http_transport_malformed_response():
    from semkit.llm import http_transport

    endpoint = _Endpoint({"unexpected": 1})
    try:
        with pytest.raises(TransportError, match="malformed"):
            http_transport(endpoint.url, "SEMKIT_API_KEY")(request())
    finally:
        endpoint.close()
