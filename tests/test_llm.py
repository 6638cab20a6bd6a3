"""LLM client tests: caching, replay, retries, transport."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import requests
from hypothesis import given, strategies as st

import procex
from procex import corpus, sha1_hex, sha256_hex
from procex.corpus import Dataset, ValidationError
from procex.llm import (
    CachingClient,
    ChatRequest,
    ChatResponse,
    HttpProvider,
    ProviderError,
    ReplayMissError,
    TransientProviderError,
    cache_key,
    purge_cache,
)
from procex.pipeline import run_cell
from procex.prompt import PromptConfig


DATA = Path(__file__).resolve().parent.parent / "data"
FIXTURE_CACHE = DATA / "fixtures" / "replay_cache"


def make_request(prompt="hello world", model="test-model"):
    return ChatRequest(model_id=model, prompt_text=prompt)


class SpyProvider:
    def __init__(self, text="reply"):
        self.calls = []
        self.text = text

    def __call__(self, request):
        self.calls.append(request)
        return ChatResponse(
            text=self.text,
            input_token_count=len(request.prompt_text.split()),
            output_token_count=1,
            provider_name="spy",
        )


# ---------------------------------------------------------------------------
# cache keys

def test_cache_key_deterministic_and_distinct():
    a = cache_key(make_request())
    assert a == cache_key(make_request())
    assert len(a) == 64
    assert a != cache_key(make_request(prompt="other"))
    assert a != cache_key(make_request(model="other-model"))


def test_cache_key_without_cap_keeps_recorded_digest():
    # the digest every cache recorded with temperature 0 and no output cap
    assert cache_key(make_request()) == \
        "d6b7e55b57332e9e3364e720430d7b29c3209b8aa5ff79264b84e3fa27a88f19"


def test_every_fixture_entry_is_named_by_its_cache_key():
    entries = sorted(FIXTURE_CACHE.glob("*.json"))
    assert len(entries) == 45
    for path in entries:
        stored = json.loads(path.read_text(encoding="utf-8"))["request"]
        assert stored["temperature"] == 0.0
        key = cache_key(ChatRequest(stored["model_id"], stored["prompt_text"]))
        assert path.stem == key, path.name


@given(st.text())
def test_digest_helpers_match_hashlib(text):
    data = text.encode("utf-8")
    assert sha1_hex(text) == hashlib.sha1(data).hexdigest()
    assert sha256_hex(text) == hashlib.sha256(data).hexdigest()


def test_hashlib_fallback_keeps_digests():
    # a build without CPython's built-in SHA modules digests with hashlib
    entry = min(FIXTURE_CACHE.glob("*.json"))
    probe = ("import sys\n"
             "sys.modules.update(dict.fromkeys(('_sha1', '_sha2', '_sha256')))\n"
             "import procex\n"
             "assert 'hashlib' in sys.modules\n"
             "import json, procex.llm as llm\n"
             "stored = json.loads(open(sys.argv[1], encoding='utf-8').read())['request']\n"
             "print(llm.cache_key(llm.ChatRequest(stored['model_id'], stored['prompt_text'])),\n"
             "      procex.sha1_hex('lane|Clerk|0'))")
    src = str(Path(procex.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe, str(entry)], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.split() == [entry.stem, sha1_hex("lane|Clerk|0")]


# ---------------------------------------------------------------------------
# record and replay

def test_record_then_cached(tmp_path):
    spy = SpyProvider()
    client = CachingClient(tmp_path, spy, "record")
    first = client.complete(make_request())
    second = client.complete(make_request())
    assert len(spy.calls) == 1
    assert first.retrieved_from_cache is False
    assert second.retrieved_from_cache is True
    assert second.text == first.text == "reply"


def test_cache_file_is_inspectable(tmp_path):
    spy = SpyProvider()
    client = CachingClient(tmp_path, spy, "record")
    request = make_request()
    client.complete(request)
    path = tmp_path / f"{cache_key(request)}.json"
    entry = json.loads(path.read_text())
    assert entry["request"] == {"model_id": "test-model", "temperature": 0.0,
                                "prompt_text": "hello world"}
    assert entry["response"]["text"] == "reply"


def test_store_survives_a_directory_on_the_old_temp_name(tmp_path):
    request = make_request()
    digest = cache_key(request)
    (tmp_path / f"{digest}.tmp").mkdir()
    client = CachingClient(tmp_path, SpyProvider(), "record")
    assert client.complete(request).text == "reply"
    assert (tmp_path / f"{digest}.json").is_file()
    assert [p.name for p in tmp_path.glob("*.tmp")] == [f"{digest}.tmp"]


def test_replay_hits_without_provider(tmp_path):
    spy = SpyProvider()
    CachingClient(tmp_path, spy, "record").complete(make_request())
    replayer = CachingClient(tmp_path, None, "replay")
    response = replayer.complete(make_request())
    assert response.text == "reply"
    assert response.retrieved_from_cache is True
    assert len(spy.calls) == 1  # only the recording call


def test_replay_miss_is_error_and_no_network(tmp_path):
    spy = SpyProvider()
    replayer = CachingClient(tmp_path, spy, "replay")
    with pytest.raises(ReplayMissError) as err:
        replayer.complete(make_request())
    assert "cache miss" in str(err.value)
    assert spy.calls == []


def test_record_mode_requires_provider(tmp_path):
    with pytest.raises(ValueError):
        CachingClient(tmp_path, None, "record")
    with pytest.raises(ValidationError):
        CachingClient(tmp_path, SpyProvider(), "sometimes")


# ---------------------------------------------------------------------------
# retries

class FlakyProvider:
    def __init__(self, failures, text="eventually"):
        self.failures = failures
        self.calls = 0
        self.text = text

    def __call__(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientProviderError("rate limited")
        return ChatResponse(self.text, 1, 1, "flaky")


def test_retry_then_succeed(tmp_path):
    sleeps = []
    provider = FlakyProvider(failures=2)
    client = CachingClient(
        tmp_path, provider, "record", backoff_base=0.5, sleep=sleeps.append
    )
    response = client.complete(make_request())
    assert response.text == "eventually"
    assert provider.calls == 3
    assert sleeps == [0.5, 1.0]  # exponential backoff


def test_retries_exhausted(tmp_path):
    provider = FlakyProvider(failures=99)
    client = CachingClient(tmp_path, provider, "record", sleep=lambda s: None)
    with pytest.raises(ProviderError) as err:
        client.complete(make_request())
    assert provider.calls == 3
    assert "3 attempts" in str(err.value)
    assert not list(tmp_path.glob("*.json"))  # nothing cached on failure


def test_min_interval_paces_provider_calls_not_cache_hits(tmp_path):
    sleeps = []
    spy = SpyProvider()
    client = CachingClient(tmp_path, spy, "record", min_interval=60.0,
                           sleep=sleeps.append)
    for prompt in ("first", "second", "first", "third"):
        client.complete(make_request(prompt))
    assert len(spy.calls) == 3
    # the first call waits for nothing; each later one for the rest of the interval
    assert len(sleeps) == 2
    assert all(59.0 < wait <= 60.0 for wait in sleeps), sleeps


# ---------------------------------------------------------------------------
# concurrency ceiling

def test_concurrency_ceiling(tmp_path):
    # the document pool of run_cell is the one bound on provider calls
    import time as _time

    active = 0
    peak = 0
    guard = threading.Lock()

    def slow_provider(request):
        nonlocal active, peak
        with guard:
            active += 1
            peak = max(peak, active)
        _time.sleep(0.03)
        with guard:
            active -= 1
        return ChatResponse("", 0, 0, "slow")

    pet = corpus.load_pet(DATA / "pet.jsonl")
    dataset = Dataset(schema=pet.schema, documents=pet.documents[:10])
    client = CachingClient(tmp_path, slow_provider, "record", max_concurrency=2)
    cell = run_cell(dataset, PromptConfig(task="MD", schema=pet.schema),
                    client)
    assert cell.failure is None
    assert len(list(tmp_path.glob("*.json"))) == 10  # one call per document
    assert peak <= 2


def test_concurrent_same_request_calls_provider_once(tmp_path):
    spy = SpyProvider()
    client = CachingClient(tmp_path, spy, "record")
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(
            lambda _: client.complete(make_request()), range(4)
        ))
    assert len(spy.calls) == 1
    assert sum(0 if r.retrieved_from_cache else 1 for r in results) == 1


# ---------------------------------------------------------------------------
# purge

def test_purge_all_and_filtered(tmp_path):
    spy = SpyProvider()
    client = CachingClient(tmp_path, spy, "record")
    for i in range(3):
        client.complete(make_request(f"prompt {i}"))
    keep_all = purge_cache(tmp_path, older_than=0.0)  # nothing is that old
    assert keep_all == 0
    assert purge_cache(tmp_path) == 3
    assert purge_cache(tmp_path) == 0


# ---------------------------------------------------------------------------
# HTTP transport (faked session, no network)

class FakeReply:
    def __init__(self, status_code=200, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class FakeSession:
    def __init__(self, reply):
        self.reply = reply
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers,
                              "timeout": timeout})
        return self.reply


def ok_body(text="answer"):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 3},
    }


def test_http_provider_payload_and_parse():
    session = FakeSession(FakeReply(body=ok_body()))
    provider = HttpProvider("https://api.example/v1/chat", "sekrit", session=session)
    response = provider(make_request("the prompt"))
    assert response.text == "answer"
    assert response.input_token_count == 12
    assert response.output_token_count == 3
    sent = session.requests[0]
    assert sent["json"]["model"] == "test-model"
    assert sent["json"]["temperature"] == 0.0
    assert sent["json"]["messages"] == [{"role": "user", "content": "the prompt"}]
    assert "top_p" not in sent["json"]
    assert sent["headers"] == {"Authorization": "Bearer sekrit"}
    assert sent["timeout"] == 60.0
    assert set(sent["json"]) == {"model", "temperature", "messages"}


def test_http_provider_transient_and_fatal_errors():
    for code in (429, 500, 503):
        provider = HttpProvider("https://x", "k", session=FakeSession(FakeReply(code)))
        with pytest.raises(TransientProviderError):
            provider(make_request())
    provider = HttpProvider("https://x", "k", session=FakeSession(FakeReply(400)))
    with pytest.raises(ProviderError) as err:
        provider(make_request())
    assert not isinstance(err.value, TransientProviderError)


def test_http_provider_request_exception_is_transient():
    class FailingSession:
        def post(self, url, json=None, headers=None, timeout=None):
            raise requests.ConnectionError("connection refused")

    provider = HttpProvider("https://x", "k", session=FailingSession())
    with pytest.raises(TransientProviderError) as err:
        provider(make_request())
    assert "connection refused" in str(err.value)


def test_http_provider_null_content_is_provider_error():
    provider = HttpProvider(
        "https://x", "k", session=FakeSession(FakeReply(body=ok_body(text=None)))
    )
    with pytest.raises(ProviderError) as err:
        provider(make_request())
    assert not isinstance(err.value, TransientProviderError)
    assert "malformed" in str(err.value)


def test_http_provider_malformed_payload():
    provider = HttpProvider(
        "https://x", "k", session=FakeSession(FakeReply(body={"weird": True}))
    )
    with pytest.raises(ProviderError) as err:
        provider(make_request())
    assert "malformed" in str(err.value)


def test_http_provider_null_usage_counts_no_tokens():
    body = {**ok_body(), "usage": None}
    provider = HttpProvider("https://x", "k", session=FakeSession(FakeReply(body=body)))
    response = provider(make_request())
    assert (response.text, response.input_token_count,
            response.output_token_count) == ("answer", 0, 0)


@pytest.mark.parametrize("body", [
    {**ok_body(), "usage": "12 tokens"},
    {**ok_body(), "usage": [12, 3]},
    {**ok_body(), "usage": 15},
    {**ok_body(), "usage": {"prompt_tokens": None}},
    {**ok_body(), "usage": {"prompt_tokens": "many"}},
    {**ok_body(), "usage": {"completion_tokens": -1}},
    {**ok_body(), "usage": {"prompt_tokens": "12"}},
    {**ok_body(), "usage": {"prompt_tokens": 1.9}},
    {**ok_body(), "usage": {"completion_tokens": True}},
    {"choices": []},
    {"choices": [{"message": "answer"}]},
    ["answer"],
    "answer",
    None,
], ids=repr)
def test_http_provider_malformed_reply_is_provider_error(body):
    reply = FakeReply(body=body)
    if body is None:  # a body that is JSON null, not a missing body
        reply.json = lambda: None
    provider = HttpProvider("https://x", "k", session=FakeSession(reply))
    with pytest.raises(ProviderError) as err:
        provider(make_request())
    assert not isinstance(err.value, TransientProviderError)
    assert "malformed" in str(err.value)


def test_http_provider_text_with_a_lone_surrogate_is_provider_error(tmp_path):
    # JSON can escape a surrogate that no cache entry can encode
    session = FakeSession(FakeReply(body=ok_body(text="answer \ud800")))
    client = CachingClient(tmp_path, HttpProvider("https://x", "k", session=session))
    with pytest.raises(ProviderError) as err:
        client.complete(make_request())
    assert not isinstance(err.value, TransientProviderError)
    assert "malformed" in str(err.value)
    assert list(tmp_path.iterdir()) == []


def test_request_validation():
    with pytest.raises(ValueError):
        ChatResponse("t", -1, 0, "p")
    with pytest.raises(TypeError):
        ChatResponse(None, 0, 0, "p")
