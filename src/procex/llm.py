"""Chat-completion client with a content-addressed record/replay cache.

Every request goes out at temperature 0 with no output cap, and is
keyed by the SHA-256 of (model_id, temperature 0, prompt_text). In
record mode a cache miss calls the configured provider once and
persists the response; in replay mode a miss is an error and the
network is never touched. One JSON file per entry, named
``<cache_key>.json``, keeps the cache diffable and usable as a test
fixture; listing and purging touch no other file. ``complete_all``
answers cache hits on the calling thread and sends only record-mode
misses to a pool of ``max_concurrency`` threads, the one bound on
provider calls in flight; concurrent requests for one digest make one
call, and ``min_interval`` spaces calls out.

The live provider POSTs to ``$PROCEX_ENDPOINT`` with
``Authorization: Bearer $PROCEX_API_KEY`` and a 60-second timeout. A
reply that is not a chat completion, token counts that are not JSON
integers >= 0 and text holding a lone surrogate included, is a
``ProviderError``; a missing or null ``usage`` counts as 0 tokens.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from . import sha256_hex
from .corpus import LoadError, ValidationError, check, decode_json, read_utf8

ENV_API_KEY = "PROCEX_API_KEY"
ENV_ENDPOINT = "PROCEX_ENDPOINT"

# the only sampling setting procex uses; it stays in the cache key so
# every recorded digest stays valid
TEMPERATURE = 0.0

TIMEOUT_S = 60.0  # per provider request


class ProviderError(RuntimeError):
    pass


class TransientProviderError(ProviderError):
    """Worth retrying: rate limits, 5xx, connection problems."""


class ReplayMissError(LookupError):
    pass


@dataclass(frozen=True)
class ChatRequest:
    model_id: str
    prompt_text: str

    def to_record(self) -> dict:
        """The fields its cache key hashes and its cache entry stores."""
        return {"model_id": self.model_id, "temperature": TEMPERATURE,
                "prompt_text": self.prompt_text}

    @functools.cached_property
    def digest(self) -> str:
        """Its cache key, hashed once per request."""
        return cache_key(self)


@dataclass(frozen=True)
class ChatResponse:
    text: str
    input_token_count: int
    output_token_count: int
    provider_name: str
    retrieved_from_cache: bool = False

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise TypeError(
                f"response text must be a string, not {type(self.text).__name__}"
            )
        if self.input_token_count < 0 or self.output_token_count < 0:
            raise ValueError("token counts must be >= 0")


def cache_key(request: ChatRequest) -> str:
    """Hex SHA-256 of the request; names its cache entry."""
    payload = json.dumps(request.to_record(), sort_keys=True, ensure_ascii=False)
    return sha256_hex(payload)


def cache_entries(cache_dir) -> list:
    """Sorted paths of the entries in cache_dir: files named <cache_key>.json."""
    return sorted(path for path in Path(cache_dir).glob("*.json")
                  if re.fullmatch(r"[0-9a-f]{64}\.json", path.name)
                  and path.is_file())


def purge_cache(cache_dir, older_than: float | None = None) -> int:
    """Remove the entries of cache_dir, all of them or only those last
    modified before older_than (a time.time() value); return how many."""
    removed = 0
    for path in cache_entries(cache_dir):
        if older_than is not None and path.stat().st_mtime >= older_than:
            continue
        path.unlink()
        removed += 1
    return removed


class HttpProvider:
    """Chat-completions POST against any compatible endpoint.

    top_p is deliberately omitted from the payload; temperature alone
    controls sampling. ``requests`` is imported here, on first use,
    because only record mode builds a live provider.
    """

    def __init__(self, endpoint: str, api_key: str, *, session=None):
        if not endpoint:
            raise ProviderError("no endpoint configured")
        self.endpoint = endpoint
        self.api_key = api_key
        if session is None:
            import requests
            session = requests.Session()
        self.session = session

    @classmethod
    def from_env(cls) -> "HttpProvider":
        return cls(os.environ.get(ENV_ENDPOINT, ""), os.environ.get(ENV_API_KEY, ""))

    def payload(self, request: ChatRequest) -> dict:
        return {
            "model": request.model_id,
            "temperature": TEMPERATURE,
            "messages": [{"role": "user", "content": request.prompt_text}],
        }

    def __call__(self, request: ChatRequest) -> ChatResponse:
        import requests

        headers = {}
        if self.api_key:
            headers["Authorization"] = "Bearer " + self.api_key
        try:
            reply = self.session.post(
                self.endpoint,
                json=self.payload(request),
                headers=headers,
                timeout=TIMEOUT_S,
            )
        except requests.RequestException as exc:
            raise TransientProviderError(f"request failed: {exc}") from exc
        if reply.status_code == 429 or reply.status_code >= 500:
            raise TransientProviderError(f"HTTP {reply.status_code}")
        if reply.status_code >= 400:
            raise ProviderError(f"HTTP {reply.status_code}: {reply.text[:200]}")
        try:
            data = reply.json()
            text = data["choices"][0]["message"]["content"]
            usage = data.get("usage")
            if usage is None:
                usage = {}
            counts = [usage.get(k, 0) for k in ("prompt_tokens", "completion_tokens")]
            if any(type(n) is not int for n in counts):  # bool, float, str
                raise TypeError(f"token counts must be JSON integers: {counts}")
            response = ChatResponse(
                text=text,
                input_token_count=counts[0],
                output_token_count=counts[1],
                provider_name=f"http:{self.endpoint}",
            )
            response.text.encode("utf-8")  # no cache entry holds a lone surrogate
            return response
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed provider payload: {exc}") from exc


CACHE_ENTRY_SHAPE = {"response": {"text": str, "input_token_count": int,
                                  "output_token_count": int, "provider_name": str}}

# the ChatResponse fields an entry stores
_RESPONSE_FIELDS = tuple(CACHE_ENTRY_SHAPE["response"])


class CachingClient:
    """Record/replay front of any provider callable."""

    def __init__(self, cache_dir, provider=None, mode: str = "record", *,
                 retries: int = 3, backoff_base: float = 0.5,
                 max_concurrency: int = 4, min_interval: float = 0.0,
                 sleep=time.sleep):
        if mode not in ("record", "replay"):
            raise ValidationError(f"unknown mode {mode!r}")
        if mode == "record" and provider is None:
            raise ValueError("record mode needs a provider")
        self.cache_dir = Path(cache_dir)
        self.provider = provider
        self.mode = mode
        self.retries = retries
        self.backoff_base = backoff_base
        self.sleep = sleep
        self.min_interval = min_interval
        self.max_concurrency = max_concurrency
        self._locks: dict = {}
        self._locks_guard = threading.Lock()
        self._pace_guard = threading.Lock()
        self._last_call = None

    def _lock_for(self, digest: str) -> threading.Lock:
        with self._locks_guard:
            return self._locks.setdefault(digest, threading.Lock())

    def _path(self, digest: str) -> Path:
        return self.cache_dir / f"{digest}.json"

    def _load(self, path: Path) -> ChatResponse:
        entry = decode_json(read_utf8(path, str(path)), str(path))
        stored = check(entry, CACHE_ENTRY_SHAPE, f"{path}: cache entry")["response"]
        try:
            return ChatResponse(**{name: stored[name] for name in _RESPONSE_FIELDS},
                                retrieved_from_cache=True)
        except ValueError as exc:  # a negative token count
            raise LoadError(f"{path}: {exc}") from exc

    def _store(self, path: Path, request: ChatRequest, response: ChatResponse) -> None:
        entry = {
            "request": request.to_record(),
            "response": {name: getattr(response, name) for name in _RESPONSE_FIELDS},
        }
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # unique per process and thread, and a thread writes one entry at a
        # time: concurrent writers never share a temp file
        tmp = path.with_name(
            f"{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(
            json.dumps(entry, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        tmp.replace(path)

    def _pace(self) -> None:
        if self.min_interval <= 0:
            return
        with self._pace_guard:
            now = time.monotonic()
            if self._last_call is not None:
                wait = self.min_interval - (now - self._last_call)
                if wait > 0:
                    self.sleep(wait)
            self._last_call = time.monotonic()

    def _call_provider(self, request: ChatRequest) -> ChatResponse:
        last_error = None
        for attempt in range(self.retries):
            if attempt:
                self.sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                self._pace()
                return self.provider(request)
            except TransientProviderError as exc:
                last_error = exc
        raise ProviderError(
            f"provider failed after {self.retries} attempts: {last_error}"
        ) from last_error

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request.digest
        path = self._path(digest)
        with self._lock_for(digest):
            if path.exists():
                return self._load(path)
            if self.mode == "replay":
                raise ReplayMissError(f"cache miss for request {digest}")
            response = self._call_provider(request)
            self._store(path, request, response)
            return response

    def complete_all(self, requests) -> list:
        """The response to each request, in request order; the first
        failure in that order raises."""
        requests = list(requests)
        # a hit or a replay makes no provider call: on a pool thread it
        # would only contend for the interpreter lock
        misses = [self.mode == "record" and not self._path(r.digest).exists()
                  for r in requests]
        if not any(misses):
            return [self.complete(r) for r in requests]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(self.max_concurrency) as pool:
            futures = [pool.submit(self.complete, r) if miss else None
                       for r, miss in zip(requests, misses)]
            return [self.complete(r) if f is None else f.result()
                    for r, f in zip(requests, futures)]
