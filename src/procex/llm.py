"""Chat-completion client with a content-addressed record/replay cache.

Every request is keyed by a hash of (model_id, temperature,
prompt_text), plus max_output_tokens when it is set. In record mode a
cache miss calls the configured provider once and persists the
response; in replay mode a miss is an error and the network is never
touched. One JSON file per entry keeps
the cache diffable and usable as a test fixture.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .corpus import LoadError, check, decode_json

ENV_API_KEY = "PROCEX_API_KEY"
ENV_ENDPOINT = "PROCEX_ENDPOINT"


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
    temperature: float = 0.0
    max_output_tokens: int | None = None

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


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


@dataclass(frozen=True)
class CacheKey:
    digest: str


def cache_key(request: ChatRequest) -> CacheKey:
    payload = json.dumps(
        {
            "model_id": request.model_id,
            "temperature": request.temperature,
            "prompt_text": request.prompt_text,
            # only when set, so digests recorded without a cap stay valid
            **({} if request.max_output_tokens is None
               else {"max_output_tokens": request.max_output_tokens}),
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return CacheKey(hashlib.sha256(payload.encode("utf-8")).hexdigest())


def stub_provider(rules):
    """Provider answering with the first rule whose pattern matches.

    A pattern starting with ``^`` is an anchored regular expression,
    anything else a literal substring. No match answers "".
    """
    compiled = []
    for pattern, response_text in rules:
        if pattern.startswith("^"):
            compiled.append((re.compile(pattern).search, response_text))
        else:
            compiled.append((lambda text, p=pattern: p in text, response_text))

    def complete(request: ChatRequest) -> ChatResponse:
        text = ""
        for matches, response_text in compiled:
            if matches(request.prompt_text):
                text = response_text
                break
        return ChatResponse(
            text=text,
            input_token_count=len(request.prompt_text.split()),
            output_token_count=len(text.split()),
            provider_name="stub",
        )

    return complete


class HttpProvider:
    """Chat-completions POST against any compatible endpoint.

    top_p is deliberately omitted from the payload; temperature alone
    controls sampling. ``requests`` is imported here, on first use,
    because only record mode builds a live provider.
    """

    def __init__(self, endpoint: str, api_key: str, *,
                 auth_header: str = "Authorization",
                 auth_prefix: str = "Bearer ",
                 timeout: float = 60.0,
                 session=None):
        if not endpoint:
            raise ProviderError("no endpoint configured")
        self.endpoint = endpoint
        self.api_key = api_key
        self.auth_header = auth_header
        self.auth_prefix = auth_prefix
        self.timeout = timeout
        if session is None:
            import requests
            session = requests.Session()
        self.session = session

    @classmethod
    def from_env(cls, **kw) -> "HttpProvider":
        endpoint = os.environ.get(ENV_ENDPOINT, "")
        api_key = os.environ.get(ENV_API_KEY, "")
        return cls(endpoint, api_key, **kw)

    def payload(self, request: ChatRequest) -> dict:
        body = {
            "model": request.model_id,
            "temperature": request.temperature,
            "messages": [{"role": "user", "content": request.prompt_text}],
        }
        if request.max_output_tokens is not None:
            body["max_tokens"] = request.max_output_tokens
        return body

    def __call__(self, request: ChatRequest) -> ChatResponse:
        import requests

        headers = {}
        if self.api_key:
            headers[self.auth_header] = self.auth_prefix + self.api_key
        try:
            reply = self.session.post(
                self.endpoint,
                json=self.payload(request),
                headers=headers,
                timeout=self.timeout,
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
            usage = data.get("usage", {})
            return ChatResponse(
                text=text,
                input_token_count=int(usage.get("prompt_tokens", 0)),
                output_token_count=int(usage.get("completion_tokens", 0)),
                provider_name=f"http:{self.endpoint}",
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed provider payload: {exc}") from exc


CACHE_ENTRY_SHAPE = {"response": {"text": str, "input_token_count": int,
                                  "output_token_count": int, "provider_name": str}}


class CachingClient:
    """Record/replay front of any provider callable."""

    def __init__(self, cache_dir, provider=None, mode: str = "record", *,
                 retries: int = 3, backoff_base: float = 0.5,
                 max_concurrency: int = 4, min_interval: float = 0.0,
                 sleep=time.sleep, clock=time.monotonic):
        if mode not in ("record", "replay"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "record" and provider is None:
            raise ValueError("record mode needs a provider")
        self.cache_dir = Path(cache_dir)
        self.provider = provider
        self.mode = mode
        self.retries = retries
        self.backoff_base = backoff_base
        self.sleep = sleep
        self.clock = clock
        self.min_interval = min_interval
        self.max_concurrency = max_concurrency
        self._semaphore = threading.BoundedSemaphore(max_concurrency)
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
        entry = decode_json(path.read_text(encoding="utf-8"), str(path))
        stored = check(entry, CACHE_ENTRY_SHAPE, f"{path}: cache entry")["response"]
        try:
            return ChatResponse(
                text=stored["text"],
                input_token_count=stored["input_token_count"],
                output_token_count=stored["output_token_count"],
                provider_name=stored["provider_name"],
                retrieved_from_cache=True,
            )
        except ValueError as exc:  # a negative token count
            raise LoadError(f"{path}: {exc}") from exc

    def _store(self, path: Path, request: ChatRequest, response: ChatResponse) -> None:
        entry = {
            "request": {
                "model_id": request.model_id,
                "temperature": request.temperature,
                "max_output_tokens": request.max_output_tokens,
                "prompt_text": request.prompt_text,
            },
            "response": {
                "text": response.text,
                "input_token_count": response.input_token_count,
                "output_token_count": response.output_token_count,
                "provider_name": response.provider_name,
            },
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
            now = self.clock()
            if self._last_call is not None:
                wait = self.min_interval - (now - self._last_call)
                if wait > 0:
                    self.sleep(wait)
            self._last_call = self.clock()

    def _call_provider(self, request: ChatRequest) -> ChatResponse:
        last_error = None
        for attempt in range(self.retries):
            if attempt:
                self.sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                with self._semaphore:
                    self._pace()
                    return self.provider(request)
            except TransientProviderError as exc:
                last_error = exc
        raise ProviderError(
            f"provider failed after {self.retries} attempts: {last_error}"
        ) from last_error

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = cache_key(request).digest
        path = self._path(digest)
        with self._lock_for(digest):
            if path.exists():
                return self._load(path)
            if self.mode == "replay":
                raise ReplayMissError(f"cache miss for request {digest}")
            response = self._call_provider(request)
            self._store(path, request, response)
            return response

    def purge_cache(self, older_than: float | None = None) -> int:
        """Remove cache entries, all of them or only those older than a time."""
        if not self.cache_dir.is_dir():
            return 0
        removed = 0
        for path in sorted(self.cache_dir.glob("*.json")):
            if older_than is not None and path.stat().st_mtime >= older_than:
                continue
            path.unlink()
            removed += 1
        return removed
