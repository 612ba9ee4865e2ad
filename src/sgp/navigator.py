"""Polite HTTP client for typed-link navigation.

Issues HEAD/GET requests, follows redirect chains hop by hop while
keeping every hop's Link header, and drives the boundary closure over a
live host. Per-host politeness (minimum spacing, bounded concurrency),
retries and the User-Agent live here, and this is the only module that
speaks HTTP: the works-API client sends its requests through it too.
A ``memoised()`` view answers one task's repeated requests from a memo.
"""

from __future__ import annotations

import copy
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime
from urllib.parse import urljoin, urlsplit

import requests

from .links import (
    DEFAULT_VOCABULARY,
    LinkSet,
    MalformedLinkField,
    Vocabulary,
    parse_link_field,
    resolve_targets,
    select,
)
from .resources import (
    DEFAULT_POLICY as DEFAULT_RESOURCE_POLICY,
    ResourcePolicy,
    ScholarlyObject,
    boundary_closure,
)
from .rfc3339 import utcnow

__all__ = [
    "PolitenessPolicy",
    "DEFAULT_POLITENESS",
    "HostThrottle",
    "FetchResult",
    "Hop",
    "RedirectChain",
    "NavigationError",
    "ConnectionFailure",
    "FetchTimeout",
    "TooManyRedirects",
    "HttpError",
    "SignpostClient",
]

_REDIRECT_STATUSES = frozenset({301, 302, 303, 307, 308})


class NavigationError(RuntimeError):
    uri: str | None = None  # where a redirect walk stopped, when one did


class ConnectionFailure(NavigationError):
    pass


class FetchTimeout(NavigationError):
    pass


class TooManyRedirects(NavigationError):
    pass


class HttpError(NavigationError):
    """A 4xx/5xx terminal response; the parsed result rides along."""

    def __init__(self, result: "FetchResult"):
        super().__init__(f"HTTP {result.status} for {result.final_uri}")
        self.result = result


@dataclass(frozen=True)
class PolitenessPolicy:
    min_interval_per_host: float = 0.0
    max_concurrent_per_host: int = 2
    user_agent: str = "sgp-toolkit/0.1"
    timeout: float = 10.0
    max_redirects: int = 10
    retries: int = 2
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.min_interval_per_host < 0:
            raise ValueError("min_interval_per_host must be >= 0")
        if self.max_concurrent_per_host < 1:
            raise ValueError("max_concurrent_per_host must be >= 1")
        if self.max_redirects < 0:
            raise ValueError("max_redirects must be >= 0")


DEFAULT_POLITENESS = PolitenessPolicy()


class _HostState:
    def __init__(self, concurrency: int):
        self.semaphore = threading.Semaphore(concurrency)
        self.next_free = 0.0


class HostThrottle:
    """Per-host gate: at most N in flight, and when a minimum interval
    is set, one at a time with that much quiet between completions.

    Spacing is measured from the end of one request to the start of the
    next, so a server that logs arrivals observes gaps of at least the
    interval.
    """

    def __init__(self, policy: PolitenessPolicy = DEFAULT_POLITENESS):
        self._policy = policy
        self._lock = threading.Lock()
        self._hosts: dict[str, _HostState] = {}

    def _state(self, host: str) -> _HostState:
        with self._lock:
            state = self._hosts.get(host)
            if state is None:
                # an interval forces serial order; overlap would void it
                concurrency = (
                    1
                    if self._policy.min_interval_per_host > 0
                    else self._policy.max_concurrent_per_host
                )
                state = _HostState(concurrency)
                self._hosts[host] = state
            return state

    @contextmanager
    def acquire(self, host: str):
        state = self._state(host)
        interval = self._policy.min_interval_per_host
        state.semaphore.acquire()
        try:
            if interval > 0:
                wait = state.next_free - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
            yield
        finally:
            if interval > 0:
                state.next_free = time.monotonic() + interval
            state.semaphore.release()


@dataclass(frozen=True)
class FetchResult:
    """Terminal response for one URI; links are resolved against the
    URI that actually answered."""

    uri: str
    final_uri: str
    status: int
    links: LinkSet
    media_type: str | None = None
    body: bytes | None = None
    fetched_at: datetime | None = None


@dataclass(frozen=True)
class Hop:
    uri: str
    status: int
    location: str
    links: LinkSet = LinkSet()

    def __post_init__(self) -> None:
        if self.status not in _REDIRECT_STATUSES:
            raise ValueError(f"not a redirect status: {self.status}")


@dataclass(frozen=True)
class RedirectChain:
    hops: tuple[Hop, ...]
    terminal: FetchResult


class SignpostClient:
    """HEAD/GET with Link collection and redirect bookkeeping.

    The client's own session reads the network environment once, not
    on every request: the CA bundle (``REQUESTS_CA_BUNDLE``, else
    ``CURL_CA_BUNDLE``) when the client is built, and the proxies
    (``HTTP(S)_PROXY`` with ``NO_PROXY`` applied) once per scheme and
    host. ``.netrc`` is not read: no request carries credentials.

    ``session`` is injectable for tests; it must provide
    requests.Session semantics, and it keeps its own ``trust_env``.
    """

    def __init__(
        self,
        policy: PolitenessPolicy = DEFAULT_POLITENESS,
        *,
        session=None,
        strict: bool = False,
        vocabulary: Vocabulary = DEFAULT_VOCABULARY,
    ):
        self.policy = policy
        # (scheme, netloc) -> proxies, shared by memoised() views; None
        # leaves an injected session to read the environment itself
        self._proxies: dict[tuple[str, str], dict[str, str]] | None = None
        if session is None:
            session = requests.Session()
            session.trust_env = False
            session.verify = (
                os.environ.get("REQUESTS_CA_BUNDLE")
                or os.environ.get("CURL_CA_BUNDLE")
                or True
            )
            self._proxies = {}
        self._session = session
        self._strict = strict
        self._vocabulary = vocabulary
        self.throttle = HostThrottle(policy)
        self._memo: dict | None = None  # (method, uri) -> (hops, result)

    # -- single request

    def _proxies_for(self, uri: str, scheme: str, host: str) -> dict[str, str] | None:
        memo = self._proxies
        if memo is None:
            return None
        # threads racing on a new host both look it up and get one answer
        proxies = memo.get((scheme, host))
        if proxies is None:
            proxies = memo[(scheme, host)] = requests.utils.get_environ_proxies(uri)
        return proxies

    def _request(self, method: str, uri: str):
        policy = self.policy
        parts = urlsplit(uri)
        host = parts.netloc
        proxies = self._proxies_for(uri, parts.scheme, host)
        last_error: Exception | None = None
        for attempt in range(policy.retries + 1):
            try:
                with self.throttle.acquire(host):
                    response = self._session.request(
                        method,
                        uri,
                        allow_redirects=False,
                        timeout=policy.timeout,
                        headers={"User-Agent": policy.user_agent},
                        proxies=proxies,
                    )
            except requests.Timeout as exc:
                last_error = FetchTimeout(f"{method} {uri}: {exc}")
            except requests.RequestException as exc:
                last_error = ConnectionFailure(f"{method} {uri}: {exc}")
            else:
                if response.status_code in (429, 503) and attempt < policy.retries:
                    delay = policy.backoff * (2**attempt)
                    retry_after = response.headers.get("Retry-After")
                    if retry_after is not None:
                        try:
                            delay = max(float(retry_after), delay)
                        except ValueError:
                            pass
                    time.sleep(delay)
                    continue
                return response
            if attempt < policy.retries:
                time.sleep(policy.backoff * (2**attempt))
        assert last_error is not None
        raise last_error

    def _links_from(self, response, base: str) -> LinkSet:
        header = response.headers.get("Link", "")
        if not header:
            return LinkSet((), base=base)
        parsed = parse_link_field(header, strict=self._strict, vocabulary=self._vocabulary)
        return resolve_targets(parsed, base)

    # -- redirect walk

    def _terminal(
        self, uri: str, final_uri: str, response, *, with_body: bool
    ) -> FetchResult:
        content_type = response.headers.get("Content-Type")
        media_type = content_type.split(";")[0].strip() if content_type else None
        result = FetchResult(
            uri=uri,
            final_uri=final_uri,
            status=response.status_code,
            links=self._links_from(response, final_uri),
            media_type=media_type,
            body=response.content if with_body else None,
            fetched_at=utcnow(),
        )
        if result.status >= 400:
            raise HttpError(result)
        return result

    def _fetch(self, method: str, uri: str) -> tuple[tuple[Hop, ...], FetchResult]:
        """The one request path: the redirect walk from ``uri`` to its
        terminal response. With a memo open, each hop is looked up before
        it is requested, and a known one ends the walk with the memo's
        hops and result; a finished walk is kept under every hop and its
        final URI. The result names ``uri`` as the URI asked for. An
        error raised on the way names the URI the walk stopped at as its
        ``uri``."""
        memo = self._memo
        max_redirects = self.policy.max_redirects
        current = uri
        hops: list[Hop] = []
        try:
            while len(hops) <= max_redirects:
                known = memo.get((method, current)) if memo is not None else None
                if known is not None:
                    hops.extend(known[0])
                    result = known[1]
                    break
                response = self._request(method, current)
                location = response.headers.get("Location")
                if response.status_code in _REDIRECT_STATUSES and location is not None:
                    target = urljoin(current, location)
                    hops.append(
                        Hop(
                            uri=current,
                            status=response.status_code,
                            location=target,
                            links=self._links_from(response, current),
                        )
                    )
                    current = target
                    continue
                result = self._terminal(uri, current, response, with_body=method == "GET")
                break
        except (NavigationError, MalformedLinkField) as exc:
            exc.uri = current
            raise
        if len(hops) > max_redirects:
            raise TooManyRedirects(f"{uri}: more than {max_redirects} redirects")
        chain = tuple(hops)
        if memo is not None:
            for index, hop in enumerate(chain):
                memo.setdefault((method, hop.uri), (chain[index:], result))
            memo.setdefault((method, result.final_uri), ((), result))
        if result.uri != uri:
            result = replace(result, uri=uri)
        return chain, result

    # -- public operations

    def memoised(self) -> SignpostClient:
        """This client with a fresh response memo, for one task.

        The view shares session, policy, throttle, strictness and
        vocabulary. Successful responses are kept under (method, uri), the
        URI of every redirect hop on the way and the final URI; errors are
        not, and a GET never answers a HEAD. A redirect walk consults the
        memo at every hop, so a walk that reaches a known hop ends there
        and the chain is completed from the memo. A client whose memo is
        already open returns itself.
        """
        if self._memo is not None:
            return self
        view = copy.copy(self)
        view._memo = {}
        return view

    def head_links(self, uri: str) -> FetchResult:
        return self._fetch("HEAD", uri)[1]

    def fetch_resource(self, uri: str) -> FetchResult:
        return self._fetch("GET", uri)[1]

    def resolve_persistent(self, uri: str) -> RedirectChain:
        hops, terminal = self._fetch("HEAD", uri)
        return RedirectChain(hops=hops, terminal=terminal)

    def discover_object(
        self,
        start: str,
        *,
        policy: ResourcePolicy = DEFAULT_RESOURCE_POLICY,
        get_items: bool = False,
        get_start: bool = False,
    ) -> ScholarlyObject:
        """Boundary closure from any member URI.

        A start with a collection link is taken as a member, and the walk
        climbs that one link, over HEAD, so the entry page's media type is
        known first-hand; the closure then expands item links. Every
        request goes through a memo (this client's own when it is
        ``memoised()``, else a fresh one), so each distinct resource is
        requested once. Items are HEADed unless ``get_items``: then each
        item is fetched by GET and its links are read from that response,
        and a memoised caller reads the bodies back with
        ``fetch_resource`` at no further request. The start is HEADed
        unless ``get_start``, which a caller sets when it already knows
        the start is content (a feed event that types it as an article):
        then the start is fetched by GET and its links, the same a HEAD
        would give, are read from that response. A failed GET ends
        discovery as a failed HEAD would. A climbed-to entry page is
        always HEADed: a landing-page entry is never downloaded, so a GET
        there would only add bytes.
        """
        nav = self.memoised()
        current = (nav.fetch_resource if get_start else nav.head_links)(start)
        upward = select(current.links, "collection")
        if upward and upward[0].target != current.final_uri:
            current = nav.head_links(upward[0].target)
        item_request = nav.fetch_resource if get_items else nav.head_links

        def oracle(uri: str) -> LinkSet:
            if uri == current.final_uri:
                return current.links
            return item_request(uri).links

        return boundary_closure(
            current.final_uri,
            oracle,
            policy=policy,
            entry_media_type=current.media_type,
        )
