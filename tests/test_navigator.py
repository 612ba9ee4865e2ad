"""Tests for the polite signposting HTTP client."""

import http.server
import threading
import time
from dataclasses import replace
from types import SimpleNamespace
from urllib.parse import urlsplit

import pytest
import requests

from sgp import navigator
from sgp.crossref import CrossRefClient
from sgp.fixtures import degrade, landing_spec, plos_spec, serve, FixtureSpec
from sgp.links import MalformedLinkField
from sgp.navigator import (
    ConnectionFailure,
    FetchTimeout,
    Hop,
    HostThrottle,
    HttpError,
    PolitenessPolicy,
    SignpostClient,
    TooManyRedirects,
)
from sgp.resources import NoEntryPage

FAST = PolitenessPolicy(timeout=5, backoff=0.01)


@pytest.fixture(scope="module")
def endpoint():
    with serve(plos_spec(), landing_spec()) as ep:
        yield ep


@pytest.fixture(scope="module")
def client():
    return SignpostClient(FAST)


class TestPolicy:
    def test_defaults_are_sane(self):
        policy = PolitenessPolicy()
        assert policy.min_interval_per_host == 0.0
        assert policy.max_redirects == 10

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            PolitenessPolicy(min_interval_per_host=-1)


class TestFetchResultInvariants:
    def test_hop_rejects_non_redirect_status(self):
        with pytest.raises(ValueError):
            Hop(uri="http://x/a", status=200, location="http://x/b")


class TestHeadLinks:
    def test_entry_links_resolved_and_counted(self, endpoint, client):
        result = client.head_links(endpoint.entry_uri)
        assert result.status == 200
        assert result.final_uri == endpoint.entry_uri
        assert len(result.links) == 8
        assert all(l.target.startswith(("http://", "info:")) for l in result.links)

    def test_no_body_on_head(self, endpoint, client):
        result = client.head_links(endpoint.entry_uri)
        assert result.body is None
        assert result.media_type == "text/html"
        assert result.fetched_at.tzinfo is not None

    def test_follows_redirects_to_entry(self, endpoint, client):
        result = client.head_links(endpoint.doi_uri)
        assert result.uri == endpoint.doi_uri
        assert result.final_uri == endpoint.entry_uri
        assert len(result.links) == 8

    def test_http_error_carries_result(self, endpoint, client):
        with pytest.raises(HttpError) as err:
            client.head_links(endpoint.uri("/missing"))
        assert err.value.result.status == 404
        assert err.value.result.final_uri == endpoint.uri("/missing")

    def test_strict_mode_rejects_malformed_header(self):
        with serve(degrade(plos_spec(), "malformed-entry-header")) as ep:
            strict = SignpostClient(FAST, strict=True)
            with pytest.raises(MalformedLinkField):
                strict.head_links(ep.entry_uri)
            lenient = SignpostClient(FAST)
            assert len(lenient.head_links(ep.entry_uri).links) == 0


class TestFetchResource:
    def test_pdf_body_and_digest(self, endpoint, client):
        result = client.fetch_resource(endpoint.asset_uris()[0])
        assert result.media_type == "application/pdf"
        assert result.body.startswith(b"%PDF")
        assert result.body == endpoint.spec.assets[0].body()

    def test_uses_get(self, endpoint, client):
        endpoint.clear_log()
        client.fetch_resource(endpoint.asset_uris()[1])
        assert [e.method for e in endpoint.log()] == ["GET"]


class TestRedirectChains:
    def test_doi_chain_shape(self, endpoint, client):
        chain = client.resolve_persistent(endpoint.doi_uri)
        assert [h.status for h in chain.hops] == [303, 302]
        assert chain.hops[0].uri == endpoint.doi_uri
        assert chain.hops[0].location.endswith(
            "/locate/10.1371/journal.pone.0115253"
        )
        assert chain.terminal.final_uri == endpoint.entry_uri
        assert chain.terminal.status == 200

    def test_hop_zero_carries_describedby(self, endpoint, client):
        chain = client.resolve_persistent(endpoint.doi_uri)
        (link,) = chain.hops[0].links.select("describedby")
        assert link.target == endpoint.works_uri
        assert link.attrs.media_type == "application/json"

    def test_non_redirecting_uri_zero_hops(self, endpoint, client):
        chain = client.resolve_persistent(endpoint.entry_uri)
        assert chain.hops == ()
        assert chain.terminal.final_uri == endpoint.entry_uri

    def test_a_failed_walk_names_where_it_stopped(self):
        spec = FixtureSpec.from_json_dict(
            {**plos_spec().to_json_dict(), "status_scripts": [["/plosone/article", [404]]]}
        )
        with serve(degrade(plos_spec(), "malformed-entry-header")) as ep:
            with pytest.raises(MalformedLinkField) as unreadable:
                SignpostClient(FAST, strict=True).resolve_persistent(ep.doi_uri)
        assert unreadable.value.uri == ep.entry_uri
        with serve(spec) as ep:
            with pytest.raises(HttpError) as missing:
                SignpostClient(FAST).resolve_persistent(ep.doi_uri)
        assert missing.value.uri == missing.value.result.final_uri == ep.entry_uri

    def test_redirect_loop_bounded(self, endpoint):
        short = SignpostClient(PolitenessPolicy(timeout=5, max_redirects=3))
        with pytest.raises(TooManyRedirects):
            short.head_links(endpoint.uri("/loop"))


class TestDiscovery:
    def test_start_point_independence_plos(self, endpoint, client):
        policy = endpoint.policy()
        starts = [endpoint.doi_uri, endpoint.entry_uri, *endpoint.asset_uris()]
        objects = [client.discover_object(s, policy=policy) for s in starts]
        reference = objects[0].publication_resources
        assert len(reference) == 4
        for obj in objects[1:]:
            assert obj.publication_resources == reference

    def test_start_point_independence_landing(self, endpoint, client):
        policy = endpoint.policy()
        view = endpoint.views[1]
        starts = [view.doi_uri, view.entry_uri, *view.asset_uris()]
        objects = [client.discover_object(s, policy=policy) for s in starts]
        reference = objects[0].publication_resources
        assert len(reference) == 2
        for obj in objects[1:]:
            assert obj.publication_resources == reference

    def test_identifying_uri_and_pattern(self, endpoint, client):
        obj = client.discover_object(endpoint.entry_uri, policy=endpoint.policy())
        assert obj.identifying_uri == endpoint.doi_uri
        assert obj.pattern is not None
        assert obj.pattern.value == "plos-style"

    def test_repeated_discovery_is_identical(self, endpoint, client):
        policy = endpoint.policy()
        first = client.discover_object(endpoint.entry_uri, policy=policy)
        second = client.discover_object(endpoint.entry_uri, policy=policy)
        assert first == second

    def test_discovery_uses_head_only_one_per_resource(self, endpoint, client):
        endpoint.clear_log()
        client.discover_object(endpoint.entry_uri, policy=endpoint.policy())
        log = endpoint.log()
        assert {e.method for e in log} == {"HEAD"}
        assert len(log) == len({e.path for e in log}) == 4

    def test_discovery_with_a_mapping_gets_items_and_keeps_them(self, endpoint, client):
        policy = endpoint.policy()
        by_head = client.discover_object(endpoint.entry_uri, policy=policy)
        nav = client.memoised()
        endpoint.clear_log()
        obj = nav.discover_object(endpoint.entry_uri, policy=policy, get_items=True)
        log = endpoint.log()
        assert [e.path for e in log if e.method == "HEAD"] == [endpoint.spec.entry_path]
        items = [asset.path for asset in endpoint.spec.assets]
        assert sorted(e.path for e in log if e.method == "GET") == sorted(items)
        assert obj == by_head
        # the memo is the mapping: every item's body comes back without a request
        for asset in endpoint.spec.assets:
            result = nav.fetch_resource(endpoint.uri(asset.path))
            assert result.body == asset.body()
        assert endpoint.log() == log

    def test_a_start_known_as_content_is_got_once(self, endpoint, client):
        policy = endpoint.policy()
        by_head = client.discover_object(endpoint.entry_uri, policy=policy)
        nav = client.memoised()
        endpoint.clear_log()
        obj = nav.discover_object(
            endpoint.entry_uri, policy=policy, get_items=True, get_start=True
        )
        log = endpoint.log()
        assert obj == by_head
        paths = [endpoint.spec.entry_path, *(asset.path for asset in endpoint.spec.assets)]
        assert sorted((e.method, e.path) for e in log) == sorted(("GET", p) for p in paths)
        # the start's body comes back from the memo too
        assert nav.fetch_resource(endpoint.entry_uri).body
        assert endpoint.log() == log

    def test_a_redirecting_start_got_by_get_keeps_its_chain(self, endpoint, client):
        policy = endpoint.policy()
        chain = client.resolve_persistent(endpoint.doi_uri)
        by_head = client.discover_object(endpoint.doi_uri, policy=policy)
        nav = client.memoised()
        endpoint.clear_log()
        obj = nav.discover_object(endpoint.doi_uri, policy=policy, get_start=True)
        log = [(e.method, e.path) for e in endpoint.log()]
        assert obj == by_head
        walk = [urlsplit(hop.uri).path for hop in chain.hops] + [endpoint.spec.entry_path]
        assert log[: len(walk)] == [("GET", path) for path in walk]
        assert {method for method, _ in log[len(walk) :]} == {"HEAD"}
        # the walk is kept under the start and answers its GET
        got = nav.fetch_resource(endpoint.doi_uri)
        assert (got.uri, got.final_uri) == (endpoint.doi_uri, endpoint.entry_uri)
        assert len(endpoint.log()) == len(log)

    def test_a_failed_get_of_the_start_ends_discovery(self):
        spec = FixtureSpec.from_json_dict(
            {**plos_spec().to_json_dict(), "status_scripts": [["/plosone/article", [404]]]}
        )
        with serve(spec) as ep:
            with pytest.raises(HttpError) as err:
                SignpostClient(FAST).discover_object(
                    ep.entry_uri, policy=ep.policy(), get_items=True, get_start=True
                )
            log = ep.log()
        assert err.value.result.status == 404
        assert [(e.method, e.path) for e in log] == [("GET", "/plosone/article")]

    def test_plain_page_has_no_object(self, endpoint, client):
        with pytest.raises(NoEntryPage):
            client.discover_object(endpoint.uri("/plain"), policy=endpoint.policy())

    def test_member_fetch_failure_recorded_not_raised(self):
        spec = plos_spec()
        spec = FixtureSpec.from_json_dict(
            {**spec.to_json_dict(), "status_scripts": [["/plosone/article.xml", [404]]]}
        )
        with serve(spec) as ep:
            client = SignpostClient(FAST)
            obj = client.discover_object(ep.entry_uri, policy=ep.policy())
        assert len(obj.publication_resources) == 4
        assert len(obj.failures) == 1
        assert obj.failures[0][0].endswith("/plosone/article.xml")


class TestMemo:
    def test_repeated_head_and_get_make_one_request_each(self, endpoint, client):
        nav = client.memoised()
        pdf = endpoint.asset_uris()[0]
        endpoint.clear_log()
        assert nav.head_links(endpoint.entry_uri) == nav.head_links(endpoint.entry_uri)
        assert nav.fetch_resource(pdf) == nav.fetch_resource(pdf)
        assert [(e.method, e.path) for e in endpoint.log()] == [
            ("HEAD", endpoint.spec.entry_path),
            ("GET", endpoint.spec.assets[0].path),
        ]

    def test_a_head_never_answers_a_get(self, endpoint, client):
        nav = client.memoised()
        pdf = endpoint.asset_uris()[0]
        endpoint.clear_log()
        assert nav.head_links(pdf).body is None
        assert nav.fetch_resource(pdf).body is not None
        assert [e.method for e in endpoint.log()] == ["HEAD", "GET"]

    def test_an_error_is_not_kept(self):
        spec = FixtureSpec.from_json_dict(
            {**plos_spec().to_json_dict(), "status_scripts": [["/plosone/article.xml", [404]]]}
        )
        with serve(spec) as ep:
            nav = SignpostClient(FAST).memoised()
            xml = ep.uri("/plosone/article.xml")
            with pytest.raises(HttpError):
                nav.fetch_resource(xml)
            assert nav.fetch_resource(xml).status == 200
            assert nav.fetch_resource(xml).status == 200
            assert [e.method for e in ep.log()] == ["GET", "GET"]

    def test_views_do_not_share_entries(self, endpoint, client):
        first, second = client.memoised(), client.memoised()
        assert first is not second
        assert first.memoised() is first
        endpoint.clear_log()
        first.head_links(endpoint.entry_uri)
        second.head_links(endpoint.entry_uri)
        client.head_links(endpoint.entry_uri)
        client.head_links(endpoint.entry_uri)
        assert len(endpoint.log()) == 4

    def test_redirect_chain_is_kept_with_its_final_uri(self, endpoint, client):
        nav = client.memoised()
        endpoint.clear_log()
        first = nav.resolve_persistent(endpoint.doi_uri)
        requests_made = len(endpoint.log())
        again = nav.resolve_persistent(endpoint.doi_uri)
        assert again.hops == first.hops
        assert [h.status for h in again.hops] == [303, 302]
        final = nav.head_links(first.terminal.final_uri)
        assert final.uri == final.final_uri == endpoint.entry_uri
        assert final.links == first.terminal.links
        assert len(endpoint.log()) == requests_made == 3

    def test_a_walk_ends_at_a_hop_the_memo_holds(self, endpoint, client):
        plain = client.resolve_persistent(endpoint.doi_uri)
        nav = client.memoised()
        second = nav.resolve_persistent(plain.hops[1].uri)
        assert second.hops == plain.hops[1:]
        endpoint.clear_log()
        chain = nav.resolve_persistent(endpoint.doi_uri)
        assert [(e.method, e.path) for e in endpoint.log()] == [
            ("HEAD", urlsplit(endpoint.doi_uri).path)
        ]
        assert chain.hops == plain.hops
        assert replace(chain.terminal, fetched_at=None) == replace(
            plain.terminal, fetched_at=None
        )
        # the finished walk is kept under its first hop too
        assert nav.resolve_persistent(endpoint.doi_uri) == chain
        assert len(endpoint.log()) == 1

    def test_hops_from_the_memo_count_towards_the_redirect_limit(self, endpoint):
        client = SignpostClient(PolitenessPolicy(timeout=5, max_redirects=1))
        with pytest.raises(TooManyRedirects):
            client.resolve_persistent(endpoint.doi_uri)
        nav = client.memoised()
        locate = nav.resolve_persistent(endpoint.doi_uri.replace("/doi/", "/locate/"))
        assert len(locate.hops) == 1
        with pytest.raises(TooManyRedirects):
            nav.resolve_persistent(endpoint.doi_uri)


class _Response:
    def __init__(self, status_code, headers=None):
        self.status_code = status_code
        self.headers = headers or {}
        self.content = b""


class _ScriptedSession:
    def __init__(self, responses):
        self.responses = list(responses)

    def request(self, *args, **kwargs):
        return self.responses.pop(0)


class TestRetries:
    def test_retry_after_header_parsed(self, monkeypatch):
        slept = []
        monkeypatch.setattr(
            navigator, "time", SimpleNamespace(sleep=slept.append, monotonic=time.monotonic)
        )
        policy = PolitenessPolicy(backoff=0.25)
        # Retry-After is honoured when it says longer than the backoff
        for retry_after, delays in [("3", [3.0]), ("soon", [0.25]), (None, [0.25, 0.5])]:
            headers = {} if retry_after is None else {"Retry-After": retry_after}
            session = _ScriptedSession(
                [_Response(503, headers) for _ in delays] + [_Response(200)]
            )
            slept.clear()
            client = SignpostClient(policy, session=session)
            assert client.head_links("http://example.test/a").status == 200
            assert slept == delays

    def test_503_then_200_succeeds(self):
        spec = plos_spec()
        spec = FixtureSpec.from_json_dict(
            {**spec.to_json_dict(), "status_scripts": [["/plosone/article", [503, 200]]]}
        )
        with serve(spec) as ep:
            client = SignpostClient(FAST)
            result = client.head_links(ep.entry_uri)
            assert result.status == 200
            assert [e.path for e in ep.log()] == ["/plosone/article"] * 2

    def test_429_retries_with_retry_after(self):
        spec = plos_spec()
        spec = FixtureSpec.from_json_dict(
            {**spec.to_json_dict(), "status_scripts": [["/plosone/article", [429, 200]]]}
        )
        with serve(spec) as ep:
            client = SignpostClient(FAST)
            assert client.head_links(ep.entry_uri).status == 200

    def test_persistent_503_raises_http_error(self):
        spec = plos_spec()
        spec = FixtureSpec.from_json_dict(
            {
                **spec.to_json_dict(),
                "status_scripts": [["/plosone/article", [503, 503, 503, 503]]],
            }
        )
        with serve(spec) as ep:
            client = SignpostClient(FAST)
            with pytest.raises(HttpError) as err:
                client.head_links(ep.entry_uri)
            assert err.value.result.status == 503
            # initial try plus policy.retries more
            assert len(ep.log()) == FAST.retries + 1

    def test_500_not_retried(self):
        spec = plos_spec()
        spec = FixtureSpec.from_json_dict(
            {**spec.to_json_dict(), "status_scripts": [["/plosone/article", [500, 200]]]}
        )
        with serve(spec) as ep:
            client = SignpostClient(FAST)
            with pytest.raises(HttpError):
                client.head_links(ep.entry_uri)
            assert len(ep.log()) == 1


class _RaisingSession:
    def __init__(self, exc):
        self.exc = exc
        self.calls = 0

    def request(self, *args, **kwargs):
        self.calls += 1
        raise self.exc


class TestTransportErrors:
    def test_timeout_maps_to_fetch_timeout(self):
        session = _RaisingSession(requests.Timeout("slow"))
        client = SignpostClient(
            PolitenessPolicy(retries=1, backoff=0.001), session=session
        )
        with pytest.raises(FetchTimeout):
            client.head_links("http://example.test/a")
        assert session.calls == 2

    def test_connection_error_maps_to_connection_failure(self):
        session = _RaisingSession(requests.ConnectionError("refused"))
        client = SignpostClient(
            PolitenessPolicy(retries=0), session=session
        )
        with pytest.raises(ConnectionFailure):
            client.head_links("http://example.test/a")
        assert session.calls == 1


class _Recording(http.server.BaseHTTPRequestHandler):
    """Answers 200 to anything and records its request line and
    Authorization header; as a proxy it sees absolute-form lines."""

    def _answer(self):
        self.server.seen.append((self.requestline, self.headers.get("Authorization")))
        self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = do_HEAD = _answer

    def log_message(self, *args):
        pass


@pytest.fixture
def recorder():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Recording)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(5)
    assert not thread.is_alive()


_NETWORK_ENVIRONMENT = (
    "http_proxy", "https_proxy", "all_proxy", "no_proxy",
    "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
    "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "NETRC",
)


@pytest.fixture
def bare_env(monkeypatch):
    """No proxy, CA bundle or netrc setting in the environment."""
    for name in _NETWORK_ENVIRONMENT:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestNetworkEnvironment:
    def test_a_proxy_gets_absolute_form_requests(self, recorder, bare_env):
        bare_env.setenv("http_proxy", f"http://127.0.0.1:{recorder.server_port}")
        SignpostClient(FAST).head_links("http://journal.example/article/1")
        assert recorder.seen == [("HEAD http://journal.example/article/1 HTTP/1.1", None)]

    def test_no_proxy_host_goes_direct(self, recorder, bare_env):
        # the proxy port is closed, so only a direct request succeeds
        bare_env.setenv("http_proxy", "http://127.0.0.1:9")
        bare_env.setenv("no_proxy", "127.0.0.1")
        client = SignpostClient(PolitenessPolicy(timeout=5, retries=0))
        client.head_links(f"http://127.0.0.1:{recorder.server_port}/direct")
        assert recorder.seen == [("HEAD /direct HTTP/1.1", None)]

    def test_proxies_are_looked_up_once_per_host(self, recorder, bare_env):
        looked_up = []
        lookup = requests.utils.get_environ_proxies

        def counting(uri, *args, **kwargs):
            looked_up.append(uri)
            return lookup(uri, *args, **kwargs)

        bare_env.setattr(requests.utils, "get_environ_proxies", counting)
        base = f"http://127.0.0.1:{recorder.server_port}"
        client = SignpostClient(FAST)
        for n in range(3):
            client.head_links(f"{base}/a{n}")
        view = client.memoised()
        view.head_links(f"{base}/b")
        view.fetch_resource(f"{base}/c")
        assert len(recorder.seen) == 5
        assert looked_up == [f"{base}/a0"]
        view.head_links(f"http://localhost:{recorder.server_port}/d")
        assert len(looked_up) == 2

    def test_netrc_credentials_are_not_sent(self, recorder, bare_env, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login archivist password secret\n")
        bare_env.setenv("NETRC", str(netrc))
        SignpostClient(FAST).fetch_resource(f"http://127.0.0.1:{recorder.server_port}/x")
        assert recorder.seen == [("GET /x HTTP/1.1", None)]

    @pytest.mark.parametrize("variable", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"])
    def test_ca_bundle_is_read_when_the_client_is_built(
        self, recorder, bare_env, tmp_path, variable
    ):
        bundle = str(tmp_path / "ca.pem")
        bare_env.setenv(variable, bundle)
        client = SignpostClient(FAST)
        bare_env.delenv(variable)
        verified = []
        send = requests.adapters.HTTPAdapter.send

        def recording(adapter, request, **kwargs):
            verified.append(kwargs["verify"])
            return send(adapter, request, **kwargs)

        bare_env.setattr(requests.adapters.HTTPAdapter, "send", recording)
        client.head_links(f"http://127.0.0.1:{recorder.server_port}/x")
        assert client._session.verify == bundle
        assert verified == [bundle]

    def test_an_injected_session_keeps_its_own_settings(self, bare_env):
        session = requests.Session()
        SignpostClient(FAST, session=session)
        assert session.trust_env is True
        assert session.verify is True


class TestPoliteness:
    def test_min_interval_spacing_in_server_log(self):
        with serve(plos_spec()) as ep:
            client = SignpostClient(
                PolitenessPolicy(min_interval_per_host=0.05, timeout=5)
            )
            ep.clear_log()
            for _ in range(4):
                client.head_links(ep.entry_uri)
            stamps = [e.timestamp for e in ep.log()]
        assert len(stamps) == 4
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(gap >= 0.05 for gap in gaps)

    def test_spacing_holds_under_concurrency(self):
        with serve(plos_spec()) as ep:
            client = SignpostClient(
                PolitenessPolicy(min_interval_per_host=0.04, timeout=5)
            )
            ep.clear_log()
            threads = [
                threading.Thread(target=client.head_links, args=(ep.entry_uri,))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stamps = sorted(e.timestamp for e in ep.log())
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert len(stamps) == 4
        assert all(gap >= 0.04 for gap in gaps)

    def test_no_interval_no_delay(self, endpoint, client):
        throttle = HostThrottle(PolitenessPolicy())
        with throttle.acquire("example.test"):
            pass
        with throttle.acquire("example.test"):
            pass

    def test_throttle_shared_with_works_client(self):
        with serve(plos_spec()) as ep:
            nav = SignpostClient(
                PolitenessPolicy(min_interval_per_host=0.04, timeout=5)
            )
            works = CrossRefClient(nav, api_base=ep.base_uri)
            ep.clear_log()
            nav.head_links(ep.entry_uri)
            work = works.fetch_work("10.1371/journal.pone.0115253")
            stamps = [e.timestamp for e in ep.log()]
        assert work.doi == "10.1371/journal.pone.0115253"
        assert len(stamps) == 2
        assert stamps[1] - stamps[0] >= 0.04
