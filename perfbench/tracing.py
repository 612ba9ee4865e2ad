"""Spans around the public functions of `sgp`'s layers, recorded from
outside the program, and the per-layer metrics computed from them.

Each function is wrapped at the name its callers look up (a module
global of the calling module, or a class attribute for methods). A span
records its name, layer, start, end, parent and the `sgp` run it belongs
to; spans stay in memory until `write` is called when the run ends.
Self time is a span's duration minus the durations of its direct
children, so nested spans are never counted twice.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

# span fields
_NAME, _LAYER, _PARENT, _RUN, _START, _END, _CHILDREN = range(7)

PER_LAYER_METRICS = {
    "navigator.head_calls_per_object": "count",
    "navigator.get_calls_per_object": "count",
    "navigator.self_ms_per_object": "ms",
    "navigator.proxy_lookup_ms_per_object": "ms",
    "navigator.throttle_wait_ms_per_object": "ms",
    "links.parse_ms_per_object": "ms",
    "resources.self_ms_per_object": "ms",
    "resourcesync.feed_parse_ms_per_object": "ms",
    "resourcesync.unpack_ms_per_object": "ms",
    "resourcesync.unpack_calls_per_run": "count",
    "crossref.fetch_work_ms_per_object": "ms",
    "crossref.calls_per_object": "count",
    "bibliography.self_ms_per_object": "ms",
    "harvester.store_payload_ms_per_object": "ms",
    "harvester.save_record_ms_per_object": "ms",
    "harvester.fsck_ms_per_object": "ms",
    "harvester.self_ms_per_object": "ms",
    "auditor.self_ms_per_object": "ms",
    "cli.self_ms_per_object": "ms",
    "fixtures.server_cpu_ms_per_request": "ms",
}


class _TimedEnter:
    """Context manager whose __enter__ is recorded as a span."""

    def __init__(self, tracer: "Tracer", inner, name: str, layer: str):
        self._tracer = tracer
        self._inner = inner
        self._name = name
        self._layer = layer

    def __enter__(self):
        span = self._tracer.open(self._name, self._layer)
        try:
            return self._inner.__enter__()
        finally:
            self._tracer.close(span)

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.requests: Counter[tuple[str, str]] = Counter()
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        run = index if parent is None else self.spans[parent][_RUN]
        self.spans.append([name, layer, parent, run, perf_counter(), None, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[_END] = perf_counter()
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]][_CHILDREN] += span[_END] - span[_START]

    def _transport_layer(self) -> str:
        # the crossref client has its own session; everything else that
        # reaches requests goes through the navigator
        inside = any(self.spans[index][_LAYER] == "crossref" for index in self._stack)
        return "crossref" if inside else "navigator"

    def traced(self, function, name: str, layer: str):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            span = tracer.open(name, layer or tracer._transport_layer())
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _replace(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, layer: str) -> None:
        self._replace(owner, attr, self.traced(getattr(owner, attr), name, layer))

    # -- installation

    def install(self) -> None:
        import requests.sessions
        from sgp import auditor, cli, crossref, harvester, navigator

        client = navigator.SignpostClient
        for method in ("head_links", "fetch_resource", "resolve_persistent", "discover_object"):
            self.wrap(client, method, f"navigator.{method}", "navigator")
        self.wrap(navigator, "parse_link_field", "links.parse_link_field", "links")
        self.wrap(navigator, "boundary_closure", "resources.boundary_closure", "resources")
        for name in ("object_from_links", "validate_object"):
            self.wrap(harvester, name, f"resources.{name}", "resources")
        for module in (cli, auditor):
            self.wrap(module, "parse_change_list", "resourcesync.parse_change_list", "resourcesync")
        self.wrap(harvester, "unpack_change_dump", "resourcesync.unpack_change_dump", "resourcesync")
        self.wrap(crossref.CrossRefClient, "fetch_work", "crossref.fetch_work", "crossref")
        for name in ("parse_crossref_json", "from_crossref", "reconcile"):
            self.wrap(harvester, name, f"bibliography.{name}", "bibliography")
        pick_parser = harvester.parser_for

        def parser_for(*args, **kwargs):
            return self.traced(pick_parser(*args, **kwargs), "bibliography.parse", "bibliography")

        self._replace(harvester, "parser_for", parser_for)
        for method in ("store_payload", "save_record", "fsck"):
            self.wrap(harvester.IngestStore, method, f"harvester.{method}", "harvester")
        self.wrap(cli, "ingest", "harvester.ingest", "harvester")
        self.wrap(auditor.Auditor, "audit", "auditor.audit", "auditor")
        self.wrap(cli, "run", "cli.run", "cli")

        # transport: proxy lookup per request, throttle entry, request counts
        self.wrap(requests.sessions, "get_environ_proxies", "transport.proxy_lookup", "")
        acquire = navigator.HostThrottle.acquire

        def throttled(throttle, host):
            inner = acquire(throttle, host)
            if not self.active:
                return inner
            return _TimedEnter(self, inner, "navigator.throttle_wait", "navigator")

        self._replace(navigator.HostThrottle, "acquire", throttled)
        send = requests.Session.request

        def request(session, method, *args, **kwargs):
            if self.active:
                self.requests[(self._transport_layer(), method.upper())] += 1
            return send(session, method, *args, **kwargs)

        self._replace(requests.Session, "request", request)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": span[_NAME],
                            "layer": span[_LAYER],
                            "run": span[_RUN],
                            "parent": span[_PARENT],
                            "start": span[_START],
                            "end": span[_END],
                        }
                    )
                    + "\n"
                )

    def metrics(self, objects: int, runs: int, server: dict, scale: float) -> dict[str, float]:
        """Per-layer metrics; times are multiplied by `scale`, the factor
        to the benchmark's reference speed."""
        duration: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        self_time: Counter[str] = Counter()
        for span in self.spans:
            name = span[_NAME]
            layer = span[_LAYER]
            if name == "transport.proxy_lookup":
                name = f"{layer}.proxy_lookup"
            elapsed = span[_END] - span[_START]
            duration[name] += elapsed
            calls[name] += 1
            self_time[layer] += elapsed - span[_CHILDREN]
            if name in ("harvester.ingest", "auditor.audit", "cli.run"):
                self_time[name] += elapsed - span[_CHILDREN]

        def ms(seconds: float) -> float:
            return seconds * 1000.0 * scale / objects

        requests = server["requests"]
        values = {
            "navigator.head_calls_per_object": self.requests[("navigator", "HEAD")] / objects,
            "navigator.get_calls_per_object": self.requests[("navigator", "GET")] / objects,
            "navigator.self_ms_per_object": ms(self_time["navigator"]),
            "navigator.proxy_lookup_ms_per_object": ms(duration["navigator.proxy_lookup"]),
            "navigator.throttle_wait_ms_per_object": ms(duration["navigator.throttle_wait"]),
            "links.parse_ms_per_object": ms(duration["links.parse_link_field"]),
            "resources.self_ms_per_object": ms(self_time["resources"]),
            "resourcesync.feed_parse_ms_per_object": ms(
                duration["resourcesync.parse_change_list"]
            ),
            "resourcesync.unpack_ms_per_object": ms(
                duration["resourcesync.unpack_change_dump"]
            ),
            "resourcesync.unpack_calls_per_run": calls["resourcesync.unpack_change_dump"]
            / max(runs, 1),
            "crossref.fetch_work_ms_per_object": ms(duration["crossref.fetch_work"]),
            "crossref.calls_per_object": calls["crossref.fetch_work"] / objects,
            "bibliography.self_ms_per_object": ms(self_time["bibliography"]),
            "harvester.store_payload_ms_per_object": ms(duration["harvester.store_payload"]),
            "harvester.save_record_ms_per_object": ms(duration["harvester.save_record"]),
            "harvester.fsck_ms_per_object": ms(duration["harvester.fsck"]),
            "harvester.self_ms_per_object": ms(self_time["harvester.ingest"]),
            "auditor.self_ms_per_object": ms(self_time["auditor.audit"]),
            "cli.self_ms_per_object": ms(self_time["cli.run"]),
            "fixtures.server_cpu_ms_per_request": server["cpu_s"] * 1000.0 * scale
            / max(requests, 1),
        }
        return values
