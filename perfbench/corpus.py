"""Seeded corpora for the benchmark workloads, the change dump built from
one of them, and what `sgp` must make of each object or entry.

Everything here runs in the stand-in's process: the client that drives
`sgp` only ever sees the served resources, the feeds, the dump file and
the expectations computed below.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import random
from datetime import datetime, timedelta, timezone

from sgp.fixity import compute_fixity
from sgp.fixtures import (
    ABLATION_RECOMMENDATION,
    FixtureSpec,
    degrade,
    landing_spec,
    plos_spec,
)
from sgp.resources import SEM_ARTICLE, SEM_DATASET
from sgp.resourcesync import (
    ChangeKind,
    emit_publisher_event,
    emit_resource_event,
    pack_change_dump,
)
from sgp.rfc3339 import format_rfc3339, parse_rfc3339

WORKLOADS = ("harvest-live", "replay-dump", "audit")
# faults the check of the checks can plant, and the workload each applies to
PLANTS = {"payload": "harvest-live", "dump-byte": "replay-dump"}

LIVE_OBJECTS = 60
DUMP_OBJECTS = 80
AUDIT_OBJECTS_PER_HOST = 10
# log-spaced PDF sizes, the same multiset on every seed
PDF_MIN_BYTES = 4 * 1024
PDF_MAX_BYTES = 384 * 1024
# share of harvest-live objects whose entry page carries no describedby
# links, so their registrar record comes from the works API
NO_DESCRIBEDBY_SHARE = 0.25
# the auditor inspects this many feed events per feed (Auditor(sample=5))
AUDIT_SAMPLE = 5
# on these hosts the R5 verdict does not depend on the entry's feed position
_R5_DECIDED = frozenset({"empty-publisher-feed", "publisher-loc-not-entry"})
_SELF_CONTENT = (SEM_ARTICLE, SEM_DATASET)


def _pdf_sizes(count: int) -> list[int]:
    ratio = PDF_MAX_BYTES / PDF_MIN_BYTES
    return [round(PDF_MIN_BYTES * ratio ** (i / (count - 1))) for i in range(count)]


def _pdf_text(rng: random.Random, size: int) -> str:
    # base64 of random bytes: incompressible like a real PDF, and valid UTF-8
    head = "%PDF-1.4 "
    noise = base64.b64encode(rng.randbytes(size)).decode("ascii")
    return (head + noise)[:size]


def _object_spec(
    rng: random.Random,
    token: str,
    pattern: str,
    pdf_size: int,
    ablations: tuple[str, ...],
) -> FixtureSpec:
    base = plos_spec() if pattern == "plos" else landing_spec()
    root = f"/{token}"
    pdf, *others = base.assets
    assets = [
        dataclasses.replace(
            pdf, path=root + pdf.path, body_text=_pdf_text(rng, pdf_size), pad_to=None
        )
    ]
    assets += [
        dataclasses.replace(
            asset,
            path=root + asset.path,
            body_text=asset.body_text.replace("fixture", f"fixture {token}"),
        )
        for asset in others
    ]
    # a distinct second within the bibliographic year keeps the registrar's
    # issued year equal to the publisher's and gives the feed a strict order
    start = datetime(base.bib["year"], 1, 1, tzinfo=timezone.utc)
    deposited = format_rfc3339(start + timedelta(seconds=rng.randrange(365 * 86400)))
    spec = dataclasses.replace(
        base,
        doi=f"10.5555/{token}",
        entry_path=root + base.entry_path,
        assets=tuple(assets),
        bib=dict(base.bib, title=f"{base.bib['title']} {token}"),
        deposited=deposited,
    )
    for key in ablations:
        spec = degrade(spec, key)
    return spec


def _objects(
    rng: random.Random,
    prefix: str,
    count: int,
    *,
    host_ablations: tuple[str, ...] = (),
    no_describedby: int = 0,
) -> list[FixtureSpec]:
    patterns = ["plos", "landing"] * (count // 2) + ["plos"] * (count % 2)
    rng.shuffle(patterns)
    sizes = _pdf_sizes(count)
    rng.shuffle(sizes)
    bare = set(rng.sample(range(count), no_describedby))
    specs = []
    deposited: set[str] = set()
    for index in range(count):
        ablations = host_ablations
        if index in bare:
            ablations += ("no-entry-describedby",)
        while True:
            token = f"{prefix}{index:03d}x{rng.getrandbits(32):08x}"
            spec = _object_spec(rng, token, patterns[index], sizes[index], ablations)
            if spec.deposited not in deposited:
                break
        deposited.add(spec.deposited)
        specs.append(spec)
    return specs


def host_specs(workload: str, seed: int) -> list[tuple[str | None, list[FixtureSpec]]]:
    """(ablation key or None, specs) for each stand-in host."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "harvest-live":
        bare = round(LIVE_OBJECTS * NO_DESCRIBEDBY_SHARE)
        return [(None, _objects(rng, "h", LIVE_OBJECTS, no_describedby=bare))]
    if workload == "replay-dump":
        return [(None, _objects(rng, "d", DUMP_OBJECTS))]
    if workload == "audit":
        keys = [None, *sorted(ABLATION_RECOMMENDATION)]
        return [
            (
                key,
                _objects(
                    rng,
                    f"a{number:02d}",
                    AUDIT_OBJECTS_PER_HOST,
                    host_ablations=(key,) if key else (),
                ),
            )
            for number, key in enumerate(keys)
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------- served bytes


def _body(view, path: str) -> bytes:
    response = view.route(path, lambda links: ())
    if response is None or response.status != 200:
        raise ValueError(f"the stand-in does not serve {path}")
    return response.body


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _publication_paths(spec: FixtureSpec) -> list[str]:
    paths = [spec.entry_path] if spec.entry_sem_type in _SELF_CONTENT else []
    return paths + [asset.path for asset in spec.assets]


def _document_paths(view) -> list[str]:
    spec = view.spec
    return [f"/works/{spec.doi}", view.bibtex_path, view.ris_path]


def plant_payload_fault(spec: FixtureSpec) -> FixtureSpec:
    """The same object with one byte of its PDF changed, length kept."""
    pdf, *others = spec.assets
    text = pdf.body_text
    flipped = text[:-1] + ("A" if text[-1] != "A" else "B")
    return dataclasses.replace(
        spec, assets=(dataclasses.replace(pdf, body_text=flipped), *others)
    )


def ingest_expectations(endpoint, specs: list[FixtureSpec], *, dump: bool) -> list[dict]:
    """What each record must say, computed from the specs as bound to the
    endpoint's base URI. `specs` may differ from what the endpoint serves
    when a fault is planted."""
    expected = []
    for view, spec in zip(endpoint.views, specs):
        view = type(view)(view.base_uri, spec)
        expected.append(
            {
                "entry": view.entry_uri,
                "key": view.doi_uri,
                "doi": spec.doi.lower(),
                "title": spec.bib["title"],
                "publication": {
                    view.uri(path): _sha(_body(view, path))
                    for path in _publication_paths(spec)
                },
                "documents": {
                    view.uri(path): _sha(_body(view, path))
                    for path in _document_paths(view)
                },
                # a dump replay reads the describedby links off the feed
                # event, a live harvest off the entry page
                "bib_linked": dump or "no-entry-describedby" not in spec.ablations,
            }
        )
    return expected


def audit_expectations(hosts, endpoints) -> list[dict]:
    expected = []
    for (key, specs), endpoint in zip(hosts, endpoints):
        failing = [ABLATION_RECOMMENDATION[key]] if key else []
        in_feed = key != "empty-publisher-feed"
        order = sorted(range(len(specs)), key=lambda i: specs[i].deposited)
        rank = {index: position for position, index in enumerate(order)}
        for index, view in enumerate(endpoint.views):
            expected.append(
                {
                    "entry": view.entry_uri,
                    "host": key or "compliant",
                    "failed": failing,
                    # the entry's own event lies beyond the events the
                    # auditor samples, so R5 wrongly fails
                    "known_r5_fault": in_feed
                    and key not in _R5_DECIDED
                    and rank[index] >= AUDIT_SAMPLE,
                }
            )
    return expected


def build_dump(endpoint, *, plant: bool = False) -> bytes:
    """One change dump holding every object the endpoint serves, with
    fixity on every member. With `plant`, one byte of the first object's
    PDF member differs from what its manifest fixity records."""
    entries = []
    for number, view in enumerate(endpoint.views):
        spec = view.spec
        obj = view.scholarly_object()
        when = parse_rfc3339(spec.deposited)
        entry_uri = view.entry_uri
        entry_body = _body(view, spec.entry_path)
        trigger = emit_publisher_event(obj, ChangeKind.CREATED, when)
        entries.append(
            (dataclasses.replace(trigger, fixity=compute_fixity(entry_body)), entry_body)
        )
        for asset in spec.assets:
            body = _body(view, asset.path)
            event = emit_resource_event(
                view.uri(asset.path),
                entry_uri=entry_uri,
                kind=ChangeKind.CREATED,
                when=when,
                identifying_uri=obj.identifying_uri,
                fixity=compute_fixity(body),
                sem_type=asset.sem_type,
            )
            if plant and number == 0 and asset is spec.assets[0]:
                body = body[:-1] + bytes([body[-1] ^ 0x01])
            entries.append((event, body))
        for path in _document_paths(view):
            body = _body(view, path)
            event = emit_resource_event(
                view.uri(path),
                entry_uri=entry_uri,
                kind=ChangeKind.CREATED,
                when=when,
                identifying_uri=obj.identifying_uri,
                fixity=compute_fixity(body),
            )
            entries.append((event, body))
    return pack_change_dump(entries)
