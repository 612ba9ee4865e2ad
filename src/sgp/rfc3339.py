"""RFC 3339 timestamp helpers.

Python 3.10's ``fromisoformat`` rejects the trailing ``Z`` that web feeds
use everywhere, and any fraction of a second other than 3 or 6 digits, so
we normalise both ourselves. All timestamps in this package are
timezone-aware UTC at whole-second precision.

Both conversions are cached: a feed, a dump manifest and the records
built from them carry the same few stamps many times over, and the
values are immutable. A failed conversion raises anew on every call.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from functools import lru_cache

__all__ = ["parse_rfc3339", "format_rfc3339", "utcnow"]

# a fraction of the seconds, and only there: anything else is left for
# fromisoformat to reject
_FRACTION = re.compile(r"(?<=[0-9]{2}:[0-9]{2}:[0-9]{2})\.[0-9]+(?=[Zz+-]|\Z)")

# distinct stamps held by each cache
_CACHED = 1024


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime.

    Accepts a trailing ``Z`` or a numeric offset; naive input is taken as
    UTC. Sub-second digits are dropped. Raises ValueError on garbage.
    """
    # a value that is no str fails in _parse as it always has, unhashable
    # or not
    return _parse_cached(text) if isinstance(text, str) else _parse(text)


def _parse(text: str) -> datetime:
    raw = text.strip()
    if "." in raw:
        raw = _FRACTION.sub("", raw, count=1)
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


_parse_cached = lru_cache(maxsize=_CACHED)(_parse)


@lru_cache(maxsize=_CACHED)
def format_rfc3339(dt: datetime) -> str:
    """Render an aware datetime as ``YYYY-MM-DDThh:mm:ssZ``."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    dt = dt.astimezone(timezone.utc).replace(microsecond=0)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def utcnow() -> datetime:
    """Current UTC time at second precision."""
    return datetime.now(timezone.utc).replace(microsecond=0)
