"""Minimal NCBI E-utilities client: esearch + efetch/esummary with
disk caching, request-rate ceiling, and bounded retry on 429.

The client is optional at runtime; everything downstream works from
files.  The base URL is configurable so tests replay recorded payloads
from a local fixture server.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

from litclust.errors import ConfigError, EmptyResult, NetworkError, RateLimited

log = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "https://eutils.ncbi.nlm.nih.gov/entrez/eutils"
_DATABASES = ("pubmed", "pmc", "gene")


class NcbiClient:
    """Serialized HTTP access to esearch.fcgi / efetch.fcgi / esummary.fcgi.

    Responses are cached on disk keyed by (db, query, max_records), so a
    replayed fetch is byte-identical and touches no network.
    """

    def __init__(
        self,
        endpoint: str | None = None,
        cache_dir: str | Path | None = None,
        api_key: str | None = None,
        requests_per_second: float = 3.0,
        max_attempts: int = 4,
        timeout: float = 30.0,
    ):
        if endpoint is None:
            endpoint = os.environ.get("NCBI_EUTILS_ENDPOINT", DEFAULT_ENDPOINT)
        self.endpoint = endpoint.rstrip("/")
        if cache_dir is None:
            cache_dir = os.environ.get("LITCLUST_CACHE")
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.api_key = api_key or os.environ.get("NCBI_API_KEY")
        self.requests_per_second = requests_per_second
        self.max_attempts = max_attempts
        self.timeout = timeout
        self._last_request = 0.0

    def fetch(self, query: str, db: str, max_records: int) -> bytes:
        """Search then fetch raw records for ``query`` against ``db``.

        pubmed/pmc return efetch XML; gene returns esummary JSON (the
        form that carries symbol, aliases, and description).
        """
        if db not in _DATABASES:
            raise ConfigError(f"db must be one of {_DATABASES}, got {db!r}")
        if max_records < 1:
            raise ConfigError(f"max_records must be >= 1, got {max_records}")

        cached = self._cache_read(db, query, max_records)
        if cached is not None:
            return cached

        ids = self.esearch(db, query, max_records)
        if not ids:
            raise EmptyResult(f"query {query!r} matched no records in {db}")
        if db == "gene":
            payload = self.esummary(db, ids)
        else:
            payload = self.efetch(db, ids, rettype="abstract", retmode="xml")
        self._cache_write(db, query, max_records, payload)
        return payload

    def esearch(self, db: str, query: str, max_records: int) -> list[str]:
        raw = self._get(
            "esearch.fcgi",
            {"db": db, "term": query, "retmax": str(max_records), "retmode": "json"},
        )
        try:
            ids = json.loads(raw)["esearchresult"].get("idlist", [])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise NetworkError(f"unparseable esearch response: {exc}") from exc
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise NetworkError(f"unparseable esearch response: 'idlist' is {ids!r}, not a list of strings")
        return ids

    def efetch(self, db: str, ids: list[str], rettype: str, retmode: str) -> bytes:
        return self._get(
            "efetch.fcgi",
            {"db": db, "id": ",".join(ids), "rettype": rettype, "retmode": retmode},
        )

    def esummary(self, db: str, ids: list[str]) -> bytes:
        return self._get(
            "esummary.fcgi",
            {"db": db, "id": ",".join(ids), "retmode": "json", "version": "2.0"},
        )

    # -- plumbing --------------------------------------------------------

    def _get(self, tool: str, params: dict) -> bytes:
        if self.api_key:
            params = {**params, "api_key": self.api_key}
        url = f"{self.endpoint}/{tool}?{urllib.parse.urlencode(params)}"
        delay = 1.0
        for attempt in range(1, self.max_attempts + 1):
            self._throttle()
            try:
                with urllib.request.urlopen(url, timeout=self.timeout) as resp:
                    return resp.read()
            except urllib.error.HTTPError as exc:
                if exc.code == 429 and attempt < self.max_attempts:
                    log.warning("rate limited by %s, retrying in %.1fs", tool, delay)
                    time.sleep(delay)
                    delay *= 2
                    continue
                if exc.code == 429:
                    raise RateLimited(f"{tool}: still rate limited after {attempt} attempts") from exc
                raise NetworkError(f"{tool}: HTTP {exc.code}") from exc
            except urllib.error.URLError as exc:
                if attempt < self.max_attempts:
                    time.sleep(delay)
                    delay *= 2
                    continue
                raise NetworkError(f"{tool}: {exc.reason}") from exc
        raise NetworkError(f"{tool}: retry budget exhausted")  # pragma: no cover

    def _throttle(self) -> None:
        if self.requests_per_second <= 0:
            return
        min_interval = 1.0 / self.requests_per_second
        elapsed = time.monotonic() - self._last_request
        if elapsed < min_interval:
            time.sleep(min_interval - elapsed)
        self._last_request = time.monotonic()

    def _cache_path(self, db: str, query: str, max_records: int) -> Path | None:
        if self.cache_dir is None:
            return None
        key = hashlib.sha256(f"{db}\x00{query}\x00{max_records}".encode()).hexdigest()
        return self.cache_dir / f"{db}-{key[:24]}.bin"

    def _cache_read(self, db: str, query: str, max_records: int) -> bytes | None:
        path = self._cache_path(db, query, max_records)
        if path is not None and path.exists():
            return path.read_bytes()
        return None

    def _cache_write(self, db: str, query: str, max_records: int, payload: bytes) -> None:
        path = self._cache_path(db, query, max_records)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # Written beside the entry, flushed to disk and renamed over it,
        # so neither a write cut short nor a machine crash after the
        # rename leaves a truncated entry for _cache_read to replay.
        fd, name = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
        tmp = Path(name)
        try:
            try:
                tmp.write_bytes(payload)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
