import io
import json
import os
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

from litclust.errors import ConfigError, EmptyResult, NetworkError, RateLimited
from litclust.ncbi import NcbiClient
from litclust.probe import parse_gene_summaries

DATA = Path(__file__).parent / "data"

GENE_PAYLOAD = (DATA / "gene_esummary.json").read_bytes()
PUBMED_PAYLOAD = (DATA / "pubmed_two_records.xml").read_bytes()


class _Handler(BaseHTTPRequestHandler):
    """Replays canned payloads; the server object tracks hit counts."""

    def do_GET(self):
        parsed = urlparse(self.path)
        params = parse_qs(parsed.query)
        server = self.server
        server.hits.append(parsed.path)

        if server.fail_with_429 > 0:
            server.fail_with_429 -= 1
            self.send_response(429)
            self.end_headers()
            return

        if parsed.path.endswith("esearch.fcgi"):
            ids = server.search_ids.get(params["db"][0], [])
            retmax = int(params["retmax"][0])
            body = json.dumps(
                {"esearchresult": {"idlist": ids[:retmax], "count": str(len(ids))}}
            ).encode()
        elif parsed.path.endswith("esummary.fcgi"):
            body = GENE_PAYLOAD
        elif parsed.path.endswith("efetch.fcgi"):
            body = PUBMED_PAYLOAD
        else:
            self.send_response(404)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def fixture_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.hits = []
    server.fail_with_429 = 0
    server.search_ids = {
        "gene": ["672", "675", "7157", "2064", "1026", "5241", "2099", "367", "580", "896"],
        "pubmed": ["10000001", "10000002"],
    }
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def _client(server, **kwargs):
    kwargs.setdefault("requests_per_second", 0)  # no throttling in tests
    return NcbiClient(endpoint=f"http://127.0.0.1:{server.server_address[1]}", **kwargs)


def test_fetch_gene_payload_and_parse(fixture_server, tmp_path):
    client = _client(fixture_server, cache_dir=tmp_path)
    payload = client.fetch('Breast Cancer AND "Homo sapiens"', db="gene", max_records=10)
    entries = parse_gene_summaries(payload)
    assert len(entries) == 10
    symbols = {e.symbol for e in entries}
    assert "BRCA1" in symbols and "TP53" in symbols
    assert all(e.description for e in entries)


def test_cache_replay_is_byte_identical(fixture_server, tmp_path):
    client = _client(fixture_server, cache_dir=tmp_path)
    first = client.fetch("breast neoplasms", db="pubmed", max_records=2)
    hits_after_first = len(fixture_server.hits)
    second = client.fetch("breast neoplasms", db="pubmed", max_records=2)
    assert first == second
    # Second call served from cache: no extra requests.
    assert len(fixture_server.hits) == hits_after_first


def test_cache_write_failing_part_way_leaves_no_entry(fixture_server, tmp_path, monkeypatch):
    real_write_bytes = Path.write_bytes

    def write_half_then_fail(self, data):
        real_write_bytes(self, data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    client = _client(fixture_server, cache_dir=tmp_path / "cache")
    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    with pytest.raises(OSError):
        client.fetch("breast neoplasms", db="pubmed", max_records=2)
    monkeypatch.undo()
    assert list((tmp_path / "cache").iterdir()) == []
    hits = len(fixture_server.hits)
    assert client.fetch("breast neoplasms", db="pubmed", max_records=2) == PUBMED_PAYLOAD
    assert len(fixture_server.hits) > hits
    # The completed write is the entry the next fetch replays.
    assert [p.suffix for p in (tmp_path / "cache").iterdir()] == [".bin"]


def test_cache_entry_is_flushed_to_disk_before_the_rename(fixture_server, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        # The temporary file's inode, its contents, and the entries visible
        # at the moment of the flush.
        synced.append((os.fstat(fd).st_ino, os.pread(fd, 1 << 20, 0), sorted(p.name for p in cache.iterdir())))
        real_fsync(fd)

    client = _client(fixture_server, cache_dir=cache)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    assert client.fetch("breast neoplasms", db="pubmed", max_records=2) == PUBMED_PAYLOAD
    (entry,) = cache.iterdir()
    assert len(synced) == 1
    inode, contents, visible = synced[0]
    # The flushed descriptor is the file renamed into place, flushed
    # complete while it still had its temporary name.
    assert inode == entry.stat().st_ino
    assert contents == PUBMED_PAYLOAD
    assert len(visible) == 1 and visible[0].endswith(".tmp")


def test_max_records_zero_rejected(fixture_server):
    client = _client(fixture_server)
    with pytest.raises(ConfigError):
        client.fetch("anything", db="pubmed", max_records=0)


def test_unknown_db_rejected(fixture_server):
    with pytest.raises(ConfigError):
        _client(fixture_server).fetch("x", db="protein", max_records=1)


def test_empty_search_result(fixture_server):
    fixture_server.search_ids["pubmed"] = []
    client = _client(fixture_server)
    with pytest.raises(EmptyResult):
        client.fetch("nonsense query", db="pubmed", max_records=5)


def test_retry_then_success_on_429(fixture_server, tmp_path):
    fixture_server.fail_with_429 = 1
    client = _client(fixture_server, cache_dir=tmp_path, max_attempts=3)
    # Patch out the backoff sleep to keep the test fast.
    import litclust.ncbi as ncbi_mod

    original_sleep = ncbi_mod.time.sleep
    ncbi_mod.time.sleep = lambda s: None
    try:
        payload = client.fetch("breast neoplasms", db="pubmed", max_records=2)
    finally:
        ncbi_mod.time.sleep = original_sleep
    assert payload == PUBMED_PAYLOAD


def test_rate_limited_after_budget(fixture_server):
    fixture_server.fail_with_429 = 99
    client = _client(fixture_server, max_attempts=2)
    import litclust.ncbi as ncbi_mod

    original_sleep = ncbi_mod.time.sleep
    ncbi_mod.time.sleep = lambda s: None
    try:
        with pytest.raises(RateLimited):
            client.fetch("breast neoplasms", db="pubmed", max_records=2)
    finally:
        ncbi_mod.time.sleep = original_sleep


def test_connection_refused_is_network_error(tmp_path):
    client = NcbiClient(
        endpoint="http://127.0.0.1:9",  # discard port; nothing listens
        requests_per_second=0,
        max_attempts=1,
        timeout=0.5,
    )
    with pytest.raises(NetworkError):
        client.fetch("x", db="pubmed", max_records=1)


def test_env_endpoint_override(monkeypatch):
    monkeypatch.setenv("NCBI_EUTILS_ENDPOINT", "http://replay.example/eutils/")
    client = NcbiClient()
    assert client.endpoint == "http://replay.example/eutils"


class _Replay:
    """Stands in for ``urlopen`` and the clock: each request takes
    ``request_s`` on the fake clock and gets the next of ``replies``, a
    body or an exception to raise; ``sleep`` advances the clock."""

    def __init__(self, monkeypatch, replies, request_s=0.0):
        import litclust.ncbi as ncbi_mod

        self.now = 100.0
        self.request_s = request_s
        self.replies = list(replies)
        self.urls, self.started, self.slept = [], [], []
        monkeypatch.setattr(ncbi_mod.time, "monotonic", lambda: self.now)
        monkeypatch.setattr(ncbi_mod.time, "sleep", self.sleep)
        monkeypatch.setattr(ncbi_mod.urllib.request, "urlopen", self.urlopen)

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds

    def urlopen(self, url, timeout):
        self.urls.append(url)
        self.started.append(self.now)
        self.now += self.request_s
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return io.BytesIO(reply)


def _esearch_body(ids):
    return json.dumps({"esearchresult": {"idlist": ids}}).encode()


def test_throttle_spaces_requests_by_the_rate(monkeypatch):
    replay = _Replay(monkeypatch, [_esearch_body(["1"])] * 4, request_s=0.1)
    client = NcbiClient(endpoint="http://replay.invalid", requests_per_second=2)
    for _ in range(3):
        assert client.esearch("pubmed", "q", 1) == ["1"]
    # The first request waits for nothing; each later one starts 0.5 s
    # after the one before.
    assert replay.started == pytest.approx([100.0, 100.5, 101.0])
    assert replay.slept == pytest.approx([0.4, 0.4])
    # A request made after a longer pause than the interval does not wait.
    replay.now += 2.0
    client.esearch("pubmed", "q", 1)
    assert replay.slept == pytest.approx([0.4, 0.4])


def test_url_error_is_retried_with_backoff_then_raises_network_error(monkeypatch):
    refused = urllib.error.URLError("connection refused")
    replay = _Replay(monkeypatch, [refused] * 3)
    client = NcbiClient(endpoint="http://replay.invalid", requests_per_second=0, max_attempts=3)
    with pytest.raises(NetworkError, match="esearch.fcgi: connection refused"):
        client.esearch("pubmed", "q", 1)
    assert len(replay.urls) == 3
    assert replay.slept == [1.0, 2.0]


def test_url_error_then_success(monkeypatch):
    replay = _Replay(monkeypatch, [urllib.error.URLError("reset"), _esearch_body(["7"])])
    client = NcbiClient(endpoint="http://replay.invalid", requests_per_second=0, max_attempts=3)
    assert client.esearch("pubmed", "q", 1) == ["7"]
    assert replay.slept == [1.0]


@pytest.mark.parametrize("status", [400, 404, 500, 503])
def test_http_status_other_than_429_fails_after_one_attempt(monkeypatch, status):
    error = urllib.error.HTTPError("http://replay.invalid", status, "failed", None, None)
    replay = _Replay(monkeypatch, [error] * 4)
    client = NcbiClient(endpoint="http://replay.invalid", requests_per_second=0, max_attempts=4)
    with pytest.raises(NetworkError, match=f"esearch.fcgi: HTTP {status}") as raised:
        client.esearch("pubmed", "q", 1)
    assert not isinstance(raised.value, RateLimited)
    assert len(replay.urls) == 1
    assert replay.slept == []


@pytest.mark.parametrize("from_env", [False, True], ids=["argument", "environment"])
def test_api_key_is_sent_on_every_request(monkeypatch, from_env):
    replay = _Replay(monkeypatch, [_esearch_body(["672", "675"]), GENE_PAYLOAD])
    if from_env:
        monkeypatch.setenv("NCBI_API_KEY", "s3cret")
        client = NcbiClient(endpoint="http://replay.invalid", requests_per_second=0)
    else:
        monkeypatch.delenv("NCBI_API_KEY", raising=False)
        client = NcbiClient(endpoint="http://replay.invalid", api_key="s3cret", requests_per_second=0)
    assert client.fetch("brca", db="gene", max_records=2) == GENE_PAYLOAD
    assert [urlparse(url).path for url in replay.urls] == ["/esearch.fcgi", "/esummary.fcgi"]
    assert all(parse_qs(urlparse(url).query)["api_key"] == ["s3cret"] for url in replay.urls)


def test_no_api_key_is_sent_without_one(monkeypatch):
    monkeypatch.delenv("NCBI_API_KEY", raising=False)
    replay = _Replay(monkeypatch, [_esearch_body(["1"])])
    NcbiClient(endpoint="http://replay.invalid", requests_per_second=0).esearch("pubmed", "q", 1)
    assert "api_key" not in parse_qs(urlparse(replay.urls[0]).query)


@pytest.mark.parametrize(
    "body",
    [
        b"{not json",
        b"\xff\xfe\xfa",
        b'{"header": {}}',
        b"[1, 2]",
        b'{"esearchresult": 5}',
        b'{"esearchresult": {"idlist": "672"}}',
        b'{"esearchresult": {"idlist": [672]}}',
    ],
    ids=["not-json", "not-utf8", "no-result", "list", "result-number", "idlist-string", "idlist-numbers"],
)
def test_unparseable_esearch_body_is_network_error(monkeypatch, body):
    _Replay(monkeypatch, [body])
    client = NcbiClient(endpoint="http://replay.invalid", requests_per_second=0)
    with pytest.raises(NetworkError, match="unparseable esearch response"):
        client.fetch("q", db="pubmed", max_records=1)
