"""Raw-socket helpers for the twin's front door, and the malformed table.

:data:`MALFORMED` lists requests the twin must answer with a JSON 4xx;
``tests/test_twin.py`` sends them to an in-process server, and CI's
``twin-smoke`` job sends them to the sharded out-of-process one::

    PYTHONPATH=src python -m tests.twin_wire http://127.0.0.1:8787

The command creates one session, sends every request of the table over
its own connection, deletes the session, and exits non-zero naming
each request that got anything but a well-formed JSON 4xx.
"""

import json
import socket
import sys
from typing import Callable, List, Tuple
from urllib.parse import urlsplit

#: the session the malformed requests address (small and fast).
CONFIG = {"kind": "cluster", "scale": "tiny", "seed": 7, "jobs": 8}


def raw_request(method: str, target: str, body: bytes = b"",
                headers: Tuple[str, ...] = ()) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: localhost",
             "Connection: close", *headers]
    if body and not any(h.lower().startswith("content-length")
                        for h in headers):
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _post(path: str, payload: object) -> bytes:
    return raw_request("POST", path, json.dumps(payload).encode())


#: ``(label, sid -> raw request bytes)``; *sid* is a live session.
MALFORMED: List[Tuple[str, Callable[[str], bytes]]] = [
    ("advance body [1]",
     lambda sid: _post(f"/sessions/{sid}/advance", [1])),
    ("advance steps 'x'",
     lambda sid: _post(f"/sessions/{sid}/advance", {"steps": "x"})),
    ("pace body [0]",
     lambda sid: _post(f"/sessions/{sid}/pace", [0])),
    ("pace dt_s 'x'",
     lambda sid: _post(f"/sessions/{sid}/pace", {"dt_s": "x"})),
    ("stream start=x",
     lambda sid: raw_request(
         "GET", f"/sessions/{sid}/telemetry/stream?start=x")),
    ("create with pace dt_s 'x'",
     lambda sid: _post("/sessions", {"config": CONFIG, "id": sid + "-p",
                                     "pace": {"dt_s": "x"}})),
    ("Content-Length: abc",
     lambda sid: raw_request("POST", f"/sessions/{sid}/advance", b"{}",
                             ("Content-Length: abc",))),
    ("Content-Length: -4",
     lambda sid: raw_request("POST", f"/sessions/{sid}/advance", b"{}",
                             ("Content-Length: -4",))),
    ("70,000-byte request line",
     lambda sid: raw_request("GET", "/" + "a" * 70_000)),
]


def exchange(host: str, port: int, data: bytes,
             timeout_s: float = 60.0) -> bytes:
    """Send *data*, half-close, and read until the server closes."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def parse_responses(data: bytes) -> List[Tuple[int, dict, bytes]]:
    """Split a byte stream into ``(status, headers, body)`` responses;
    raises ``ValueError`` on anything that is not well-formed."""
    responses = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        if not sep:
            raise ValueError(f"truncated response head: {data[:80]!r}")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = status_line.split(" ", 2)
        if version != "HTTP/1.1" or not status.isdecimal():
            raise ValueError(f"bad status line {status_line!r}")
        headers = {}
        for line in header_lines:
            name, colon, value = line.partition(":")
            if not colon:
                raise ValueError(f"bad header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding") == "chunked":
            body = b""
            while True:
                size_line, sep, rest = rest.partition(b"\r\n")
                if not sep:
                    raise ValueError("truncated chunk size")
                size = int(size_line, 16)
                chunk, rest = rest[:size], rest[size:]
                if len(chunk) != size or rest[:2] != b"\r\n":
                    raise ValueError("truncated chunk")
                rest = rest[2:]
                if size == 0:
                    break
                body += chunk
        else:
            length = int(headers["content-length"])
            body, rest = rest[:length], rest[length:]
            if len(body) != length:
                raise ValueError("truncated body")
        responses.append((int(status), headers, body))
        data = rest
    return responses


def json_4xx(data: bytes) -> str:
    """The error message of a single JSON 4xx response in *data*;
    raises ``AssertionError`` for anything else."""
    responses = parse_responses(data)
    assert len(responses) == 1, responses
    status, headers, body = responses[0]
    assert 400 <= status < 500, (status, body)
    assert headers["content-type"] == "application/json", headers
    return json.loads(body)["error"]


def check_server(url: str) -> List[str]:
    """Send :data:`MALFORMED` to the server at *url*; returns the
    labels of the requests that did not get a JSON 4xx."""
    from repro.twin import TwinClient

    split = urlsplit(url)
    client = TwinClient(url)
    client.wait_ready(timeout_s=30)
    sid = "malformed"
    client.create_session(CONFIG, session_id=sid)
    failures = []
    for label, build in MALFORMED:
        try:
            message = json_4xx(exchange(split.hostname, split.port,
                                        build(sid)))
        except (AssertionError, ValueError, KeyError, OSError) as exc:
            failures.append(f"{label}: {exc!r}")
            continue
        print(f"{label}: {message}")
    leftover = {s["id"] for s in client.sessions()} - {sid}
    if leftover:
        failures.append(f"rejected requests left sessions {leftover}")
    client.delete_session(sid)
    return failures


if __name__ == "__main__":
    failed = check_server(sys.argv[1])
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    sys.exit(1 if failed else 0)
