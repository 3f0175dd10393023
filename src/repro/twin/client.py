"""Blocking stdlib client for the twin service.

Used by the tests, the demo, and CI's smoke job — anything that
drives a twin from synchronous code.  One ``http.client`` connection
per request (the server supports keep-alive but a fresh connection
keeps the client trivially robust); :meth:`TwinClient.stream` holds
its own connection open and yields NDJSON snapshots as the server
cuts them.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import urlencode, urlsplit

__all__ = ["TwinClient", "TwinClientError"]


class TwinClientError(Exception):
    """Server-reported failure (HTTP status + error message)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message


class TwinClient:
    def __init__(self, base_url: str, timeout_s: float = 60.0):
        split = urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {split.scheme!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout_s = timeout_s

    # -- plumbing --------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s)

    def request(self, method: str, path: str,
                payload: Optional[Any] = None) -> Any:
        connection = self._connect()
        try:
            body = None
            headers = {"Connection": "close"}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body,
                               headers=headers)
            return _read(connection.getresponse())
        finally:
            connection.close()

    def wait_ready(self, timeout_s: float = 15.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                self.request("GET", "/healthz")
                return
            except (OSError, TwinClientError):
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"twin at {self.host}:{self.port} not ready "
                        f"after {timeout_s}s")
                time.sleep(0.05)

    # -- service ---------------------------------------------------------
    def version(self) -> str:
        return self.request("GET", "/version")["version"]

    def sessions(self) -> List[Dict[str, Any]]:
        return self.request("GET", "/sessions")["sessions"]

    # -- session lifecycle ----------------------------------------------
    def create_session(self, config: Optional[Dict[str, Any]] = None,
                       session_id: Optional[str] = None,
                       pace: Optional[Dict[str, float]] = None
                       ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"config": config or {}}
        if session_id is not None:
            body["id"] = session_id
        if pace is not None:
            body["pace"] = pace
        return self.request("POST", "/sessions", body)

    def session(self, session_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/sessions/{session_id}")

    def delete_session(self, session_id: str) -> Dict[str, Any]:
        return self.request("DELETE", f"/sessions/{session_id}")

    # -- the operator loop ----------------------------------------------
    def advance(self, session_id: str, dt_s: float = 60.0,
                steps: int = 1) -> List[Dict[str, Any]]:
        return self.request(
            "POST", f"/sessions/{session_id}/advance",
            {"dt_s": dt_s, "steps": steps})["snapshots"]

    def action(self, session_id: str,
               action: Dict[str, Any]) -> Dict[str, Any]:
        return self.request(
            "POST", f"/sessions/{session_id}/actions",
            action)["queued"]

    def action_log(self, session_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/sessions/{session_id}/actions")

    def digest(self, session_id: str) -> str:
        return self.request(
            "GET", f"/sessions/{session_id}/digest")["digest"]

    def verify_replay(self, session_id: str) -> Dict[str, Any]:
        return self.request("POST", f"/sessions/{session_id}/replay")

    def pace(self, session_id: str, dt_s: float = 60.0,
             interval_s: float = 1.0) -> Dict[str, Any]:
        return self.request("POST", f"/sessions/{session_id}/pace",
                            {"dt_s": dt_s, "interval_s": interval_s})

    def stop_pace(self, session_id: str) -> Dict[str, Any]:
        return self.request("POST", f"/sessions/{session_id}/pace",
                            {"stop": True})

    # -- telemetry -------------------------------------------------------
    def telemetry(self, session_id: str,
                  start: int = 0) -> List[Dict[str, Any]]:
        """All archived snapshots from ``start`` (no tailing)."""
        return list(self.stream(session_id, start=start, follow=False))

    def stream(self, session_id: str, start: int = 0,
               follow: bool = False,
               max_snapshots: Optional[int] = None
               ) -> Iterator[Dict[str, Any]]:
        """Yield NDJSON snapshots; with ``follow`` the connection stays
        open and yields new boundaries as the session advances."""
        query = urlencode({"start": start,
                           "follow": "1" if follow else "0"})
        connection = self._connect()
        served = 0
        try:
            connection.request(
                "GET",
                f"/sessions/{session_id}/telemetry/stream?{query}",
                headers={"Connection": "close"})
            response = connection.getresponse()
            if response.status >= 400:
                _read(response)
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                yield json.loads(line.decode("utf-8"))
                served += 1
                if max_snapshots is not None \
                        and served >= max_snapshots:
                    return
        finally:
            connection.close()

    def records_jsonl(self, session_id: str) -> str:
        """The session's raw ``TelemetryStore`` as JSONL text."""
        return self.request(
            "GET", f"/sessions/{session_id}/telemetry/records")


def _read(response: http.client.HTTPResponse) -> Any:
    """A response's JSON (or text) value; an error status raises
    :class:`TwinClientError` with the server's message."""
    text = response.read().decode("utf-8")
    value: Any = text
    if response.getheader("Content-Type", "").startswith(
            "application/json"):
        value = json.loads(text) if text.strip() else {}
    if response.status >= 400:
        raise TwinClientError(response.status, value.get("error", text)
                              if isinstance(value, dict) else text)
    return value
