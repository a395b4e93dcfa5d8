"""Wire protocol of the cross-machine sweep shard tier.

The coordinator and its workers speak a deliberately small JSON-over-HTTP
protocol built on the standard library only (``http.server`` on the
coordinator side, ``urllib.request`` on the worker side) — a shard
deployment needs a Python interpreter and a routable TCP port, nothing
else.  Every message body is a JSON object; every payload that crosses
the wire is made of the same JSON views the sweep subsystem already
persists (``SweepTask.from_dict``, ``SweepOutcome.from_dict``,
``SweepFailure.from_dict``, ``PreparedTarget.to_wire``), so the
distributed tier introduces **no second serialization format**: what a
worker streams back is exactly what the coordinator appends to
``_checkpoint.jsonl``, and ``--resume`` / ``SweepResult.load`` /
``compare`` work on distributed runs unchanged.

Endpoints (all under ``/v1``; requests are ``POST`` with a JSON body
unless noted):

``/v1/register``
    ``{"name", "version"}`` → ``{"worker_id", "heartbeat_s", "cache":
    bool}``.  A worker registers once and uses the returned id in every
    later call; a worker speaking another :data:`PROTOCOL_VERSION` is
    refused with 400.  ``cache=True`` advertises the estimator-cache
    exchange below.

``/v1/lease``
    ``{"worker_id", "slots", "known_preps": [wire_key, ...], "wait_s"?}``
    → ``{"cells": [{"lease_id", "uid", "task", "prep", "timeout_s",
    "job"}, ...], "prepared": {wire_key: PreparedTarget.to_wire(), ...},
    "done": bool}``.  Cells are leased
    longest-expected-first; the serialized :class:`PreparedTarget` for a
    cell's target key ships inline exactly once per worker (the worker
    advertises the keys it already holds).  With ``wait_s`` (long poll,
    capped at :data:`MAX_LEASE_WAIT_S`) a request that finds no ready cell
    is held until one is ready, the grid is done, the wait ran out or the
    coordinator closes.  ``done=True`` tells the worker the whole grid has
    settled and it should exit; a persistent service sends it only while
    it stops, to the workers it answers then.  ``job`` is the
    owning job uid under a multi-job service coordinator and ``None``
    for a one-shot grid — workers echo it back verbatim.

``/v1/report``
    ``{"worker_id", "lease_id", "uid", "status": "ok"|"error",
    "outcome"| "error", "duration_s", "job"?, "cache_records"?,
    "lease"?}`` → ``{"accepted": bool, "reason": str?, "done": bool,
    "lease"?}``.  Duplicate completions (a lease that expired and
    was re-run elsewhere) are resolved deterministically by uid — the
    first settled record wins and later reports are acknowledged but
    dropped (``accepted=False, reason="duplicate"``), so a settled cell
    is never lost *or* double-counted.  ``job`` routes the report to the
    right job's board (null or absent: the one-shot grid's; any other
    non-string answers 400).  ``cache_records`` carries the worker's
    estimator-cache records the coordinator has not seen (at most
    :data:`MAX_REPORT_RECORDS`; malformed ones are dropped), and ``lease``
    (``{"slots", "known_preps"}``) asks for the worker's next cells: the
    reply's ``lease`` is then a ``/v1/lease`` reply, leased after the
    report settled and never parked.  So a busy worker makes one round
    trip per settled cell.  Both fields are optional.

``/v1/heartbeat``
    ``{"worker_id", "lease_ids": [...]}`` → ``{"ok", "lost": [...]}``.
    Extends the worker's leases; a lease the coordinator already revoked
    (timed out) or expired comes back in ``lost``, and a ``--workers N``
    worker kills its process without reporting the charged attempt.

``/v1/cache/pull``
    ``{"worker_id"}`` → ``{"records": [...], "count", "enabled"}``: the
    hub's whole estimator cache, so a fresh worker warm-starts instead of
    recomputing; what it computes goes back on its reports'
    ``cache_records``.  Records use the ``DiskEvaluationCache`` JSONL
    shape verbatim (``{"namespace", "key", "estimate", "ts"}``).

``/v1/status`` (GET)
    Progress counters for dashboards and tests.

A service coordinator (``repro.service``) additionally serves
``/v1/jobs`` (POST submit / GET list), ``/v1/jobs/<uid>`` (GET status /
DELETE cancel) and ``/v1/jobs/<uid>/result``; workers need no knowledge
of those routes.

Authentication: when the operator configures a shared secret (``--token``
or ``REPRO_SERVICE_TOKEN``), every mutating route (POST/DELETE) requires
the ``X-Repro-Token`` header and replies HTTP 401 otherwise.  Comparison
is constant-time (:func:`token_matches`).
"""

from __future__ import annotations

import hmac
import json
import math
import os
import urllib.error
import urllib.request
from typing import Mapping, Optional

from repro.sweep.ledger import DEFAULT_LEASE_TTL_S, ShardProtocolError  # re-exported

#: Protocol version; a coordinator rejects workers speaking another one.
PROTOCOL_VERSION = 2

#: Default coordinator port (unassigned by IANA, outside ephemeral range).
DEFAULT_PORT = 8765

#: Default worker heartbeat period (well under :data:`DEFAULT_LEASE_TTL_S`).
DEFAULT_HEARTBEAT_S = 5.0

#: Longest a long-polling ``/v1/lease`` request is held at the coordinator;
#: well under :data:`REQUEST_TIMEOUT_S`.
MAX_LEASE_WAIT_S = 10.0

#: Seconds a worker waits for one reply, and a coordinator for one socket
#: read or write of a request.
REQUEST_TIMEOUT_S = 30.0

#: Header carrying the shared secret on mutating requests.
AUTH_HEADER = "X-Repro-Token"

#: Largest request body a coordinator reads (bytes); longer ones get 413.
#: On the paper grid (seed 2019) the largest ``/v1/report`` body is ~0.8 MB
#: (a cell's outcome plus the ~400 cache records it appended), ~2.9 MB when
#: a worker whose local cache already holds the grid's 4,511 records
#: reports to a fresh hub, so 64 MiB leaves a 20x margin.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Most estimator-cache records one ``/v1/report`` carries (~0.5 KB each on
#: the paper grid, so ~10 MB); a worker with more unsent (a local cache the
#: hub never saw) sends the rest on later reports, so a report stays well
#: inside :data:`MAX_BODY_BYTES`.
MAX_REPORT_RECORDS = 20_000

#: Most cells one submitted job may expand to; a larger grid answers 400
#: before anything is journalled.  The paper grid is 24 cells.
MAX_JOB_CELLS = 10_000

#: Environment variable consulted when no ``--token`` flag is given.
SERVICE_TOKEN_ENV = "REPRO_SERVICE_TOKEN"


def check_lease_timing(lease_ttl_s: float, heartbeat_s: float) -> None:
    """Reject a lease TTL / heartbeat pair under which live workers would expire."""
    if lease_ttl_s <= 0:
        raise ValueError("lease_ttl_s must be positive")
    if heartbeat_s <= 0 or heartbeat_s >= lease_ttl_s:
        raise ValueError("heartbeat_s must be positive and below lease_ttl_s")


def resolve_token(token: Optional[str]) -> Optional[str]:
    """Effective shared secret: the explicit flag, else ``$REPRO_SERVICE_TOKEN``.

    Empty strings count as "no token" so ``--token ''`` disables auth
    explicitly even when the environment variable is set.
    """
    if token is not None:
        return token or None
    return os.environ.get(SERVICE_TOKEN_ENV) or None


def token_matches(expected: Optional[str], provided: Optional[str]) -> bool:
    """Constant-time shared-secret check.

    No configured secret accepts everything; a configured secret requires
    an exact (timing-safe) match — a missing header never matches.
    """
    if not expected:
        return True
    if not provided:
        return False
    return hmac.compare_digest(expected.encode("utf-8"), provided.encode("utf-8"))


# -------------------------------------------------------------- HTTP client
def _fetch_json(url: str, request, timeout_s: float) -> dict:
    """One request/response exchange under the shard error contract.

    Transport failures, non-2xx statuses and non-JSON / non-object replies
    all surface as :class:`ShardProtocolError`, so callers handle exactly
    one exception type.  ``urllib`` only — no third-party HTTP stack.
    """
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = exc.read().decode("utf-8", "replace")[:200]
        except Exception:  # pragma: no cover - error body unavailable
            pass
        raise ShardProtocolError(
            f"{url} answered HTTP {exc.code}: {detail or exc.reason}"
        ) from exc
    except (urllib.error.URLError, OSError) as exc:
        raise ShardProtocolError(f"could not reach {url}: {exc}") from exc
    try:
        reply = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ShardProtocolError(f"{url} returned a non-JSON reply") from exc
    if not isinstance(reply, dict):
        raise ShardProtocolError(f"{url} returned a non-object reply")
    return reply


def post_json(
    base_url: str,
    path: str,
    payload: Mapping,
    timeout_s: float = 10.0,
    token: Optional[str] = None,
) -> dict:
    """POST ``payload`` as JSON to ``base_url + path``; return the JSON reply.

    ``payload`` must be JSON-ready (plain dicts, lists, strings, numbers):
    it is encoded as it is, never walked first.
    """
    url = base_url.rstrip("/") + path
    headers = {"Content-Type": "application/json"}
    if token:
        headers[AUTH_HEADER] = token
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers=headers,
        method="POST",
    )
    return _fetch_json(url, request, timeout_s)


def get_json(
    base_url: str,
    path: str,
    timeout_s: float = 10.0,
    token: Optional[str] = None,
) -> dict:
    """GET ``base_url + path``; return the JSON reply (same error contract)."""
    url = base_url.rstrip("/") + path
    headers = {AUTH_HEADER: token} if token else {}
    request = urllib.request.Request(url, headers=headers, method="GET")
    return _fetch_json(url, request, timeout_s)


def delete_json(
    base_url: str,
    path: str,
    timeout_s: float = 10.0,
    token: Optional[str] = None,
) -> dict:
    """DELETE ``base_url + path``; return the JSON reply (same error contract)."""
    url = base_url.rstrip("/") + path
    headers = {AUTH_HEADER: token} if token else {}
    request = urllib.request.Request(url, headers=headers, method="DELETE")
    return _fetch_json(url, request, timeout_s)


def connect_url(connect: str) -> str:
    """The base URL of a ``--connect`` value: ``host:port`` gains ``http://``."""
    base = connect.rstrip("/")
    return base if base.startswith(("http://", "https://")) else "http://" + base


def parse_bind(spec: str) -> tuple[str, int]:
    """Parse a ``host:port`` / ``host`` / ``:port`` bind spec."""
    spec = (spec or "").strip()
    if not spec:
        return ("127.0.0.1", DEFAULT_PORT)
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        return (spec, DEFAULT_PORT)
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in bind spec '{spec}'") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in bind spec '{spec}'")
    return (host, port)


def number_field(payload: Mapping, key: str, default: float) -> float:
    """An optional finite-number message field (``default`` when absent)."""
    value = payload.get(key, default)
    try:
        # A JSON integer past the float range overflows the conversion.
        number = float(value) if isinstance(value, (int, float)) \
            and not isinstance(value, bool) else math.nan
    except OverflowError:
        number = math.nan
    if not math.isfinite(number):
        raise ShardProtocolError(f"message field '{key}' must be a finite number")
    return number


def string_list_field(payload: Mapping, key: str) -> Optional[list]:
    """An optional list-of-strings message field (``None`` when absent or null)."""
    value = payload.get(key)
    if value is not None and not (isinstance(value, list)
                                  and all(isinstance(item, str) for item in value)):
        raise ShardProtocolError(f"message field '{key}' must be a list of strings")
    return value


def require(payload: Mapping, key: str, kind: Optional[type] = None):
    """Fetch a required message field, raising the protocol error on absence."""
    if key not in payload:
        raise ShardProtocolError(f"message is missing required field '{key}'")
    value = payload[key]
    if kind is not None and not isinstance(value, kind):
        raise ShardProtocolError(
            f"message field '{key}' must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value
