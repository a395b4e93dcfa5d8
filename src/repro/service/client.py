"""Typed client for the job service's ``/v1/jobs`` routes.

A thin convenience layer over :func:`repro.shard.protocol.post_json` /
``get_json`` / ``delete_json``: same error contract (everything surfaces
as :class:`~repro.shard.protocol.ShardProtocolError`), same auth header,
no extra dependencies.  Used by the ``submit`` / ``jobs`` / ``job``
CLI commands and by the tests; third parties can script against it
directly.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.shard.protocol import (
    ShardProtocolError,
    delete_json,
    get_json,
    post_json,
)
from repro.sweep.spec import SweepSpec

__all__ = ["ServiceClient"]


class ServiceClient:
    """One service coordinator endpoint, optionally authenticated."""

    def __init__(
        self,
        base_url: str,
        *,
        token: Optional[str] = None,
        timeout_s: float = 10.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.token = token or None
        self.timeout_s = timeout_s

    # --------------------------------------------------------------- plumbing
    def _get(self, path: str) -> dict:
        return get_json(self.base_url, path, timeout_s=self.timeout_s,
                        token=self.token)

    def _post(self, path: str, payload: dict) -> dict:
        return post_json(self.base_url, path, payload,
                         timeout_s=self.timeout_s, token=self.token)

    def _delete(self, path: str) -> dict:
        return delete_json(self.base_url, path, timeout_s=self.timeout_s,
                           token=self.token)

    # ------------------------------------------------------------------ jobs
    def submit(self, spec: SweepSpec, name: Optional[str] = None) -> dict:
        """Submit one sweep job; returns ``{"job", "name", "state", "cells"}``."""
        payload: dict = {"spec": spec.as_dict()}
        if name:
            payload["name"] = name
        return self._post("/v1/jobs", payload)

    def jobs(self) -> list[dict]:
        """All known jobs, each as the coordinator's summary dict."""
        return list(self._get("/v1/jobs").get("jobs", []))

    def status(self, uid: str) -> dict:
        """One job's summary plus per-cell detail and failure records."""
        return self._get(f"/v1/jobs/{uid}")

    def result(self, uid: str) -> dict:
        """A terminal job's result: ``{"job", "name", "state", "sweep"}``.

        The ``sweep`` payload is ``SweepResult.as_dict()`` — dump it to a
        file and ``SweepResult.load`` / ``repro-codesign compare`` read it
        like any local run's result.
        """
        return self._get(f"/v1/jobs/{uid}/result")

    def cancel(self, uid: str) -> dict:
        return self._delete(f"/v1/jobs/{uid}")

    def metrics(self) -> dict:
        return self._get("/v1/metrics")

    # ------------------------------------------------------------------ wait
    def wait(
        self,
        uid: str,
        *,
        timeout_s: Optional[float] = None,
        poll_s: float = 0.5,
        on_progress: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Block until ``uid`` reaches a terminal state; returns its summary.

        ``on_progress`` (if given) receives every polled summary — the CLI
        uses it to stream settled/total counts.  Raises
        :class:`ShardProtocolError` on timeout, with the last observed
        state in the message.
        """
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        last_state = "unknown"
        while True:
            summary = self.status(uid)
            last_state = str(summary.get("state", "unknown"))
            if on_progress is not None:
                on_progress(summary)
            if last_state in ("done", "failed", "cancelled"):
                return summary
            if deadline is not None and time.monotonic() > deadline:
                raise ShardProtocolError(
                    f"timed out waiting for job '{uid}' (still {last_state} "
                    f"after {timeout_s:g}s)"
                )
            time.sleep(poll_s)
