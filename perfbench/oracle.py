"""Journal oracle: every workload must reproduce the serial cold journals.

A cell's search journal depends only on the cell, never on the worker
count, the schedule, the cache warmth or the transport.  The benchmark
therefore compares, per cell uid, the canonical bytes of every journal a
workload produced with those of a serial run on an empty cache for the
same seed, and — at the default seed and budget — with the SHA-256
digests committed in ``journal_digests.json``.

Regenerate the digests after an intended journal change with::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Mapping, Optional

DIGESTS_PATH = pathlib.Path(__file__).with_name("journal_digests.json")


def journal_bytes(journal: Mapping) -> bytes:
    """Canonical encoding of one journal (sorted keys, shortest float repr)."""
    return json.dumps(journal, sort_keys=True).encode("utf-8")


def digest_bytes(encoded: bytes) -> str:
    return hashlib.sha256(encoded).hexdigest()


def digest(journal: Mapping) -> str:
    return digest_bytes(journal_bytes(journal))


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def check_digests(
    produced: Mapping[str, str],
    reference: Mapping[str, str],
    committed: Optional[Mapping[str, str]] = None,
) -> list[str]:
    """Every mismatch between ``produced`` and the oracle, one line each.

    All three map cell uid to journal digest.  Each produced journal must
    equal the reference run's journal of the same uid and, when
    ``committed`` is given, the committed digest.  An empty list means the
    workload passed.
    """
    problems = []
    for uid in sorted(produced):
        expected = reference.get(uid)
        if expected is None:
            problems.append(f"{uid}: no reference journal")
        elif produced[uid] != expected:
            problems.append(f"{uid}: journal differs from the serial cold run")
        if committed is not None:
            pinned = committed.get(uid)
            if pinned is None:
                problems.append(f"{uid}: no committed digest")
            elif produced[uid] != pinned:
                problems.append(f"{uid}: journal differs from the committed digest")
    return problems


def _regenerate() -> None:
    """Run the paper grid serially on an empty cache and commit its digests."""
    import logging
    import sys
    import tempfile

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(DIGESTS_PATH.parent.parent / "src"))
    logging.getLogger("repro").setLevel(logging.ERROR)
    import workloads

    workloads.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.WORK_ROOT) as cache_dir:
        cells = workloads.run_grid(workloads.paper_grid(workloads.DEFAULT_SEED),
                                   workers=1, cache_dir=cache_dir)
    workloads.WORK_ROOT.rmdir()
    digests = dict(sorted(cells.digests.items()))
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")


if __name__ == "__main__":
    _regenerate()
