"""CI smoke: the process executor's telemetry relay reaches ``/metrics``.

Drives a small sharded database with ``executor="process"`` and
observability installed, scrapes the live ``/metrics`` endpoint
mid-run, and asserts the cross-process accounting series exist and are
nonzero:

* ``ipc_bytes_down_total`` / ``ipc_bytes_up_total`` (per shard);
* ``ipc_encode_seconds`` / ``ipc_decode_seconds`` (per shard and
  direction, with samples);
* worker-labeled series (``worker_cpu_seconds{worker=...}`` and the
  relayed worker metrics carrying a ``worker`` label).

Exit status 0 when every assertion holds, 1 otherwise — wired into the
multicore-smoke CI job.  Runs anywhere the process
executor runs (single-core hosts included: the relay measures cost, not
scaling).
"""

import os
import re
import sys
import urllib.request

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import ChronicleDatabase, DatabaseConfig  # noqa: E402
from repro.aggregates import COUNT, SUM, spec  # noqa: E402
from repro.algebra.ast import scan  # noqa: E402
from repro.sca.summarize import GroupBySummary  # noqa: E402

WINDOWS = 10
BATCHES = 8


def _series_values(text, name):
    """``[(labels, value)]`` for one family in Prometheus text format."""
    out = []
    for line in text.splitlines():
        if not line.startswith(name):
            continue
        rest = line[len(name):]
        if rest[:1] not in ("{", " "):
            continue  # a longer family name sharing the prefix
        match = re.match(r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)", rest)
        if match:
            out.append((match.group("labels") or "", float(match.group("value"))))
    return out


def main() -> int:
    workers = 2
    db = ChronicleDatabase(
        config=DatabaseConfig(
            engine="sharded",
            shards=workers,
            executor="process",
            observe=True,
            audit_mode="off",
        )
    )
    failures = []
    try:
        db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")])
        chron = db.chronicle("calls")
        db.define_view(
            GroupBySummary(
                scan(chron), ["caller"], [spec(SUM, "minutes"), spec(COUNT)]
            ),
            name="usage",
        )
        server = db.serve_metrics(0)
        for window in range(WINDOWS):
            db.ingest(
                "calls",
                [
                    [{"caller": (window * BATCHES + i) % 16, "minutes": i + 1}]
                    for i in range(BATCHES)
                ],
            )
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics"
        ) as response:
            text = response.read().decode("utf-8")

        for name in ("ipc_bytes_down_total", "ipc_bytes_up_total"):
            series = _series_values(text, name)
            if not series:
                failures.append(f"{name}: no series exported")
            elif not all(value > 0 for _, value in series):
                failures.append(f"{name}: zero-valued series {series}")
            elif not all("shard=" in labels for labels, _ in series):
                failures.append(f"{name}: series missing the shard label")
        for name in ("ipc_encode_seconds_count", "ipc_decode_seconds_count"):
            series = _series_values(text, name)
            if not series or not any(value > 0 for _, value in series):
                failures.append(f"{name}: no samples recorded")
            directions = {
                direction
                for labels, _ in series
                for direction in re.findall(r'direction="(\w+)"', labels)
            }
            if directions != {"down", "up"}:
                failures.append(f"{name}: directions {directions} != down+up")
        cpu = _series_values(text, "worker_cpu_seconds")
        if not cpu or not all("worker=" in labels for labels, _ in cpu):
            failures.append(f"worker_cpu_seconds: missing worker-labeled series")
        relayed = [
            (labels, value)
            for labels, value in _series_values(text, "view_maintained_total")
            if "worker=" in labels
        ]
        if not relayed or not all(value > 0 for _, value in relayed):
            failures.append(
                "view_maintained_total: no nonzero worker-labeled relayed series"
            )
    finally:
        db.close()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"ok: /metrics exposes nonzero ipc_* and worker-labeled series "
        f"after {WINDOWS} process-executor windows"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
