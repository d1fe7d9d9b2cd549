"""Command-line interface: an interactive chronicle-database session.

Run ``python -m repro.cli`` for a REPL, or ``python -m repro.cli script``
to execute a semicolon-terminated statement file.  The statement language
wraps the library's view-definition language with catalog and data
commands::

    CREATE CHRONICLE calls (caller INT, minutes INT) RETENTION 0;
    CREATE RELATION subscribers (number INT, state STR) KEY (number);
    INSERT subscribers {"number": 5551234, "state": "NJ"};
    DEFINE VIEW usage AS
        SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller;
    APPEND calls {"caller": 5551234, "minutes": 12};
    QUERY usage 5551234;
    SHOW VIEW usage;
    SHOW CATALOG;
    SHOW STATS;
    SHOW COSTS;
    SHOW HEALTH;
    SHOW WORKERS;
    SHOW TIMELINE 20;
    EXPLAIN usage;
    EXPLAIN ANALYZE usage;
    TRACE 3;
    CERTIFY usage;
    SERVE METRICS 9464;
    SERVE STOP;
    CHECKPOINT /tmp/db.ckpt;
    RESTORE /tmp/db.ckpt;
    OPEN /tmp/durable-db;
    FLUSH;
    SHOW DURABILITY;

``SHOW STATS`` prints the registry routing statistics and the metrics
snapshot; ``SHOW HEALTH`` evaluates the session's SLO policy and prints
the OK/DEGRADED/FAILING report (with per-shard lag when sharded);
``SHOW WORKERS`` renders the shard executor fleet — pool slots and
their shard assignments, per-shard IPC byte/time accounting, and worker
RSS/CPU readings when the process executor's telemetry relay has run;
``SHOW TIMELINE [n]`` samples the metrics history and renders the last
*n* samples as sparklines (throughput, maintain p99, shard lag, a
health track, incident markers — the terminal face of ``/timeline``);
``SHOW COSTS [view]`` prints the live per-operator cost ledger
(:mod:`repro.obs.costmodel`), conformance verdicts stamped when
``CERTIFY`` has run; ``EXPLAIN view`` renders the compiled maintenance
plan tree (fusion, sharing, partition, dispatch keys) and ``EXPLAIN
ANALYZE view`` additionally drives a short instrumented window of
synthesized records and annotates every operator with measured
rows/time/work (note the drive records are appended to the view's
chronicle); ``TRACE n`` prints the last *n* append traces (span trees
with wall time and cost-counter diffs).  ``CERTIFY view`` runs the empirical
conformance sweeps of :mod:`repro.obs.conformance` against the view —
note this appends synthesized drive records to the view's chronicle —
and prints the certificate.  ``SERVE METRICS port`` starts the live
HTTP exporter (``/metrics``, ``/certificates``, ``/snapshot``,
``/timeline``, ``/dashboard``; port 0 picks an ephemeral port);
``SERVE STOP`` stops it.  A session keeps its
own :class:`~repro.obs.Observability` handle and installs it only for
the duration of each statement, so CLI instrumentation never leaks into
the rest of the process.  ``OPEN dir`` switches the session to a durable
database at *dir* (recover-or-create, the
:meth:`~repro.core.database.ChronicleDatabase.open` lifecycle); ``FLUSH``
forces the append-ahead log to disk and ``SHOW DURABILITY`` prints the
WAL/snapshot status including the last recovery report.

Records are JSON objects.  The module is import-safe: :class:`Session`
executes statements and returns text, so tests drive it directly.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Any, List, Optional, Tuple

from .core.database import ChronicleDatabase
from .errors import ChronicleError
from .obs import runtime as obs_runtime

_ATTR_LIST = re.compile(r"\(\s*(.*?)\s*\)", re.S)


class CliError(ChronicleError):
    """A malformed CLI statement."""


def _parse_attr_list(text: str, what: str) -> List[Tuple[str, str]]:
    match = _ATTR_LIST.search(text)
    if not match:
        raise CliError(f"{what}: expected a parenthesized attribute list")
    attrs = []
    for part in match.group(1).split(","):
        pieces = part.split()
        if len(pieces) != 2:
            raise CliError(f"{what}: bad attribute spec {part.strip()!r}")
        attrs.append((pieces[0], pieces[1].upper()))
    return attrs


def _parse_json_payload(text: str, what: str) -> Any:
    brace = text.find("{")
    bracket = text.find("[")
    start = min(p for p in (brace, bracket) if p >= 0) if max(brace, bracket) >= 0 else -1
    if start < 0:
        raise CliError(f"{what}: expected a JSON record after the name")
    try:
        return json.loads(text[start:])
    except json.JSONDecodeError as exc:
        raise CliError(f"{what}: bad JSON ({exc})") from None


def _format_rows(rows: List[Any], limit: int = 20) -> str:
    lines = []
    for index, row in enumerate(rows):
        if index >= limit:
            lines.append(f"... ({len(rows) - limit} more rows)")
            break
        lines.append(
            "  " + ", ".join(f"{k}={v!r}" for k, v in row.as_dict().items())
        )
    return "\n".join(lines) if lines else "  (empty)"


class Session:
    """One CLI session over a fresh :class:`ChronicleDatabase`.

    With *observe* (the default), statements run under the session's
    observability handle: ``SHOW STATS`` and ``TRACE n`` become
    available, at the cost of tracing overhead per statement.
    """

    def __init__(self, observe: bool = True, config: Optional[Any] = None) -> None:
        self._observe = observe
        self._config = config
        self.db = ChronicleDatabase(config=config)
        if observe:
            self.db.enable_observability(install=False, audit="warn")

    # -- statement dispatch ----------------------------------------------------------

    def execute(self, statement: str) -> str:
        """Execute one (semicolon-free) statement; returns display text."""
        obs = self.db.observability
        if obs is None:
            return self._execute(statement)
        with obs_runtime.installed(obs):
            return self._execute(statement)

    def _execute(self, statement: str) -> str:
        statement = statement.strip()
        if not statement or statement.startswith("--"):
            return ""
        words = statement.split()
        head = words[0].upper()
        second = words[1].upper() if len(words) > 1 else ""
        if head == "CREATE" and second == "CHRONICLE":
            return self._create_chronicle(statement, words)
        if head == "CREATE" and second == "RELATION":
            return self._create_relation(statement, words)
        if head == "DEFINE":
            view = self.db.define_view(statement)
            if hasattr(view, "language"):
                return (
                    f"view {view.name} defined "
                    f"[{view.language.value}, {view.im_class.value}]"
                )
            return f"periodic view {view.name} defined over {view.calendar!r}"
        if head == "INSERT":
            return self._insert(statement, words)
        if head == "APPEND":
            return self._append(statement, words)
        if head == "QUERY":
            return self._query(words)
        if head == "SHOW":
            return self._show(words)
        if head == "EXPLAIN":
            return self._explain(words)
        if head == "TRACE":
            return self._trace(words)
        if head == "CERTIFY":
            return self._certify(words)
        if head == "SERVE":
            return self._serve(words)
        if head == "CHECKPOINT":
            self.db.checkpoint(self._path_arg(words, "CHECKPOINT"))
            return "checkpoint written"
        if head == "RESTORE":
            self.db.restore(self._path_arg(words, "RESTORE"))
            return "checkpoint restored"
        if head == "OPEN":
            return self._open(self._path_arg(words, "OPEN"))
        if head == "FLUSH":
            self.db.flush()
            return "log flushed"
        raise CliError(f"unknown statement {head!r} (try SHOW CATALOG)")

    def _open(self, path: str) -> str:
        """``OPEN <dir>``: recover-or-create a durable database there."""
        self.db.close()
        self.db = ChronicleDatabase.open(path, config=self._config)
        if self._observe:
            self.db.enable_observability(install=False, audit="warn")
        manager = self.db.durability
        report = manager.last_recovery if manager is not None else None
        if report is None:
            return f"opened {path} (fresh)"
        return (
            f"opened {path}: recovered snapshot@{report.snapshot_watermark}, "
            f"replayed {report.replayed_batches} batch(es), "
            f"{report.replayed_ddl} catalog op(s)"
        )

    @staticmethod
    def _path_arg(words: List[str], what: str) -> str:
        if len(words) != 2:
            raise CliError(f"{what}: expected exactly one path argument")
        return words[1]

    # -- handlers -----------------------------------------------------------------------

    def _create_chronicle(self, statement: str, words: List[str]) -> str:
        if len(words) < 3:
            raise CliError("CREATE CHRONICLE: missing name")
        name = words[2].split("(")[0]
        attrs = _parse_attr_list(statement, "CREATE CHRONICLE")
        retention: Optional[int] = None
        match = re.search(r"RETENTION\s+(\d+)", statement, re.I)
        if match:
            retention = int(match.group(1))
        self.db.create_chronicle(name, attrs, retention=retention)
        keep = "all" if retention is None else retention
        return f"chronicle {name} created (retention={keep})"

    def _create_relation(self, statement: str, words: List[str]) -> str:
        if len(words) < 3:
            raise CliError("CREATE RELATION: missing name")
        name = words[2].split("(")[0]
        body = statement
        key: Optional[List[str]] = None
        key_match = re.search(r"KEY\s*\(\s*([^)]*?)\s*\)\s*$", statement, re.I)
        if key_match:
            key = [part.strip() for part in key_match.group(1).split(",")]
            body = statement[: key_match.start()]
        attrs = _parse_attr_list(body, "CREATE RELATION")
        self.db.create_relation(name, attrs, key=key)
        return f"relation {name} created" + (f" (key {', '.join(key)})" if key else "")

    def _insert(self, statement: str, words: List[str]) -> str:
        if len(words) < 2:
            raise CliError("INSERT: missing relation name")
        name = words[1]
        payload = _parse_json_payload(statement, "INSERT")
        records = payload if isinstance(payload, list) else [payload]
        relation = self.db.relation(name)
        for record in records:
            relation.insert(record)
        return f"{len(records)} row(s) inserted into {name}"

    def _append(self, statement: str, words: List[str]) -> str:
        if len(words) < 2:
            raise CliError("APPEND: missing chronicle name")
        name = words[1]
        payload = _parse_json_payload(statement, "APPEND")
        rows = self.db.append(name, payload)
        return f"appended {len(rows)} record(s) at sequence {rows[0].sequence_number}"

    def _query(self, words: List[str]) -> str:
        if len(words) < 2:
            raise CliError("QUERY: expected QUERY view [key values...]")
        name = words[1]
        view = self.db.view(name)
        if len(words) == 2:
            return _format_rows(sorted(view.rows(), key=lambda r: r.values))
        key = tuple(json.loads(word) for word in words[2:])
        row = view.lookup(key)
        if row is None:
            return f"  no row for key {key}"
        return _format_rows([row])

    def _show(self, words: List[str]) -> str:
        target = words[1].upper() if len(words) > 1 else "CATALOG"
        if target == "CATALOG":
            lines = []
            for name in sorted(self.db._chronicle_group):
                chronicle = self.db.chronicle(name)
                lines.append(
                    f"  chronicle {name}: {chronicle.appended_count} appended, "
                    f"{len(list(chronicle.schema.names))} attributes"
                )
            for name in sorted(self.db.relations):
                lines.append(f"  relation {name}: {len(self.db.relations[name])} rows")
            for view in self.db.registry.views():
                lines.append(
                    f"  view {view.name}: {len(view)} rows "
                    f"[{view.language.value}, {view.im_class.value}]"
                )
            for name in self.db.partitioned_views:
                view = self.db.view(name)
                lines.append(
                    f"  view {name}: {len(view)} rows "
                    f"[{view.language.value}, {view.im_class.value}, sharded]"
                )
            return "\n".join(lines) if lines else "  (empty catalog)"
        if target == "VIEW":
            if len(words) < 3:
                raise CliError("SHOW VIEW: missing view name")
            view = self.db.view(words[2])
            return _format_rows(sorted(view.rows(), key=lambda r: r.values))
        if target == "STATS":
            return self._show_stats()
        if target == "COSTS":
            return self._show_costs(words)
        if target == "SHARDS":
            return self._show_shards()
        if target == "HEALTH":
            return self._show_health()
        if target == "WORKERS":
            return self._show_workers()
        if target == "DURABILITY":
            return self._show_durability()
        if target == "TIMELINE":
            return self._show_timeline(words)
        raise CliError(f"SHOW: unknown target {target!r}")

    def _show_timeline(self, words: List[str]) -> str:
        """``SHOW TIMELINE [n]``: the metrics history as sparklines.

        REPL statements arrive sporadically, so the session runs the
        sampler threadless and forces one sample per invocation — each
        ``SHOW TIMELINE`` appends the window since the previous one.
        """
        obs = self._observability()
        n = 12
        if len(words) > 2:
            try:
                n = int(words[2])
            except ValueError:
                raise CliError(f"SHOW TIMELINE: bad sample count {words[2]!r}")
            if n < 1:
                raise CliError("SHOW TIMELINE: sample count must be >= 1")
        history = obs.history
        if history is None:
            settings = self.db.config.history
            history = obs.start_history(
                interval=settings.sample_interval_seconds,
                capacity=settings.capacity,
                thread=False,
            )
        history.sample_now()
        return "\n".join(
            "  " + line for line in history.format(n).splitlines()
        )

    def _show_durability(self) -> str:
        manager = self.db.durability
        if manager is None:
            return "  durability=off (use OPEN <dir> or DurabilityConfig)"
        lines = []
        for key, value in manager.status().items():
            if isinstance(value, dict):
                lines.append(f"  {key}:")
                lines.extend(f"    {k}={v!r}" for k, v in value.items())
            else:
                lines.append(f"  {key}={value!r}")
        return "\n".join(lines)

    def _show_health(self) -> str:
        obs = self._observability()
        report = obs.health()
        return "\n".join("  " + line for line in report.format().splitlines())

    def _show_costs(self, words: List[str]) -> str:
        """The live cost ledger, optionally filtered to one view."""
        obs = self._observability()
        if obs.certificates:
            obs.cost_ledger.link_certificates(obs.certificates)
        view = words[2] if len(words) > 2 else None
        text = obs.cost_ledger.format(view)
        return "\n".join("  " + line for line in text.splitlines())

    def _explain(self, words: List[str]) -> str:
        """``EXPLAIN [ANALYZE] [VIEW] <name>``: the compiled plan tree."""
        rest = words[1:]
        analyze = bool(rest) and rest[0].upper() == "ANALYZE"
        if analyze:
            rest = rest[1:]
        if rest and rest[0].upper() == "VIEW":
            rest = rest[1:]
        if len(rest) != 1:
            raise CliError("EXPLAIN: expected EXPLAIN [ANALYZE] <view>")
        report = self.db.explain(rest[0], analyze=analyze)
        return "\n".join("  " + line for line in report.format().splitlines())

    def _show_shards(self) -> str:
        if self.db.config.engine != "sharded":
            return "  engine=serial (no shards; start with engine='sharded')"
        lines = [f"  engine=sharded shards={self.db.config.shards}"]
        for shard_group in self.db.shard_groups:
            lines.append(
                f"  key class {shard_group.name} {shard_group.spec!r}: "
                f"views {sorted(shard_group.views)}"
            )
            for unit in shard_group.units:
                rows = sum(
                    len(unit.registry.view(name).relation)
                    for name in shard_group.views
                )
                lines.append(
                    f"    shard {unit.label}: watermark={unit.watermark} rows={rows}"
                )
        fallbacks = self.db.fallback_views
        if fallbacks:
            lines.append(f"  serial-shard fallbacks: {sorted(fallbacks)}")
        return "\n".join(lines)

    def _show_workers(self) -> str:
        """The executor fleet: slots, IPC accounting, worker resources."""
        config = self.db.config
        if config.engine != "sharded":
            return "  engine=serial (no shard executor; start with engine='sharded')"
        lines = [f"  executor={config.executor} workers={config.shards}"]
        if config.executor == "process":
            backend = self.db._shards.backend
            lines[0] += f" relay_telemetry={'on' if backend.relay_telemetry else 'off'}"
            slots: dict = {}
            for label, slot in sorted(backend._assignment.items()):
                slots.setdefault(slot, []).append(label)
            for slot in sorted(slots):
                state = "BROKEN" if slot in backend._broken else "ok"
                lines.append(f"  slot {slot} [{state}]: shards {slots[slot]}")
        obs = self.db.observability
        if obs is None:
            lines.append("  (observability disabled; no worker telemetry)")
            return "\n".join(lines)
        metrics = obs.metrics
        down = {
            labels.get("shard"): inst.value
            for labels, inst in metrics.series("ipc_bytes_down_total")
        }
        up = {
            labels.get("shard"): inst.value
            for labels, inst in metrics.series("ipc_bytes_up_total")
        }
        if down or up:
            lines.append("  == ipc ==")
            pickling: dict = {}
            for name in ("ipc_encode_seconds", "ipc_decode_seconds"):
                for labels, inst in metrics.series(name):
                    shard = labels.get("shard")
                    pickling[shard] = pickling.get(shard, 0.0) + inst.sum
            for shard in sorted(set(down) | set(up), key=str):
                lines.append(
                    f"  shard {shard}: down {int(down.get(shard, 0)):,}B "
                    f"up {int(up.get(shard, 0)):,}B "
                    f"enc+dec {pickling.get(shard, 0.0) * 1e3:.2f}ms"
                )
        rss = {
            labels.get("worker"): inst.value
            for labels, inst in metrics.series("worker_rss_bytes")
        }
        cpu = {
            labels.get("worker"): inst.value
            for labels, inst in metrics.series("worker_cpu_seconds")
        }
        if rss or cpu:
            lines.append("  == workers ==")
            for worker in sorted(set(rss) | set(cpu), key=str):
                lines.append(
                    f"  worker {worker}: "
                    f"rss {rss.get(worker, 0) / (1 << 20):.1f}MiB "
                    f"cpu {cpu.get(worker, 0.0):.2f}s"
                )
        if not (down or up or rss or cpu):
            lines.append(
                "  (no worker telemetry yet — run windows under "
                "executor='process' with observability on)"
            )
        return "\n".join(lines)

    def _observability(self):
        obs = self.db.observability
        if obs is None:
            raise CliError(
                "observability is disabled for this session "
                "(construct Session(observe=True))"
            )
        return obs

    def _show_stats(self) -> str:
        obs = self._observability()
        stats = self.db.registry.stats
        per_view = stats.pop("per_view", None)
        lines = ["== registry =="]
        for key, value in sorted(stats.items()):
            lines.append(f"  {key}: {value}")
        if per_view:
            lines.append("== views ==")
            for name, values in sorted(per_view.items()):
                lines.append(
                    f"  {name}: {values['spans']} maintain spans, "
                    f"last append {values['last_append_seconds'] * 1e6:,.0f}us"
                )
        lines.append("== audit ==")
        for key, value in sorted(obs.auditor.summary().items()):
            lines.append(f"  {key}: {value}")
        lines.append("== metrics ==")
        metrics_start = len(lines)
        for name, family in sorted(obs.metrics.as_dict().items()):
            for labels, value in family["series"].items():
                series = f"{name}{{{labels}}}" if labels else name
                if family["type"] == "histogram":
                    lines.append(
                        f"  {series} count={value['count']} "
                        f"sum={value['sum']:.6f}"
                    )
                else:
                    lines.append(f"  {series} {value}")
        if len(lines) == metrics_start:
            lines.append("  (no metrics recorded yet)")
        return "\n".join(lines)

    def _trace(self, words: List[str]) -> str:
        obs = self._observability()
        if len(words) > 2:
            raise CliError("TRACE: expected TRACE [n]")
        count = 1
        if len(words) == 2:
            try:
                count = int(words[1])
            except ValueError:
                raise CliError(f"TRACE: bad count {words[1]!r}") from None
            if count < 1:
                raise CliError("TRACE: count must be >= 1")
        traces = obs.tracer.traces(count)
        if not traces:
            return "  (no traces recorded yet)"
        return "\n".join(span.format(indent=1) for span in traces)

    def _certify(self, words: List[str]) -> str:
        self._observability()  # certificates need a handle to land on
        if len(words) != 2:
            raise CliError("CERTIFY: expected CERTIFY view")
        # The REPL favors snappy over asymptotic: a 4x-per-step sweep up
        # to 2k records still separates constant from linear cleanly.
        certificate = self.db.certify_view(
            words[1], samples=3, c_sizes=(128, 512, 2_048), r_sizes=(128, 512, 2_048)
        )
        return certificate.format()

    def _serve(self, words: List[str]) -> str:
        obs = self._observability()
        target = words[1].upper() if len(words) > 1 else ""
        if target == "METRICS":
            if len(words) != 3:
                raise CliError("SERVE: expected SERVE METRICS port")
            try:
                port = int(words[2])
            except ValueError:
                raise CliError(f"SERVE: bad port {words[2]!r}") from None
            server = obs.serve(port=port)
            return f"serving metrics at {server.url}/metrics"
        if target == "STOP":
            if obs.server is None:
                return "no metrics server running"
            port = obs.server.port
            obs.stop_serving()
            return f"metrics server on port {port} stopped"
        raise CliError("SERVE: expected SERVE METRICS port | SERVE STOP")

    # -- statement splitting ----------------------------------------------------------

    @staticmethod
    def split_statements(text: str) -> List[str]:
        """Split script text into semicolon-terminated statements.

        Semicolons inside single-quoted strings are respected.
        """
        statements, current, in_string = [], [], False
        for char in text:
            if char == "'":
                in_string = not in_string
            if char == ";" and not in_string:
                statements.append("".join(current))
                current = []
            else:
                current.append(char)
        tail = "".join(current).strip()
        if tail:
            statements.append(tail)
        return [s for s in (s.strip() for s in statements) if s]

    def run_script(self, text: str, out: Any = None) -> int:
        """Execute a script; returns the number of failed statements."""
        out = out if out is not None else sys.stdout
        failures = 0
        for statement in self.split_statements(text):
            try:
                result = self.execute(statement)
                if result:
                    out.write(result + "\n")
            except ChronicleError as exc:
                failures += 1
                out.write(f"error: {exc}\n")
        return failures


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    session = Session()
    if argv:
        with open(argv[0]) as handle:
            return 1 if session.run_script(handle.read()) else 0
    sys.stdout.write(
        "chronicle database shell — statements end with ';' "
        "(SHOW CATALOG; to inspect, Ctrl-D to exit)\n"
    )
    buffer: List[str] = []
    try:
        while True:
            prompt = "chronicle> " if not buffer else "       ...> "
            sys.stdout.write(prompt)
            sys.stdout.flush()
            line = sys.stdin.readline()
            if not line:
                break
            buffer.append(line)
            text = "".join(buffer)
            if ";" in line:
                buffer = []
                session.run_script(text)
    except KeyboardInterrupt:
        pass
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
