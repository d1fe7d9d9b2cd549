"""The import contract: the write path loads only what it runs.

``import repro`` and a serial database's whole life — chronicle, view,
append, lookup, checkpoint — must not load numpy (the offline growth
fits), :mod:`http.server` (the metrics endpoint), :mod:`sqlite3` (the
durable log), or the process pool (:mod:`concurrent.futures`,
:mod:`multiprocessing`).  Each feature pulls in its own module when it
is used.  Every case runs in a fresh interpreter: the pytest process
has long since loaded all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

HEAVY = ("numpy", "http.server", "sqlite3", "concurrent.futures", "multiprocessing")

_SCRIPT = """
import json, sys
{prelude}


def heavy():
    return [name for name in {heavy!r} if sys.modules.get(name) is not None]


from repro import ChronicleDatabase, DatabaseConfig, DurabilityConfig

db = ChronicleDatabase(config=DatabaseConfig({config}))
db.create_chronicle("calls", [("caller", "INT"), ("minutes", "INT")], retention=0)
db.define_view(
    "DEFINE VIEW usage AS "
    "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
)
db.append("calls", [{{"caller": 1, "minutes": 5}}, {{"caller": 1, "minutes": 7}}])
assert tuple(db.view_row("usage", (1,)).values) == (1, 12)
db.checkpoint(sys.argv[1])
loaded = {{"run": heavy()}}
{epilogue}
db.close()
print(json.dumps(loaded))
"""


def _loaded(tmp_path, config="", prelude="", epilogue=""):
    """Run the serial life in a fresh interpreter; the heavy modules it loaded."""
    script = _SCRIPT.format(
        prelude=prelude, config=config, heavy=HEAVY, epilogue=epilogue
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "checkpoint.json")],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_serial_database_loads_none_of_the_heavy_modules(tmp_path):
    assert _loaded(tmp_path)["run"] == []


def test_observing_loads_http_server_only_when_serving(tmp_path):
    loaded = _loaded(
        tmp_path,
        config="observe=True",
        epilogue="db.serve_metrics()\nloaded['served'] = heavy()",
    )
    assert loaded["run"] == []
    assert loaded["served"] == ["http.server"]


def test_durable_database_loads_sqlite3_only(tmp_path):
    loaded = _loaded(
        tmp_path,
        config=f"durability=DurabilityConfig(mode='wal+snapshot', dir={str(tmp_path / 'db')!r})",
    )
    assert loaded["run"] == ["sqlite3"]


def test_the_runtime_needs_no_numpy(tmp_path):
    loaded = _loaded(
        tmp_path,
        prelude='sys.modules["numpy"] = None',
        epilogue=(
            "from repro.complexity.fitting import fit_series\n"
            "try:\n"
            "    fit_series([1, 2, 3], [1.0, 2.0, 3.0])\n"
            "except ImportError as exc:\n"
            "    loaded['fit_error'] = str(exc)"
        ),
    )
    assert loaded["run"] == []
    assert "bench" in loaded["fit_error"] and "numpy" in loaded["fit_error"]

