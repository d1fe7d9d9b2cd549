"""``benchmarks/trajectory.py`` turns alternating run lines into one record."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "trajectory.py"


def run_line(side, seed, rate, p50, failed=0):
    metrics = {
        "setup_s": 0.5,
        "ingest_records_per_s": rate,
        "write_p50_us": p50,
        "peak_rss_mb": 40.0,
    }
    payload = {
        "correct": True,
        "attempted": 1000,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
    }
    return f"{side} {seed} {json.dumps(payload)}"


def test_two_pairs_make_one_record(tmp_path):
    runs = tmp_path / "bulk.txt"
    runs.write_text(
        "\n".join(
            [
                run_line("parent", 7, 100.0, 20.0),
                run_line("change", 7, 110.0, 20.0),
                run_line("change", 8, 90.0, 18.0, failed=1),
                run_line("parent", 8, 100.0, 22.0),
            ]
        )
        + "\n"
    )
    trajectory = tmp_path / "BENCH_e2e.json"
    trajectory.write_text('{\n "description": "d",\n "records": [\n  {"pr": 1}\n ]\n}\n')
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--pr", "2", "--kind", "simplicity",
         "--title", "t", "--run-seconds", "8", f"bulk_process={runs}",
         "--append", str(trajectory)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    record = json.loads(result.stdout)
    entry = record["workloads"]["bulk_process"]
    assert (entry["pairs"], entry["seeds"], entry["failed"]) == (2, [7, 8], 1)
    rate = entry["metrics"]["ingest_records_per_s"]
    assert (rate["median"], rate["parent_median"], rate["change_pct"]) == (100.0, 100.0, 0.0)
    assert rate["won"] == 1  # higher is better: seed 7 won, seed 8 lost
    p50 = entry["metrics"]["write_p50_us"]
    assert (p50["median"], p50["parent_median"], p50["won"]) == (19.0, 21.0, 1)
    assert p50["change_pct"] == round(100 * (19.0 - 21.0) / 21.0, 1)
    assert entry["metrics"]["peak_rss_mb"]["won"] == 0  # ties count for neither
    assert record["claim"] is None
    kept = json.loads(trajectory.read_text())
    assert kept["records"] == [{"pr": 1}, record]
    assert trajectory.read_text().startswith('{\n "description": "d",\n "records": [\n  {"pr": 1},\n')
