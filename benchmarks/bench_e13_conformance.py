"""E13 — empirical IM-class conformance certificates.

The observability tentpole experiment: run the
:class:`~repro.obs.conformance.ConformanceProfiler` scaling sweeps
against live views and check that the *measured* cost curves match the
classes :mod:`repro.algebra.classify` claims from the operator trees:

* ``balance``   — CA1 SUM-GROUP-BY (claimed IM-Constant): per-append
  work must fit **constant** in |C| (Theorem 4.2) with slope ≈ 0;
* ``by_state``  — CA-join through a keyed relation (claimed IM-log(R)):
  work constant in |C| and |R|, probes at worst logarithmic in |R|;
* ``balance_sharded`` — ``balance`` again on a 2-shard inline
  database: each sample sums the view's spans over every shard its
  records reach, so the certificate must match the serial one;
* ``planted``   — a deliberately planted chronicle-product C×C
  (outside CA, so it can never register as a PersistentView; measured
  through :func:`~repro.obs.conformance.certify_expression`): its
  per-append cost **must** be flagged as growing with |C| — the
  profiler catching exactly the violation Theorem 4.3(2) predicts.

Work excludes ``index_probe``/``index_lookup`` (the permitted O(log |V|)
locate step); counters, not wall clock, drive the fits, so the verdicts
are deterministic.

The script exits non-zero when a verdict disagrees with the paper.
Set ``E13_ARTIFACTS=dir`` to also dump the live exporter surfaces —
``metrics.prom`` (Prometheus text), ``traces.jsonl`` (measurement span
trees), ``certificates.json`` (the uploaded record of each run), and
``attribution.txt`` (the flame-style cost tree) — the files CI uploads.
"""

import json
import os
import sys

from repro.algebra.ast import ChronicleProduct, scan
from repro.complexity.harness import format_table
from repro.core.config import DatabaseConfig
from repro.core.database import ChronicleDatabase
from repro.core.group import ChronicleGroup
from repro.obs import Observability, certify_expression, format_attribution
from repro.obs.conformance import ConformanceProfiler

C_SIZES = (256, 1_024, 4_096)
R_SIZES = (256, 1_024, 4_096)
SAMPLES = 3


def _flights(**config):
    """``flights`` and the ``balance`` view on a database built from *config*."""
    db = ChronicleDatabase(config=DatabaseConfig(**config))
    db.create_chronicle("flights", [("acct", "INT"), ("miles", "INT")])
    db.define_view(
        "DEFINE VIEW balance AS "
        "SELECT acct, SUM(miles) AS balance FROM flights GROUP BY acct"
    )
    return db


def _database():
    db = _flights()
    db.create_relation(
        "customers", [("acct", "INT"), ("state", "STR")], key=["acct"]
    )
    db.define_view(
        "DEFINE VIEW by_state AS "
        "SELECT state, SUM(miles) AS total "
        "FROM flights JOIN customers ON flights.acct = customers.acct "
        "GROUP BY state"
    )
    return db


def certify_views(observability=None):
    """Certificates for the registered (conformant-by-construction) views."""
    db = _database()
    profiler = ConformanceProfiler(db, samples=SAMPLES, observability=observability)
    return {
        "balance": profiler.certify("balance", c_sizes=C_SIZES),
        "by_state": profiler.certify("by_state", c_sizes=C_SIZES, r_sizes=R_SIZES),
    }


def certify_sharded():
    """``balance`` on a 2-shard inline database — must match the serial sweep."""
    db = _flights(engine="sharded", shards=2)
    try:
        return ConformanceProfiler(db, samples=SAMPLES).certify(
            "balance", c_sizes=C_SIZES
        )
    finally:
        db.close()


def certify_planted():
    """Certificate for the planted C×C view — must come back non-conformant."""
    group = ChronicleGroup("g")
    calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
    fees = group.create_chronicle("fees", [("acct", "INT"), ("fee", "INT")])
    expression = ChronicleProduct(scan(calls), scan(fees))
    return certify_expression(
        expression,
        group,
        driver=calls,
        grow=fees,
        sizes=C_SIZES,
        samples=SAMPLES,
        name="planted_cxc",
    )


def run_certificates():
    obs = Observability(trace_operators=False, audit="off")
    certificates = certify_views(observability=obs)
    certificates["balance_sharded"] = certify_sharded()
    certificates["planted_cxc"] = certify_planted()
    return certificates, obs


def _write_artifacts(directory, certificates, obs):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "metrics.prom"), "w") as handle:
        handle.write(obs.metrics.to_prometheus())
    obs.tracer.export_jsonl(os.path.join(directory, "traces.jsonl"))
    with open(os.path.join(directory, "certificates.json"), "w") as handle:
        json.dump(
            {name: cert.to_dict() for name, cert in certificates.items()},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    with open(os.path.join(directory, "attribution.txt"), "w") as handle:
        handle.write(format_attribution(obs.tracer.traces()) + "\n")


def _expected_verdicts(certificates) -> bool:
    """The CI gate: CA views conformant on both engines, the planted C×C flagged."""
    return (
        certificates["balance"].conformant
        and certificates["by_state"].conformant
        and certificates["balance_sharded"].conformant
        and not certificates["planted_cxc"].conformant
    )


def _format_report(certificates) -> str:
    rows = []
    for name, cert in certificates.items():
        for sweep in cert.sweeps:
            rows.append(
                [
                    name,
                    cert.claimed.value,
                    f"{sweep.parameter} {sweep.metric}",
                    sweep.model,
                    f"{sweep.slope:.3g}",
                    f"{sweep.r_squared:.3f}",
                    "PASS" if sweep.passed else "FAIL",
                ]
            )
    verdicts = ", ".join(
        f"{name}={'CONFORMANT' if cert.conformant else 'NON-CONFORMANT'}"
        for name, cert in certificates.items()
    )
    return (
        f"== E13  IM-class conformance (counter fits, "
        f"median of {SAMPLES} samples/point) ==\n"
        + format_table(
            ["view", "claimed", "sweep", "fitted", "slope", "r²", "verdict"], rows
        )
        + f"\nverdicts: {verdicts}\n"
        "expected: CA views CONFORMANT (|C| slope ≈ 0) on both engines; "
        "the planted C×C NON-CONFORMANT (Theorem 4.3(2) made empirical)\n"
    )


def run_report() -> str:
    certificates, obs = run_certificates()
    artifacts = os.environ.get("E13_ARTIFACTS")
    if artifacts:
        _write_artifacts(artifacts, certificates, obs)
    return _format_report(certificates)


def main() -> int:
    certificates, obs = run_certificates()
    artifacts = os.environ.get("E13_ARTIFACTS")
    if artifacts:
        _write_artifacts(artifacts, certificates, obs)
    sys.stdout.write(_format_report(certificates))
    if not _expected_verdicts(certificates):
        sys.stderr.write("E13: verdicts do not match the paper's claims\n")
        return 1
    return 0


def test_e13_ca1_independent():
    certificates = certify_views()
    cert = certificates["balance"]
    assert cert.conformant
    c_sweep = next(s for s in cert.sweeps if s.parameter == "|C|")
    assert c_sweep.model == "constant"
    assert abs(c_sweep.slope) < 1e-9


def test_e13_join_conformant():
    certificates = certify_views()
    assert certificates["by_state"].conformant


def test_e13_planted_product_flagged():
    cert = certify_planted()
    assert not cert.conformant
    c_sweep = cert.sweeps[0]
    assert c_sweep.model in ("linear", "nlogn", "quadratic", "cubic")


if __name__ == "__main__":
    sys.exit(main())
