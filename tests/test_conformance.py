"""Tests for the empirical IM-class conformance profiler (repro.obs.conformance).

The profiler is the empirical twin of the static classifier: it measures
per-append maintenance cost across controlled |C| / |R| / u sweeps and
fits the curves.  The tests certify a CA1 view as |C|-independent
(Theorem 4.2, slope ≈ 0), a CA-join view as IM-log(R)-conformant, and —
the case the profiler exists to catch — a deliberately planted C×C
chronicle product as NON-conformant with cost growing in |C|.
"""

import pytest

from repro import ChronicleDatabase, DatabaseConfig
from repro.algebra.ast import ChronicleProduct, scan
from repro.algebra.classify import IMClass, Language
from repro.complexity.fitting import GrowthClass, classify_growth, median
from repro.core.group import ChronicleGroup
from repro.errors import ConformanceError, ObservabilityError
from repro.obs import Observability, certify_expression, schema_record_factory
from repro.obs import runtime as obs_runtime
from repro.obs.conformance import ConformanceProfiler, span_probes, span_work


@pytest.fixture(autouse=True)
def _clean_runtime():
    assert obs_runtime.ACTIVE is None
    yield
    obs_runtime.ACTIVE = None


def make_db(**kwargs):
    db = ChronicleDatabase(config=DatabaseConfig(**kwargs))
    db.create_chronicle("flights", [("acct", "INT"), ("miles", "INT")])
    db.define_view(
        "DEFINE VIEW balance AS "
        "SELECT acct, SUM(miles) AS balance FROM flights GROUP BY acct"
    )
    return db


def make_join_db():
    db = ChronicleDatabase()
    db.create_chronicle("flights", [("acct", "INT"), ("miles", "INT")])
    db.create_relation("customers", [("acct", "INT"), ("state", "STR")], key=["acct"])
    db.define_view(
        "DEFINE VIEW by_state AS "
        "SELECT state, SUM(miles) AS total "
        "FROM flights JOIN customers ON flights.acct = customers.acct "
        "GROUP BY state"
    )
    return db


# ---------------------------------------------------------------------------
# Fitting support (classify_growth / median)
# ---------------------------------------------------------------------------


class TestClassifyGrowth:
    def test_exact_flat_is_constant(self):
        verdict = classify_growth([100, 1_000, 10_000], [7, 7, 7])
        assert isinstance(verdict, GrowthClass)
        assert verdict.model == "constant"
        assert verdict.flat
        assert verdict.fit.slope == 0.0
        assert verdict.fit.r_squared == 1.0

    def test_noisy_flat_is_constant_not_log(self):
        # 10% jitter over a 100x range: least squares alone would likely
        # pick "log"; the flatness test must call it constant.
        verdict = classify_growth([100, 1_000, 10_000], [100, 108, 95])
        assert verdict.model == "constant"
        assert verdict.flat

    def test_falling_series_is_constant_not_growth(self):
        # One hash-chain entry fewer on a count of six is a 33% dip:
        # outside the flatness slack, but a cost that falls is bounded.
        verdict = classify_growth([64, 256, 1_024], [6, 7, 4])
        assert verdict.model == "constant"
        assert not verdict.flat
        # The same jitter the other way round is still growth.
        assert classify_growth([64, 256, 1_024], [4, 4, 7]).model != "constant"

    def test_linear_growth_detected(self):
        verdict = classify_growth([100, 1_000, 10_000], [210, 2_030, 20_100])
        assert verdict.model == "linear"
        assert not verdict.flat
        assert verdict.fit.slope == pytest.approx(2.0, rel=0.05)

    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        with pytest.raises(ValueError):
            median([])


# ---------------------------------------------------------------------------
# Work metric
# ---------------------------------------------------------------------------


class TestWorkMetric:
    def test_work_excludes_locate_step(self):
        counters = {"tuple_op": 5, "index_probe": 40, "index_lookup": 3}
        assert span_work(counters) == 5
        assert span_probes(counters) == 43

    def test_schema_record_factory_covers_domains(self):
        db = make_db()
        factory = schema_record_factory(db.chronicle("flights").schema)
        record = factory(7)
        assert set(record) == {"acct", "miles"}  # sequence attr skipped
        rows = db.append("flights", record)
        assert len(rows) == 1


# ---------------------------------------------------------------------------
# Profiler: conformant views
# ---------------------------------------------------------------------------


class TestProfilerConformant:
    def test_ca1_view_is_c_independent(self):
        db = make_db()
        profiler = ConformanceProfiler(db, samples=3)
        cert = profiler.certify("balance", c_sizes=(64, 256, 1_024))
        assert cert.claimed is IMClass.CONSTANT
        assert cert.language is Language.CA1
        assert cert.conformant
        c_sweep = next(s for s in cert.sweeps if s.parameter == "|C|")
        assert c_sweep.model == "constant"
        assert abs(c_sweep.slope) < 1e-9
        assert c_sweep.passed

    def test_join_view_log_r_conformant(self):
        db = make_join_db()
        profiler = ConformanceProfiler(db, samples=3)
        cert = profiler.certify(
            "by_state", c_sizes=(64, 256, 1_024), r_sizes=(64, 256, 1_024)
        )
        assert cert.claimed is IMClass.LOG_R
        assert cert.conformant
        parameters = {(s.parameter, s.metric) for s in cert.sweeps}
        assert ("|R|", "work") in parameters
        assert ("|R|", "probes") in parameters

    def test_batch_sweep_at_most_linear_in_u(self):
        db = make_db()
        cert = ConformanceProfiler(db, samples=3).certify(
            "balance", c_sizes=(64, 128, 256), u_sizes=(1, 4, 16)
        )
        u_sweep = next(s for s in cert.sweeps if s.parameter == "u")
        assert u_sweep.model in ("constant", "log", "linear")
        assert u_sweep.passed

    def test_certificate_published_on_database_handle(self):
        db = make_db(observe=True)
        try:
            ConformanceProfiler(db, samples=3).certify(
                "balance", c_sizes=(64, 128, 256), u_sizes=None
            )
            assert "balance" in db.observability.certificates
            assert db.observability.certificates["balance"]["conformant"] is True
            snap = db.observability.snapshot()
            assert snap["certificates"] == {"balance": True}
        finally:
            db.disable_observability()

    def test_certificate_dict_round_trips(self):
        db = make_db()
        cert = ConformanceProfiler(db, samples=3).certify(
            "balance", c_sizes=(64, 128, 256)
        )
        data = cert.to_dict()
        assert data["view"] == "balance"
        assert data["claimed_class"] == IMClass.CONSTANT.value
        assert data["conformant"] is True
        assert all(
            {"parameter", "model", "slope", "r_squared", "passed"} <= set(sweep)
            for sweep in data["sweeps"]
        )
        assert "CONFORMANT" in cert.format()

    def test_database_facade(self):
        db = make_db()
        cert = db.certify_view("balance", samples=3, c_sizes=(64, 128, 256))
        assert cert.conformant
        certs = db.certify_views(samples=3, c_sizes=(64, 128, 256), u_sizes=None)
        assert set(certs) == {"balance"}

    def test_profiler_restores_runtime(self):
        """Measurement installs a private handle; it must not leak."""
        db = make_db()
        ConformanceProfiler(db, samples=2).certify("balance", c_sizes=(64, 128, 256))
        assert obs_runtime.ACTIVE is None

    def test_samples_validated(self):
        with pytest.raises(ValueError):
            ConformanceProfiler(make_db(), samples=0)


# ---------------------------------------------------------------------------
# Sharded engines: a sample is the view's cost on every shard it reaches
# ---------------------------------------------------------------------------


def _u_sweep(cert):
    return next(s for s in cert.sweeps if s.parameter == "u")


@pytest.mark.parametrize(
    "config",
    [
        pytest.param({}, id="serial"),
        pytest.param({"engine": "sharded", "shards": 2}, id="sharded-inline"),
        pytest.param(
            {"engine": "sharded", "shards": 2, "executor": "process"},
            id="sharded-process",
        ),
    ],
)
def test_partitioned_view_certifies_like_serial(config):
    """Each sample sums the view's maintain spans over all shards.

    Taking only the first ``maintain`` span of an append's trace
    measures one shard's partition of the batch: the u sweep then comes
    out ``[2, 4, 16]`` (fitted nlogn) instead of the serial
    ``[2, 8, 32]``, and a conformant view is certified NON-CONFORMANT.

    Process workers report no spans, so there the one drive loop refuses
    a partitioned view with a typed error naming the in-process executor.
    """
    serial = make_db().certify_view("balance", samples=3, c_sizes=(64, 128, 256))
    db = make_db(**config)
    try:
        if config.get("executor") == "process":
            for measure in (
                lambda: db.certify_view("balance", samples=3, c_sizes=(64, 128, 256)),
                lambda: db.explain("balance", analyze=True, events=8, batch=4),
            ):
                with pytest.raises(ObservabilityError, match="executor='serial'"):
                    measure()
            return
        cert = db.certify_view("balance", samples=3, c_sizes=(64, 128, 256))
        report = db.explain("balance", analyze=True, events=8, batch=4)
    finally:
        db.close()
    assert _u_sweep(cert).ys == _u_sweep(serial).ys == [2.0, 8.0, 32.0]
    assert cert.conformant, cert.format()
    # Every measured batch of 4 consecutive accounts reaches every shard.
    assert report.maintain.calls == 8 * config.get("shards", 1)
    assert report.maintain.rows == 8 * 4


# ---------------------------------------------------------------------------
# Profiler: the planted violation
# ---------------------------------------------------------------------------


class TestPlantedViolation:
    def _planted(self):
        group = ChronicleGroup("g")
        calls = group.create_chronicle("calls", [("acct", "INT"), ("mins", "INT")])
        fees = group.create_chronicle("fees", [("acct", "INT"), ("fee", "INT")])
        return group, calls, fees

    def test_chronicle_product_flagged_non_conformant(self):
        group, calls, fees = self._planted()
        expression = ChronicleProduct(scan(calls), scan(fees))
        cert = certify_expression(
            expression,
            group,
            driver=calls,
            grow=fees,
            sizes=(64, 256, 1_024),
            name="planted",
        )
        assert cert.language is Language.NOT_CA
        assert cert.engine == "reference"  # measured through the Thm 4.1 rules
        assert not cert.conformant
        c_sweep = cert.sweeps[0]
        assert c_sweep.model in ("linear", "nlogn", "quadratic", "cubic")
        assert not c_sweep.passed
        assert "NON-CONFORMANT" in cert.format()

    def test_seq_join_equivalent_stays_flat(self):
        """The CA rewrite of the same join must certify constant."""
        group, calls, fees = self._planted()
        expression = scan(calls).join(scan(fees))
        cert = certify_expression(
            expression,
            group,
            driver=calls,
            grow=fees,
            sizes=(64, 256, 1_024),
            allow_chronicle_access=False,
        )
        assert cert.conformant
        assert cert.sweeps[0].model == "constant"

    def test_unmeasurable_view_raises(self):
        """Drive records that never pass the prefilter → ConformanceError."""
        db = ChronicleDatabase()
        db.create_chronicle("flights", [("acct", "INT"), ("miles", "INT")])
        db.define_view(
            "DEFINE VIEW nothing AS "
            "SELECT acct, SUM(miles) AS total FROM flights "
            "WHERE miles < 0 GROUP BY acct"
        )
        profiler = ConformanceProfiler(db, samples=2)
        with pytest.raises(ConformanceError, match="prefilter"):
            profiler.certify("nothing", c_sizes=(16, 32, 64))
