"""Tests for repro.core.estimator and repro.core.flow.

Also the estimator's exact-path gate: the per-query integration the
estimator used to run on every :meth:`FaultCoverageEstimator.estimate`
call is kept below as the oracle, and every precomputed report must
match it float bit for float bit.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import CoverageDatabase, load_default_database
from repro.core.estimator import (
    ConditionEstimate,
    EmptyReportError,
    EstimatorReport,
    FaultCoverageEstimator,
)
from repro.core.flow import MemoryTestFlow
from repro.core.williams_brown import dpm
from repro.defects.distribution import (
    LognormalComponent,
    ResistanceDistribution,
    default_bridge_distribution,
    default_open_distribution,
)
from repro.ifa.flow import CoverageRecord
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry


def rec(kind, r, cond, detected, total=100):
    return CoverageRecord(kind, r, cond, 1.8, 1e-7, detected, total)


@pytest.fixture(scope="module")
def flow_result():
    return MemoryTestFlow(VEQTOR4_INSTANCE, n_sites=2000).run()


class TestEstimatorReport:
    def test_vlv_best_condition(self, flow_result):
        report = flow_result.bridge_report
        assert report.best_condition().condition == "VLV"
        assert report.by_condition("VLV").dpm_normalised == pytest.approx(1.0)

    def test_dpm_ratio_order_of_magnitude(self, flow_result):
        """Paper Section 3.1: ~9.3x between Vmax and VLV."""
        ratio = flow_result.bridge_report.dpm_ratio("Vmax", "VLV")
        assert 5.0 < ratio < 20.0

    def test_defect_coverage_ordering(self, flow_result):
        report = flow_result.bridge_report
        dc = {e.condition: e.defect_coverage for e in report.estimates}
        assert dc["VLV"] > dc["Vmin"] > dc["Vmax"]

    def test_defect_coverage_near_paper(self, flow_result):
        report = flow_result.bridge_report
        assert report.by_condition("VLV").defect_coverage == pytest.approx(
            0.9892, abs=0.02)
        assert report.by_condition("Vmax").defect_coverage == pytest.approx(
            0.8976, abs=0.05)

    def test_unknown_condition(self, flow_result):
        with pytest.raises(KeyError):
            flow_result.bridge_report.by_condition("Vhuge")

    def test_open_report_prefers_stress(self, flow_result):
        """Opens: Vmax and at-speed beat Vnom (Sections 4.2/4.3)."""
        report = flow_result.open_report
        dc = {e.condition: e.defect_coverage for e in report.estimates}
        assert dc["Vmax"] > dc["Vnom"]
        assert dc["at-speed"] > dc["Vnom"]


class TestEstimatorApi:
    def test_yield_override(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        g = MemoryGeometry(4, 2, 2)
        rep = est.estimate(g, "bridge", yield_fraction=0.5)
        assert rep.yield_fraction == 0.5

    def test_yield_from_geometry(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        small = est.estimate(MemoryGeometry(4, 2, 2), "bridge")
        big = est.estimate(MemoryGeometry(512, 16, 32), "bridge")
        assert small.yield_fraction > big.yield_fraction

    def test_bigger_memory_higher_dpm(self):
        """Same coverage, larger area -> lower yield -> more escapes;
        the paper's motivation: growing memory size endangers SoC DPM."""
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        small = est.estimate(MemoryGeometry(64, 4, 8), "bridge")
        big = est.estimate(MemoryGeometry(512, 16, 32), "bridge")
        assert (big.by_condition("VLV").dpm
                > small.by_condition("VLV").dpm)

    def test_invalid_kind(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        with pytest.raises(ValueError):
            est.estimate(MemoryGeometry(4, 2, 2), "stuck")

    def test_invalid_yield(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        with pytest.raises(ValueError):
            est.estimate(MemoryGeometry(4, 2, 2), "bridge",
                         yield_fraction=1.5)

    def test_escapes_per_million(self, flow_result):
        est = flow_result.estimator
        vlv = est.escapes_per_million(VEQTOR4_INSTANCE, "bridge", "VLV")
        vmax = est.escapes_per_million(VEQTOR4_INSTANCE, "bridge", "Vmax")
        assert vmax > vlv > 0.0


class TestFlowPlumbing:
    def test_database_carries_both_kinds(self, flow_result):
        assert set(flow_result.database.conditions("bridge")) == {
            "VLV", "Vmin", "Vnom", "Vmax", "at-speed"}
        assert flow_result.database.resistances("open")

    def test_flow_deterministic(self):
        g = MemoryGeometry(16, 2, 4)
        r1 = MemoryTestFlow(g, n_sites=500, seed=3).run()
        r2 = MemoryTestFlow(g, n_sites=500, seed=3).run()
        assert (r1.bridge_report.by_condition("VLV").defect_coverage
                == r2.bridge_report.by_condition("VLV").defect_coverage)

    def test_flow_validates_n_sites(self):
        with pytest.raises(ValueError):
            MemoryTestFlow(MemoryGeometry(4, 2, 2), n_sites=0)


class TestZeroDpmNormalisation:
    """Perfect-coverage suites: 0/0 DPM normalises to 1.0, never inf."""

    def test_perfect_suite_normalises_to_one(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 100),
                               rec("bridge", 1e3, "Vmax", 100)])
        rep = FaultCoverageEstimator(db).estimate(
            MemoryGeometry(4, 2, 2), "bridge")
        for e in rep.estimates:
            assert e.dpm == 0.0
            assert e.dpm_normalised == 1.0

    def test_imperfect_condition_against_perfect_best_is_inf(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 100),
                               rec("bridge", 1e3, "Vmax", 60)])
        rep = FaultCoverageEstimator(db).estimate(
            MemoryGeometry(4, 2, 2), "bridge")
        assert rep.by_condition("VLV").dpm_normalised == 1.0
        assert rep.by_condition("Vmax").dpm_normalised == float("inf")

    def test_with_normalisation_zero_over_zero(self):
        est = ConditionEstimate("VLV", {1e3: 1.0}, 1.0, dpm=0.0)
        assert est.with_normalisation(0.0).dpm_normalised == 1.0

    def test_dpm_ratio_both_zero_is_one(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 100),
                               rec("bridge", 1e3, "Vmax", 100)])
        rep = FaultCoverageEstimator(db).estimate(
            MemoryGeometry(4, 2, 2), "bridge")
        assert rep.dpm_ratio("Vmax", "VLV") == 1.0

    def test_dpm_ratio_nonzero_over_zero_is_inf(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 100),
                               rec("bridge", 1e3, "Vmax", 60)])
        rep = FaultCoverageEstimator(db).estimate(
            MemoryGeometry(4, 2, 2), "bridge")
        assert rep.dpm_ratio("Vmax", "VLV") == float("inf")


class TestNamedErrors:
    def test_empty_report_best_condition(self):
        report = EstimatorReport("bridge", MemoryGeometry(4, 2, 2),
                                 1.0, ())
        with pytest.raises(EmptyReportError,
                           match="no condition estimates"):
            report.best_condition()

    def test_empty_report_error_is_a_value_error(self):
        assert issubclass(EmptyReportError, ValueError)

    def test_absent_kind_raises_named_keyerror(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        with pytest.raises(KeyError, match="no records for kind='open'"):
            est.estimate(MemoryGeometry(4, 2, 2), "open")


class TestRelativeCoverage:
    def test_bridge_vlv_relative_near_one(self, flow_result):
        """VLV's per-R curve *is* the bridge envelope almost everywhere."""
        rel = flow_result.bridge_report.by_condition("VLV").relative_coverage
        assert rel == pytest.approx(1.0, abs=0.02)

    def test_open_relative_ranking_matches_paper_sections(self, flow_result):
        """Sections 4.2/4.3: opens belong to Vmax and at-speed; the
        detectable-relative view makes that unmistakable."""
        report = flow_result.open_report
        rel = {e.condition: e.relative_coverage for e in report.estimates}
        assert rel["at-speed"] > rel["Vnom"] > rel["Vmin"]
        assert rel["Vmax"] > rel["Vnom"]

    def test_relative_at_least_absolute(self, flow_result):
        for report in (flow_result.bridge_report, flow_result.open_report):
            for est in report.estimates:
                assert est.relative_coverage >= est.defect_coverage - 1e-9


# ----------------------------------------------------------------------
# Exact-path oracle: the per-query integration, as it ran before the
# estimator precomputed its tables.
# ----------------------------------------------------------------------
def oracle_weighted_coverage(db, kind, condition, distribution, n_grid=96):
    grid = distribution.quantile_grid(n_grid)
    total = 0.0
    prev_cdf = distribution.cdf(grid[0])
    total += prev_cdf * db.coverage(kind, condition, grid[0])
    for r0, r1 in zip(grid, grid[1:]):
        cdf1 = distribution.cdf(r1)
        mass = cdf1 - prev_cdf
        mid = math.sqrt(r0 * r1)
        total += mass * db.coverage(kind, condition, mid)
        prev_cdf = cdf1
    total += (1.0 - prev_cdf) * db.coverage(kind, condition, grid[-1])
    return min(max(total, 0.0), 1.0)


def oracle_envelope_coverage(db, kind, distribution, n_grid=96):
    conditions = db.conditions(kind)
    if not conditions:
        raise KeyError(f"no records for kind={kind!r}")
    grid = distribution.quantile_grid(n_grid)
    total = 0.0
    prev_cdf = distribution.cdf(grid[0])

    def best(r):
        return max(db.coverage(kind, c, r) for c in conditions)

    total += prev_cdf * best(grid[0])
    for r0, r1 in zip(grid, grid[1:]):
        cdf1 = distribution.cdf(r1)
        total += (cdf1 - prev_cdf) * best(math.sqrt(r0 * r1))
        prev_cdf = cdf1
    total += (1.0 - prev_cdf) * best(grid[-1])
    return min(max(total, 0.0), 1.0)


def oracle_estimate(est, geometry, kind="bridge", yield_fraction=None):
    db = est.database
    if kind not in ("bridge", "open"):
        raise ValueError("kind must be 'bridge' or 'open'")
    if not db.conditions(kind):
        raise KeyError(
            f"no records for kind={kind!r}; "
            f"available kinds: {db.kinds()}")
    dist = (est.bridge_distribution if kind == "bridge"
            else est.open_distribution)
    y = (est.yield_for(geometry) if yield_fraction is None
         else yield_fraction)
    if not 0.0 < y <= 1.0:
        raise ValueError(f"yield must be in (0, 1], got {y}")

    envelope = oracle_envelope_coverage(db, kind, dist)
    estimates = []
    for condition in db.conditions(kind):
        fc = {
            r: db.coverage(kind, condition, r)
            for r in db.resistances(kind)
        }
        dc = oracle_weighted_coverage(db, kind, condition, dist)
        estimates.append(ConditionEstimate(
            condition=condition,
            fault_coverage=fc,
            defect_coverage=dc,
            dpm=dpm(y, dc),
            relative_coverage=(dc / envelope if envelope > 0 else 1.0),
        ))
    best = min(e.dpm for e in estimates) if estimates else 0.0
    normalised = tuple(e.with_normalisation(best) for e in estimates)
    return EstimatorReport(kind, geometry, y, normalised)


def assert_reports_identical(got, want):
    assert got.kind == want.kind
    assert got.geometry == want.geometry
    assert got.yield_fraction.hex() == want.yield_fraction.hex()
    assert len(got.estimates) == len(want.estimates)
    for g, w in zip(got.estimates, want.estimates):
        assert g.condition == w.condition
        assert list(g.fault_coverage.items()) == list(
            w.fault_coverage.items())
        for field in ("defect_coverage", "relative_coverage", "dpm",
                      "dpm_normalised"):
            assert getattr(g, field).hex() == getattr(w, field).hex(), (
                g.condition, field)


def assert_estimate_matches_oracle(est, geometry, kind, yield_fraction):
    try:
        want = oracle_estimate(est, geometry, kind, yield_fraction)
    except (KeyError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            est.estimate(geometry, kind, yield_fraction)
        assert str(got.value) == str(exc)
        return
    assert_reports_identical(est.estimate(geometry, kind, yield_fraction),
                             want)


def tail_distribution(tail_weight):
    """The soft-bridge tail family of benchmarks/test_ablation_rdist.py."""
    return ResistanceDistribution([
        LognormalComponent(1.0 - tail_weight, 50.0, 1.2),
        LognormalComponent(tail_weight, 8.0e3, 2.0),
    ], name=f"tail={tail_weight:.2f}")


def perturbed(db, seed):
    """``db`` with every detected count and resistance nudged."""
    rng = random.Random(seed)
    return CoverageDatabase([
        dataclasses.replace(
            r, resistance=r.resistance * rng.uniform(0.8, 1.25),
            detected=rng.randint(0, r.total))
        for r in db.records])


def one_r_per_condition():
    conditions = ("VLV", "Vmin", "Vnom", "Vmax", "at-speed")
    return CoverageDatabase(
        [rec("bridge", 10.0 ** (2 + i), c, 95 - 7 * i)
         for i, c in enumerate(conditions)]
        + [rec("open", 10.0 ** (4 + i), c, 20 + 9 * i)
           for i, c in enumerate(conditions)])


def bridge_only(db):
    return CoverageDatabase([r for r in db.records if r.kind == "bridge"])


DATABASES = {
    "shipped": load_default_database,
    "perturbed": lambda: perturbed(load_default_database(), seed=7),
    "one-r-per-condition": one_r_per_condition,
    "bridge-only": lambda: bridge_only(load_default_database()),
}

DISTRIBUTIONS = {
    "default": (None, None),
    **{f"tail={t}": (tail_distribution(t), tail_distribution(t))
       for t in (0.05, 0.15, 0.25, 0.40)},
}

YIELDS = (None, 0.5, 1.0, 1e-12)

GEOMETRIES = (VEQTOR4_INSTANCE, MemoryGeometry(4, 2, 2),
              MemoryGeometry(1024, 64, 32, 4))


class TestExactPathEquivalence:
    """Precomputed tables == per-query integration, bit for bit."""

    @pytest.mark.parametrize("db_name", sorted(DATABASES))
    @pytest.mark.parametrize("dist_name", sorted(DISTRIBUTIONS))
    def test_estimate_matches_oracle(self, db_name, dist_name):
        bridge, open_ = DISTRIBUTIONS[dist_name]
        est = FaultCoverageEstimator(DATABASES[db_name](),
                                     bridge_distribution=bridge,
                                     open_distribution=open_)
        for geometry in GEOMETRIES:
            for kind in ("bridge", "open"):
                for y in YIELDS:
                    assert_estimate_matches_oracle(est, geometry, kind, y)

    def test_flow_built_database(self, flow_result):
        est = flow_result.estimator
        for kind in ("bridge", "open"):
            for y in YIELDS:
                assert_estimate_matches_oracle(est, VEQTOR4_INSTANCE,
                                               kind, y)
        assert_reports_identical(
            flow_result.bridge_report,
            oracle_estimate(est, VEQTOR4_INSTANCE, "bridge"))

    def test_bridge_only_open_query_keyerror_text(self):
        est = FaultCoverageEstimator(bridge_only(load_default_database()))
        with pytest.raises(KeyError) as want:
            oracle_estimate(est, VEQTOR4_INSTANCE, "open")
        with pytest.raises(KeyError) as got:
            est.estimate(VEQTOR4_INSTANCE, "open")
        assert str(got.value) == str(want.value)
        assert "available kinds: ['bridge']" in str(got.value)

    def test_validation_order(self):
        """Bad kind before absent kind before bad yield."""
        est = FaultCoverageEstimator(bridge_only(load_default_database()))
        g = MemoryGeometry(4, 2, 2)
        with pytest.raises(ValueError, match="kind must be"):
            est.estimate(g, "stuck", yield_fraction=2.0)
        with pytest.raises(KeyError):
            est.estimate(g, "open", yield_fraction=2.0)
        with pytest.raises(ValueError, match="yield must be"):
            est.estimate(g, "bridge", yield_fraction=2.0)

    @pytest.mark.parametrize("db_name", sorted(DATABASES))
    @pytest.mark.parametrize("n_grid", [1, 2, 7, 96])
    def test_integrals_match_oracle(self, db_name, n_grid):
        db = DATABASES[db_name]()
        for kind, dist in (("bridge", default_bridge_distribution()),
                           ("open", default_open_distribution()),
                           ("bridge", tail_distribution(0.25))):
            if not db.conditions(kind):
                continue
            by_condition, envelope = db.coverage_integrals(kind, dist,
                                                           n_grid)
            want_env = oracle_envelope_coverage(db, kind, dist, n_grid)
            assert envelope.hex() == want_env.hex()
            assert db.envelope_coverage(kind, dist, n_grid).hex() == (
                want_env.hex())
            assert list(by_condition) == db.conditions(kind)
            for condition, dc in by_condition.items():
                want = oracle_weighted_coverage(db, kind, condition, dist,
                                                n_grid)
                assert dc.hex() == want.hex()
                assert db.weighted_coverage(kind, condition, dist,
                                            n_grid).hex() == want.hex()

    def test_reports_do_not_alias(self):
        est = FaultCoverageEstimator(load_default_database())
        first = est.estimate(VEQTOR4_INSTANCE, "bridge")
        for e in first.estimates:
            for r in e.fault_coverage:
                e.fault_coverage[r] = -1.0
            e.fault_coverage[123.0] = 0.5
        assert_reports_identical(
            est.estimate(VEQTOR4_INSTANCE, "bridge"),
            oracle_estimate(est, VEQTOR4_INSTANCE, "bridge"))


_records = st.lists(
    st.builds(
        rec,
        st.sampled_from(["bridge", "open"]),
        st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
        st.sampled_from(["VLV", "Vmin", "Vmax"]),
        st.integers(min_value=0, max_value=100)),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(records=_records,
       median=st.floats(min_value=1.0, max_value=1e7),
       sigma=st.floats(min_value=0.2, max_value=3.0),
       y=st.sampled_from(YIELDS))
def test_random_databases_match_oracle(records, median, sigma, y):
    dist = ResistanceDistribution([LognormalComponent(1.0, median, sigma)])
    est = FaultCoverageEstimator(CoverageDatabase(records),
                                 bridge_distribution=dist,
                                 open_distribution=dist)
    for kind in ("bridge", "open"):
        assert_estimate_matches_oracle(est, MemoryGeometry(64, 4, 8),
                                       kind, y)
