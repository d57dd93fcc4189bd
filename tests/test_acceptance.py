"""End-to-end acceptance gate.

Each test is one line of the release checklist: exact construction
invariants, frozen numerical oracles, and cross-module consistency checks.
Tolerances are pinned; a failure here means a behavioral regression (or a
documented limitation, see the module docstrings of the individual tests).
"""

import json
import math
import time

import numpy as np
import pytest

from weightlab import (Gevrey, Log, Power, cli, conditions, conjugate, counterexample,
                       growth, lpspace, relations)
from weightlab.errors import JHorizonTooSmall


def test_01_staircase_construction_invariants(plateau_profile):
    t0 = time.perf_counter()
    bundle = counterexample.verify_profile(plateau_profile)
    assert bundle.all_ok, bundle.failures()
    names = {item["name"] for item in bundle.items}
    assert {"t_window", "x_lower_bound", "min_gap_at_least_j",
            "rise_slope_identity", "plateau_identity"} <= names
    assert time.perf_counter() - t0 < 1.0


def test_02_spot_arithmetic_exact():
    p = counterexample.construct(counterexample.default_delta(5), 0.5, 5)
    assert p.t[1] == 0.25
    assert p.x[0] == 4.0
    assert p.y[0] == 16.0
    assert p.x[1] == 32.0


def test_03_nonconvexity_ladder_to_1024(plateau_profile):
    """Witness blocks sit near j ~ 2A/3, so rungs A >= 128 need blocks
    beyond J=60; the reachable part of the ladder must still be certified
    with positive margins and the convexity checker must refute the profile
    at its first plateau.

    The ladder to 1024 cannot complete on this profile: phi stays below
    90.01 (phi** + 1), with phi** its convex minorant, so no triple violates
    the inequality at A >= 91. A normal return would be a false certificate.
    """
    om4 = conditions.check_condition(plateau_profile.weight, "om4")
    assert om4.fails
    assert om4.witness["u"] == pytest.approx(plateau_profile.xbar[0])

    t0 = time.perf_counter()
    with pytest.raises(JHorizonTooSmall) as info:
        counterexample.nonconvexity_certificate(plateau_profile, A_max=1024)
    elapsed = time.perf_counter() - t0
    exc = info.value

    certs = exc.certified
    assert [c["A"] for c in certs] == [2.0 ** k for k in range(7)]
    phi = plateau_profile.weight.phi
    for c in certs:
        A, j = c["A"], c["j"]
        assert c["margin"] > 0
        assert 2 * A / 3 < j <= 2 * A / 3 + 1
        # replay the witness through the weight itself
        i = j - 1
        t = plateau_profile.t[i]
        lhs = float(phi(plateau_profile.xbar[i]))
        rhs = A * (t * float(phi(plateau_profile.y[i]))
                   + (1 - t) * float(phi(plateau_profile.x[i])) + 1)
        assert lhs > rhs

    assert exc.A == 128.0
    assert exc.required_j > plateau_profile.J
    assert elapsed < 1.0


def test_04_biconjugate_gap(plateau_profile):
    p = plateau_profile
    mids = np.array([(p.xbar[j] + p.y[j]) / 2.0 for j in range(10)])
    u = np.union1d(np.linspace(0.0, float(p.y[10]), 4000), mids)
    biconj, rep = conjugate.double_conjugate(p.weight, u)
    phi = np.asarray(p.weight.phi(u))
    assert np.all(phi - biconj >= -1e-8)
    gaps = np.asarray(p.weight.phi(mids)) - np.interp(mids, u, biconj)
    assert np.all(gaps > 0)

    ug = np.linspace(0.0, 12.0, 500)
    _, rep2 = conjugate.double_conjugate(Gevrey(2.0), ug)
    assert rep2.max_gap < 1e-6


def test_05_growth_index_and_slow_variation(plateau_profile):
    t0 = time.perf_counter()
    for alpha in (1.0 / 3.0, 0.5, 1.0):
        est = growth.growth_index(Power(alpha))
        target = 1.0 / alpha
        assert est.lower_bound <= target <= est.upper_bound * 1.0 + 1e-9
        assert est.upper_bound - est.lower_bound <= 0.05 * target
    reports = counterexample.slow_variation_certificate(
        plateau_profile, (0.5, 1.0, 2.0, 5.0))
    assert all(r.certified_K_e for r in reports)
    assert time.perf_counter() - t0 < 5.0


def test_06_kappa_oracle_and_chain():
    for y in (1.0, 4.0, 100.0):
        res = growth.kappa(Power(0.5), y)
        assert 0.99 <= res.value / (2.0 * math.sqrt(y)) <= 1.01
    assert growth.kappa(Power(1.0), 1.0).kind == "divergent"
    assert growth.kappa_equivalence_check(Power(0.5)).holds
    assert conditions.check_condition(Power(0.5), "om_snq").holds
    est = growth.growth_index(Power(0.5), T=1e6)
    assert est.lower_bound > 1.0
    conditions.check_implication_chain(Power(0.5))  # a broken link raises


def test_07_conjugate_oracle_and_fenchel_young():
    prof = conjugate.young_conjugate(Power(1.0), x_max=150.0)
    ys = np.linspace(0.0, 40.0, 400_000)
    phis = np.exp(ys)
    for x in np.geomspace(0.1, 100.0, 25):
        brute = float(np.max(x * ys - phis))
        expect = x * math.log(x) - x
        assert prof.value(float(x)) == pytest.approx(expect, rel=1e-6, abs=1e-6)
        assert brute <= expect + 1e-6 * (1.0 + abs(expect))

    rng = np.random.default_rng(42)
    xs = rng.uniform(0.0, 100.0, 10_000)
    yy = rng.uniform(0.0, 30.0, 10_000)
    for x, y in zip(xs, yy):
        lhs = prof.value(float(x)) + math.exp(y)
        assert lhs >= x * y - 1e-7 * (1.0 + abs(lhs))

    logW = conjugate.associated_weight_matrix(Power(0.5), ell=1.0, j_max=60)
    assert np.all(np.diff(logW, 2) >= -1e-8)
    logW2 = conjugate.associated_weight_matrix(Power(0.5), ell=2.0, j_max=60)
    assert np.all(logW2 >= logW - 1e-8)
    from weightlab import Normalized
    logWn = conjugate.associated_weight_matrix(Normalized(Power(0.5)),
                                               ell=1.0, j_max=10)
    assert logWn[0] == pytest.approx(0.0, abs=1e-12)  # W_0 = 1


def test_08_relation_suite():
    alphas = (0.25, 0.5, 1.0)
    for a in alphas:
        for b in alphas:
            got = relations.compare(Power(a), Power(b), "preceq").verdict
            assert got.holds == (b <= a), (a, b)
            got = relations.compare(Power(a), Power(b), "triangle").verdict
            assert got.holds == (b < a), (a, b)

    for pair in ((Power(1.0), Power(0.5)), (Power(0.5), Log()),
                 (Power(1.0), Log()), (Power(0.5), Power(0.25))):
        relations.bridge_check(*pair)  # a broken link raises

    rng = np.random.default_rng(7)
    ells = (0.5, 1.0, 2.0)
    for _ in range(20):
        a, b = rng.uniform(0.2, 1.0, 2)
        scalar = relations.compare(Power(a), Power(b), "preceq").verdict
        matrix = relations.matrix_relation(
            relations.WeightMatrix.exponential(Power(a)),
            relations.WeightMatrix.exponential(Power(b)),
            "beurling", ells).verdict
        if not (scalar.inconclusive or matrix.inconclusive):
            assert matrix.holds == scalar.holds, (a, b)


def test_09_lp_suite():
    rng = np.random.default_rng(11)
    for _ in range(10):
        b = rng.uniform(0.25, 0.95)
        a = rng.uniform(b, 1.0)  # related: tau = t^b below sigma = t^a
        er = lpspace.inclusion_experiment(
            relations.WeightMatrix.exponential(Power(a)),
            relations.WeightMatrix.exponential(Power(b)), 2.0, "beurling")
        assert er.relation.verdict.holds and er.all_ok, (a, b)
    for _ in range(10):
        a = rng.uniform(0.25, 0.7)
        b = rng.uniform(a + 0.2, 1.0)  # unrelated: tau grows strictly faster
        er = lpspace.inclusion_experiment(
            relations.WeightMatrix.exponential(Power(a)),
            relations.WeightMatrix.exponential(Power(b)), 2.0, "beurling")
        assert er.relation.verdict.fails, (a, b)
        assert er.converse_rows and er.all_ok
        assert any(r["kind"] == "divergent" for r in er.converse_rows)


def test_10_nonequivalence():
    d = counterexample.default_delta(60)
    dp = counterexample.power_delta(d, 0.5)
    v = counterexample.nonequivalence(d, dp, 60)
    cert = v.certificate
    assert cert is not None and cert["trend"] == "strictly_increasing"
    assert counterexample.nonequivalence(d, d, 60).fails


def test_11_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["counterexample", "--certify", "all"]
    assert cli.run(args + ["--out", str(a)]) == 0
    assert cli.run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["schema_version"] == 1
