import pytest

from weightlab import counterexample
from weightlab.errors import (GammaTooLarge, JHorizonTooSmall,
                              MismatchedCorners, OverflowAtJ, ValidationFailed)


def test_spot_arithmetic():
    p = counterexample.construct(counterexample.default_delta(5), 0.5, 5)
    assert p.t[0] == 0.5
    assert p.t[1] == 0.25
    assert p.x[0] == 4.0
    assert p.y[0] == 16.0
    assert p.x[1] == 32.0


def test_recursion_window():
    p = counterexample.construct(counterexample.default_delta(30), 0.5, 30)
    for j in range(1, 31):
        assert 0.0 < p.t[j - 1] < 1.0 / j


def test_certificates_all_pass(plateau_profile):
    bundle = counterexample.verify_profile(plateau_profile)
    assert bundle.all_ok
    assert bundle.failures() == []


def test_delta_admissibility():
    with pytest.raises(ValidationFailed):
        counterexample.AdmissibleDelta(tuple(float(j) for j in range(1, 11)),
                                       "rising")
    d = counterexample.default_delta(40)
    assert all(d[j + 1] <= d[j] for j in range(1, 40))


def test_power_delta_bounds():
    d = counterexample.power_delta(counterexample.default_delta(30), 0.5)
    assert all(d[j] <= 1.0 for j in range(1, 31))
    with pytest.raises(ValidationFailed):
        counterexample.power_delta(counterexample.default_delta(30), 2.0)


def test_nonconvexity_rungs(plateau_profile):
    certs = counterexample.nonconvexity_certificate(plateau_profile, A_max=16)
    assert [c["A"] for c in certs] == [1.0, 2.0, 4.0, 8.0, 16.0]
    assert all(c["margin"] > 0 for c in certs)
    assert all(c["j"] <= 60 for c in certs)


def test_nonconvexity_horizon_limit(plateau_profile):
    with pytest.raises(JHorizonTooSmall) as exc:
        counterexample.nonconvexity_certificate(plateau_profile, A_max=256)
    # everything reachable below the limit is still reported
    assert exc.value.certified
    assert exc.value.A == 128.0


def test_slow_variation(plateau_profile):
    reports = counterexample.slow_variation_certificate(plateau_profile,
                                                        (0.5, 1.0, 2.0, 5.0))
    assert [r.gamma for r in reports] == [0.5, 1.0, 2.0, 5.0]
    assert all(r.certified_K_e for r in reports)
    with pytest.raises(GammaTooLarge):
        counterexample.slow_variation_certificate(plateau_profile, (100.0,))


def test_nonequivalence_distinct_decays():
    d = counterexample.default_delta(60)
    dp = counterexample.power_delta(d, 0.5)
    v = counterexample.nonequivalence(d, dp, 60)
    assert v.holds or (v.inconclusive and
                       v.certificate["trend"] == "strictly_increasing")


def test_nonequivalence_same_delta_fails():
    d = counterexample.default_delta(60)
    assert counterexample.nonequivalence(d, d, 60).fails


def test_nonequivalence_rejects_mismatched_geometry():
    d = counterexample.default_delta(20)
    with pytest.raises(MismatchedCorners):
        counterexample.nonequivalence(d, d, 20, t1=0.5, t1_prime=0.4)


def test_overflow_is_reported():
    with pytest.raises(OverflowAtJ) as exc:
        counterexample.construct(counterexample.default_delta(300), 0.5, 300)
    assert exc.value.max_safe_j < 300
    # the reported J is the largest one construct actually builds
    J = exc.value.max_safe_j
    p = counterexample.construct(counterexample.default_delta(J), 0.5, J)
    assert p.J == J
    with pytest.raises(OverflowAtJ) as exc_next:
        counterexample.construct(counterexample.default_delta(J + 1), 0.5, J + 1)
    assert exc_next.value.max_safe_j == J


def test_profile_weight_matches_blocks(plateau_profile_small):
    p = plateau_profile_small
    w = p.weight
    for j in range(1, 6):
        b = p.block(j)
        assert w.phi(b["x"]) == pytest.approx(b["phi_x"], rel=1e-12)
        assert w.phi(b["y"]) == pytest.approx(b["phi_y"], rel=1e-12)
