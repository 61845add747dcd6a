"""End-to-end acceptance suite.

One test per headline guarantee of the package: calibration exactness,
conditional-weight conservation, degree-preserving-null residuals, estimator
oracle equivalence, rest-of-the-world correction contract, sign-pattern
recovery on synthetic data, placebo contrast, benchmark metrics, fixture
replication, and byte-level determinism.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditnet.core import Sample, derived_degrees, derived_strengths
from creditnet.econometrics import (DesignMatrix, Model, ModelSpec, Placebo,
                                    Stage, build_design, fit_logit, fit_ols,
                                    fit_ols_fixed_effects, rest_of_world, vif)
from creditnet.ingest import parse_sample
from creditnet.netstats import summarize
from creditnet.nullmodel import (Variant, bicm_from_network, calibrate_z,
                                 expected_metrics, fitness_spec_from_sample,
                                 random_baseline, sample_ensemble)
from creditnet.pipeline import RunConfig, run
from creditnet.synthgen import GenConfig, generate
from conftest import make_network, make_sample
from oracles import (herman_correct, logit_grid_refine, logit_newton,
                     ols_normal_equations, ols_with_group_dummies,
                     precision_at_l, rmsre)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# 113 x 61 generated benchmark: calibrated to the consolidated-scale
# headline statistics (density 0.07, mean degrees 4.34 / 7.97, CVs
# 0.75 / 1.83); shared by the conservation, residual, and replication tests.
BENCH_CONFIG = GenConfig(n_firms=113, n_banks=61, seed=11,
                         target_density=0.07, firm_size_sigma=1.0,
                         bank_size_sigma=2.1)


@pytest.fixture(scope="module")
def bench_sample():
    sample, _ = generate(BENCH_CONFIG)
    return sample


def _fake_design(X, y, names=None, dummies=(), groups=None):
    names = tuple(names or (f"x{i}" for i in range(X.shape[1])))
    n = len(y)
    return DesignMatrix(
        spec=ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY),
        column_names=names,
        augmented=np.column_stack([np.ones(n), X]), y=y,
        firm_index=np.zeros(n, dtype=int),
        bank_index=np.zeros(n, dtype=int) if groups is None else groups,
        dummy_columns=frozenset(dummies), bank_columns=frozenset(),
        n_floored={}, n_dropped=0)


# --------------------------------------------------------------------------
# 1. calibration exactness


def test_acceptance_calibration_exactness():
    start = time.monotonic()

    # homogeneous fitnesses: closed form z = d / (1 - d)
    d = 0.07
    s = np.ones(50)
    t = np.ones(20)
    z = calibrate_z(s, t, d * 50 * 20)
    assert abs(z - d / (1 - d)) / (d / (1 - d)) <= 1e-10

    # heterogeneous instances: the calibrated z reproduces the link target
    rng = np.random.default_rng(20260824)
    for _ in range(100):
        nf = int(rng.integers(5, 51))
        nb = int(rng.integers(3, 21))
        s = rng.lognormal(rng.uniform(-1, 2), rng.uniform(0.3, 1.5), nf)
        t = rng.lognormal(rng.uniform(-1, 2), rng.uniform(0.3, 1.5), nb)
        target = float(rng.uniform(1.0, 0.9 * nf * nb))
        z = calibrate_z(s, t, target)
        p = z * np.outer(s, t)
        p /= 1 + p
        assert abs(p.sum() - target) / target <= 1e-10

    assert time.monotonic() - start < 1.0


# --------------------------------------------------------------------------
# 2. conditional-weight conservation


def test_acceptance_conditional_weight_conservation(bench_sample):
    start = time.monotonic()
    spec = fitness_spec_from_sample(bench_sample, Variant.NETWORK_DRIVEN)
    metrics = expected_metrics(spec)
    s_net, t_net = derived_strengths(bench_sample.network)

    # closed form: expected strengths reproduce the observed strengths
    np.testing.assert_allclose(metrics.firm_strengths, s_net, rtol=1e-10)
    np.testing.assert_allclose(metrics.bank_strengths, t_net, rtol=1e-10)

    # Monte Carlo: every node mean within 3 standard errors
    acc = sample_ensemble(spec, n_samples=10_000, seed=0)
    for mean, expect, stderr in (
        (acc.mean("firm_strengths"), metrics.firm_strengths,
         metrics.stderr("firm_strengths", 10_000)),
        (acc.mean("bank_strengths"), metrics.bank_strengths,
         metrics.stderr("bank_strengths", 10_000)),
        (acc.mean("firm_degrees"), metrics.firm_degrees,
         metrics.stderr("firm_degrees", 10_000)),
        (acc.mean("bank_degrees"), metrics.bank_degrees,
         metrics.stderr("bank_degrees", 10_000)),
    ):
        assert np.all(np.abs(mean - expect) <= 3 * np.maximum(stderr, 1e-12))

    assert time.monotonic() - start < 30.0


# --------------------------------------------------------------------------
# 3. degree-preserving null residuals


def test_acceptance_degree_null_residuals(bench_sample):
    net = bench_sample.network
    k, h = derived_degrees(net)
    spec = bicm_from_network(net)
    p = spec.probability_matrix()
    residual = max(np.abs(p.sum(axis=1) - k).max(),
                   np.abs(p.sum(axis=0) - h).max())
    assert residual < 1e-8

    acc = sample_ensemble(spec, n_samples=10_000, seed=0)
    expected = expected_metrics(spec)
    assert np.all(np.abs(acc.mean("firm_degrees") - k)
                  <= 3 * np.maximum(expected.stderr("firm_degrees", 10_000),
                                    1e-12))
    assert np.all(np.abs(acc.mean("bank_degrees") - h)
                  <= 3 * np.maximum(expected.stderr("bank_degrees", 10_000),
                                    1e-12))


# --------------------------------------------------------------------------
# 4. estimator oracles


def test_acceptance_logit_oracles():
    rng = np.random.default_rng(99)
    for _ in range(5):
        n, p = 300, int(rng.integers(2, 5))
        X = rng.normal(0, 1, (n, p))
        beta_true = rng.uniform(-1, 1, p + 1)
        eta = beta_true[0] + X @ beta_true[1:]
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)

        fit = fit_logit(_fake_design(X, y))
        est = np.array([c.estimate for c in fit.coefficients.values()])
        Xc = np.column_stack([np.ones(n), X])
        np.testing.assert_allclose(est, logit_newton(Xc, y), atol=1e-8)
        refined = logit_grid_refine(Xc, y, est)
        np.testing.assert_allclose(est, refined, atol=1e-4)


def test_acceptance_ols_fe_vif_oracles():
    rng = np.random.default_rng(7)

    # plain OLS vs explicit normal equations
    X = rng.normal(0, 1, (150, 4))
    y = 0.5 + X @ np.array([1.0, -2.0, 0.3, 0.0]) + rng.normal(0, 0.5, 150)
    fit = fit_ols(_fake_design(X, y))
    est = np.array([c.estimate for c in fit.coefficients.values()])
    ses = np.array([c.std_error for c in fit.coefficients.values()])
    beta_o, se_o = ols_normal_equations(np.column_stack([np.ones(150), X]), y)
    np.testing.assert_allclose(est, beta_o, atol=1e-10)
    np.testing.assert_allclose(ses, se_o, atol=1e-10)

    # fixed effects vs the dummy-variable regression
    groups = rng.integers(0, 6, 150)
    alpha = rng.normal(0, 2, 6)
    y_fe = X[:, :3] @ np.array([1.5, -0.7, 0.2]) + alpha[groups] \
        + rng.normal(0, 0.4, 150)
    d = DesignMatrix(
        spec=ModelSpec(Stage.LOAN_SIZING, Model.M2_NETWORK),
        column_names=("x0", "x1", "x2"),
        augmented=np.column_stack([np.ones(150), X[:, :3]]), y=y_fe,
        firm_index=np.zeros(150, dtype=int), bank_index=groups,
        dummy_columns=frozenset(), bank_columns=frozenset(),
        n_floored={}, n_dropped=0)
    fe = fit_ols_fixed_effects(d)
    beta_o, se_o = ols_with_group_dummies(X[:, :3], y_fe, groups)
    est = np.array([c.estimate for c in fe.coefficients.values()])
    ses = np.array([c.std_error for c in fe.coefficients.values()])
    np.testing.assert_allclose(est, beta_o, atol=1e-10)
    np.testing.assert_allclose(ses, se_o, atol=1e-10)

    # VIF vs the literal auxiliary-regression definition
    Xv = rng.normal(0, 1, (200, 4))
    Xv[:, 3] = 0.8 * Xv[:, 0] - 0.4 * Xv[:, 1] + 0.3 * rng.normal(0, 1, 200)
    got = vif(_fake_design(Xv, np.zeros(200)))
    for idx in range(4):
        target = Xv[:, idx]
        others = np.column_stack(
            [np.ones(200), np.delete(Xv, idx, axis=1)])
        resid = target - others @ np.linalg.lstsq(others, target, rcond=None)[0]
        r2 = 1 - float(resid @ resid) / float(
            ((target - target.mean()) ** 2).sum())
        assert got[f"x{idx}"] == pytest.approx(1 / (1 - r2), rel=1e-10)


# --------------------------------------------------------------------------
# 5. rest-of-the-world correction contract


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_acceptance_rest_of_world_correction(seed):
    """The vectorised correction agrees with the pair-by-pair oracle."""
    rng = np.random.default_rng(seed)
    nf, nb = int(rng.integers(2, 9)), int(rng.integers(2, 7))
    w = (rng.random((nf, nb)) < 0.5) * rng.lognormal(0, 1, (nf, nb))
    if not (w > 0).any():
        w[0, 0] = 1.0
    # balance strengths may fall below a loan, so clamping is exercised too
    s_bal = rng.uniform(0, 10, nf)
    t_bal = rng.uniform(0, 10, nb)
    sample = make_sample(w, s_bal=s_bal, t_bal=t_bal)
    fi, bi = (idx.ravel() for idx in np.indices((nf, nb)))
    linked = w[fi, bi] > 0  # stage 2 rows are the existing links
    for stage, number, rows in ((Stage.LINK_FORMATION, 1, slice(None)),
                                (Stage.LOAN_SIZING, 2, linked)):
        columns, n_clamped = rest_of_world(sample, fi[rows], bi[rows], stage)
        got = np.column_stack([columns[q] for q in (
            "k", "h", "s_net", "t_net", "s_bal", "t_bal")])
        negative = 0
        for row, i, j in zip(got, fi[rows], bi[rows]):
            c = herman_correct(w, i, j, number, s_bal[i], t_bal[j])
            np.testing.assert_allclose(
                row, [c.firm_degree, c.bank_degree, c.firm_net_strength,
                      c.bank_net_strength, c.firm_bal_strength,
                      c.bank_bal_strength], rtol=1e-12, atol=1e-12)
            if number == 2:
                negative += int(s_bal[i] < w[i, j]) + int(t_bal[j] < w[i, j])
        assert n_clamped == negative


# --------------------------------------------------------------------------
# 6. sign-pattern recovery on synthetic data


def test_acceptance_sign_patterns():
    start = time.monotonic()

    # concentration mechanism: positive significant degree effect, stage 1
    hits = {Model.M2_NETWORK: 0, Model.M3_FULL: 0}
    for seed in range(100):
        sample, _ = generate(GenConfig(
            n_firms=120, n_banks=30, seed=seed, target_density=0.15,
            attachment_boost=0.8, balance_noise=1.0))
        for model in hits:
            try:
                fit = fit_logit(build_design(
                    sample, ModelSpec(Stage.LINK_FORMATION, model)))
            except Exception:
                continue
            c = fit.coefficients["ln_k"]
            hits[model] += c.estimate > 0 and c.p_value < 0.01
    assert hits[Model.M2_NETWORK] >= 95
    assert hits[Model.M3_FULL] >= 95

    # fragmentation mechanism: negative degree effect on loan size, stage 2
    estimates = []
    for seed in range(100):
        sample, _ = generate(GenConfig(
            n_firms=80, n_banks=40, seed=seed, target_density=0.25,
            fragmentation_penalty=-1.0, firm_size_sigma=1.8,
            balance_noise=0.3))
        try:
            fit = fit_ols(build_design(
                sample, ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL)))
        except Exception:
            continue
        estimates.append(fit.coefficients["ln_k"].estimate)
    assert len(estimates) >= 90
    assert -1.25 <= np.mean(estimates) <= -0.75

    assert time.monotonic() - start < 600.0


# --------------------------------------------------------------------------
# 7. placebo contrast


def _placebo_pair(cfg):
    """Degree coefficients of the matched empirical and placebo designs."""
    sample, _ = generate(cfg)
    emp = fit_logit(build_design(sample, ModelSpec(
        Stage.LINK_FORMATION, Model.M3_FULL,
        placebo=Placebo.NO_STRENGTH, herman=False)))
    null = fit_logit(build_design(sample, ModelSpec(
        Stage.LINK_FORMATION, Model.M3_FULL,
        placebo=Placebo.NULL_NET), expected_metrics(
            fitness_spec_from_sample(sample, Variant.NETWORK_DRIVEN))))
    return emp.coefficients["ln_k"], null.coefficients["ln_k_null"]


def test_acceptance_placebo_contrast():
    base = dict(n_firms=140, n_banks=35, target_density=0.10,
                firm_size_sigma=1.5, bank_size_sigma=1.5,
                noise_sd=0.35, balance_noise=0.3)

    # volume-only data: the two degree columns are indistinguishable
    indist = total = 0
    for seed in range(100):
        try:
            ce, cn = _placebo_pair(GenConfig(seed=seed, **base))
        except Exception:
            continue
        total += 1
        combined_se = math.hypot(ce.std_error, cn.std_error)
        indist += abs(ce.estimate - cn.estimate) < 2 * combined_se
    assert total >= 90
    assert indist / total >= 0.90

    # concentration data: the empirical degree effect exceeds the placebo
    exceed = total = 0
    for seed in range(100):
        try:
            ce, cn = _placebo_pair(GenConfig(seed=seed, attachment_boost=0.8,
                                             **base))
        except Exception:
            continue
        total += 1
        exceed += ce.estimate > cn.estimate
    assert total >= 90
    assert exceed / total >= 0.95


# --------------------------------------------------------------------------
# 8. benchmark metrics


def test_acceptance_metrics():
    # a perfect scorer reaches precision 1
    rng = np.random.default_rng(3)
    w = (rng.random((30, 12)) < 0.2) * rng.lognormal(0, 1, (30, 12))
    w[0, 0] = max(w[0, 0], 1.0)
    net = make_network(w)
    assert precision_at_l((net.weights > 0).astype(float), net) == 1.0

    # the uniform baseline scores at the density level on average
    deviations = []
    for seed in range(50):
        sample, _ = generate(GenConfig(n_firms=175, n_banks=64, seed=seed,
                                       target_density=0.07))
        baseline = random_baseline(sample.network)
        prec = precision_at_l(baseline.probability_matrix(), sample.network)
        deviations.append(prec - sample.network.density)
    assert abs(np.mean(deviations)) <= 0.03

    # error and moment diagnostics against their direct definitions
    emp = rng.lognormal(0, 1, 400)
    model = emp * rng.uniform(0.5, 1.5, 400)
    direct = math.sqrt(np.mean(((model - emp) / emp) ** 2))
    assert abs(rmsre(emp, model) - direct) <= 1e-12

    stats = summarize(net)
    k, h = derived_degrees(net)
    for got, values in ((stats.mean_firm_degree, k),
                        (stats.mean_bank_degree, h)):
        assert abs(got - sum(values) / len(values)) <= 1e-12
    for got, values in ((stats.cv_firm_degree, k),
                        (stats.cv_bank_degree, h)):
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert abs(got - math.sqrt(var) / mean) <= 1e-12


# --------------------------------------------------------------------------
# 9. fixture replication


def test_acceptance_committed_fixture_exact():
    sample = parse_sample(
        os.path.join(DATA_DIR, "consolidated_small", "edges.csv"),
        os.path.join(DATA_DIR, "consolidated_small", "firms.csv"),
        os.path.join(DATA_DIR, "consolidated_small", "banks.csv"))
    stats = summarize(sample.network)
    # hand-computed: 12 links on 6 x 4 nodes, degrees (3,3,3,1,1,1) and
    # (4,4,2,2)
    assert stats.n_firms == 6 and stats.n_banks == 4 and stats.n_links == 12
    assert stats.density == 0.5
    assert stats.mean_firm_degree == 2.0
    assert stats.mean_bank_degree == 3.0
    assert stats.cv_firm_degree == 0.5          # std 1.0, mean 2.0
    assert stats.cv_bank_degree == 1.0 / 3.0    # std 1.0, mean 3.0


def test_acceptance_generated_fixture_headline_stats(bench_sample):
    stats = summarize(bench_sample.network)
    targets = {"density": 0.07, "mean_firm_degree": 4.34,
               "mean_bank_degree": 7.97, "cv_firm_degree": 0.75,
               "cv_bank_degree": 1.83}
    for name, target in targets.items():
        assert abs(getattr(stats, name) - target) / target <= 0.02, name


# --------------------------------------------------------------------------
# 10. determinism


def test_acceptance_byte_identical_runs(tmp_path):
    def config(out):
        return RunConfig(out_dir=str(out),
                         synth=GenConfig(n_firms=40, n_banks=12, seed=7,
                                         target_density=0.25),
                         n_samples=50, seed=11)

    bundle_a = run(config(tmp_path / "a"))
    bundle_b = run(config(tmp_path / "b"))
    assert sorted(bundle_a.files) == sorted(bundle_b.files)
    for rel in bundle_a.files:
        bytes_a = (tmp_path / "a" / rel).read_bytes()
        bytes_b = (tmp_path / "b" / rel).read_bytes()
        assert bytes_a == bytes_b, rel
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest == json.loads((tmp_path / "b" / "manifest.json").read_text())
