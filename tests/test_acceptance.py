"""End-to-end acceptance suite.

One test per headline guarantee of the package: calibration exactness,
conditional-weight conservation, degree-preserving-null residuals, estimator
oracle equivalence, rest-of-the-world correction contract, sign-pattern
recovery on synthetic data with its no-mechanism arms, placebo contrast,
summary statistics against their definitions, fixture replication,
byte-level determinism, stage-1 fits that agree across BLAS thread counts,
and a grid unchanged by relabelling or by an isolated bank.

The recovery tests draw two fixtures: ``STAGE1_FIXTURE`` (120 x 30 at
density 0.15, balance noise 1.0) for "connectivity breeds further
connectivity" at link formation, and ``STAGE2_FIXTURE`` (80 x 40 at density
0.25, firm size sigma 1.8, balance noise 0.3) for the fragmentation penalty
on loan size.
"""

import json
import math
import os
import subprocess
import sys
import time
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditnet import econometrics
from creditnet.core import BipartiteNetwork, Sample
from creditnet.econometrics import (Model, ModelSpec, Placebo, Stage,
                                    build_design, fit_logit, fit_ols,
                                    fit_ols_fixed_effects, vif)
from creditnet.ingest import apply_consistency_filter, parse_sample
from creditnet.netstats import summarize
from creditnet.nullmodel import (Variant, bicm_from_network, calibrate_z,
                                 expected_metrics, fitness_spec_from_sample,
                                 sample_ensemble)
from creditnet.pipeline import (PLACEBO_NULLS, ReportBundle, calibrate_null,
                                default_grid, run)
from creditnet.synthgen import GenConfig, generate
from conftest import (assert_se_reads_bread, make_design, make_network,
                      make_sample, small_run_config)
from oracles import (herman_correct, logit_grid_refine, logit_loglik,
                     logit_newton, ols_normal_equations,
                     ols_with_group_dummies, uncorrected_design)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# 113 x 61 generated benchmark: calibrated to the consolidated-scale
# headline statistics (density 0.07, mean degrees 4.34 / 7.97, CVs
# 0.75 / 1.83); shared by the conservation, residual, and replication tests.
GEN_SHAPE = {"target_density": 0.07, "firm_size_sigma": 1.0,
             "bank_size_sigma": 2.1}
BENCH_CONFIG = GenConfig(n_firms=113, n_banks=61, seed=11, **GEN_SHAPE)


@pytest.fixture(scope="module")
def bench_sample():
    sample, _ = generate(BENCH_CONFIG)
    return sample


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


def _joint_3_sigma(n_tests: int) -> float:
    """The |z| bound of each of ``n_tests`` independent two-sided tests
    whose family-wise level is that of a single 3-sigma test (Sidak), so a
    correct sampler fails a check over all nodes as rarely as one node's."""
    level = 2 * NormalDist().cdf(-3)
    per_test = -math.expm1(math.log1p(-level) / n_tests)
    return NormalDist().inv_cdf(1 - per_test / 2)


def test_acceptance_conditional_weight_conservation(bench_sample):
    start = time.monotonic()
    spec = fitness_spec_from_sample(bench_sample, Variant.NETWORK_DRIVEN)
    metrics = expected_metrics(spec)
    s_net, t_net = bench_sample.network.strengths

    # closed form: expected strengths reproduce the observed strengths
    np.testing.assert_allclose(metrics.firm_strengths, s_net, rtol=1e-10)
    np.testing.assert_allclose(metrics.bank_strengths, t_net, rtol=1e-10)

    # Monte Carlo: every node mean within the joint 3-sigma bound
    acc = sample_ensemble(spec, n_samples=10_000, seed=0)
    z = np.concatenate([
        (acc.mean(name) - getattr(metrics, name))
        / np.maximum(metrics.stderr(name, 10_000), 1e-12)
        for name in ("firm_strengths", "bank_strengths", "firm_degrees",
                     "bank_degrees")])
    assert z.size == 348
    assert np.abs(z).max() <= _joint_3_sigma(z.size)

    assert time.monotonic() - start < 30.0


# --------------------------------------------------------------------------
# 3. degree-preserving null residuals


def test_acceptance_degree_null_residuals(bench_sample):
    net = bench_sample.network
    k, h = net.degrees
    spec = bicm_from_network(net)
    p = spec.probability_matrix()
    residual = max(np.abs(p.sum(axis=1) - k).max(),
                   np.abs(p.sum(axis=0) - h).max())
    assert residual < 1e-8

    acc = sample_ensemble(spec, n_samples=10_000, seed=0)
    expected = expected_metrics(spec)
    z = np.concatenate([
        (acc.mean(name) - target)
        / np.maximum(expected.stderr(name, 10_000), 1e-12)
        for name, target in (("firm_degrees", k), ("bank_degrees", h))])
    assert z.size == 174
    assert np.abs(z).max() <= _joint_3_sigma(z.size)


def test_acceptance_bicm_residual_is_checked_on_the_nodes():
    # at this input the solver's test over degree classes passes while a
    # node's expected degree is still 1.0009e-8 from its target
    sample, _ = apply_consistency_filter(generate(
        GenConfig(n_firms=4000, n_banks=250, seed=123, **GEN_SHAPE))[0])
    k, h = sample.network.degrees
    p = bicm_from_network(sample.network).probability_matrix()
    assert max(np.abs(p.sum(axis=1) - k).max(),
               np.abs(p.sum(axis=0) - h).max()) < 1e-8


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

        fit = fit_logit(make_design(X, y))
        est = np.array([c.estimate for c in fit.coefficients.values()])
        Xc = np.column_stack([np.ones(n), X])
        beta_o = logit_newton(Xc, y)
        np.testing.assert_allclose(est, beta_o, atol=1e-8)
        assert fit.objective == pytest.approx(logit_loglik(Xc, y, beta_o),
                                              abs=1e-6)
        refined = logit_grid_refine(Xc, y, est)
        np.testing.assert_allclose(est, refined, atol=1e-4)


def _vif_by_auxiliary_regressions(X):
    """1 / (1 - R_j^2) of each column regressed on the others and 1."""
    n = X.shape[0]
    out = []
    for idx in range(X.shape[1]):
        target = X[:, idx]
        others = np.column_stack([np.ones(n), np.delete(X, idx, axis=1)])
        resid = target - others @ np.linalg.lstsq(others, target,
                                                  rcond=None)[0]
        r2 = 1 - float(resid @ resid) / float(
            ((target - target.mean()) ** 2).sum())
        out.append(1 / (1 - r2))
    return out


def test_acceptance_ols_fe_vif_oracles():
    rng = np.random.default_rng(7)

    # plain OLS vs explicit normal equations; the bread is inv(A'A)
    X = rng.normal(0, 1, (150, 4))
    y = 0.5 + X @ np.array([1.0, -2.0, 0.3, 0.0]) + rng.normal(0, 0.5, 150)
    fit = fit_ols(make_design(X, y))
    est = np.array([c.estimate for c in fit.coefficients.values()])
    ses = np.array([c.std_error for c in fit.coefficients.values()])
    A = np.column_stack([np.ones(150), X])
    beta_o, se_o = ols_normal_equations(A, y)
    np.testing.assert_allclose(est, beta_o, atol=1e-10)
    np.testing.assert_allclose(ses, se_o, atol=1e-10)
    np.testing.assert_allclose(fit.bread, np.linalg.inv(A.T @ A),
                               rtol=1e-10, atol=1e-15)
    assert_se_reads_bread(fit, fit.objective / (150 - 5))
    assert 0.9 < fit.fit_stat <= 1.0

    # fixed effects vs the dummy-variable regression; the bread is the
    # inverse cross-product of the group-demeaned columns
    groups = rng.integers(0, 6, 150)
    alpha = rng.normal(0, 2, 6)
    y_fe = X[:, :3] @ np.array([1.5, -0.7, 0.2]) + alpha[groups] \
        + rng.normal(0, 0.4, 150)
    d = make_design(X[:, :3], y_fe, groups=groups,
                    spec=ModelSpec(Stage.LOAN_SIZING, Model.M2_NETWORK))
    fe = fit_ols_fixed_effects(d)
    beta_o, se_o = ols_with_group_dummies(X[:, :3], y_fe, groups)
    est = np.array([c.estimate for c in fe.coefficients.values()])
    ses = np.array([c.std_error for c in fe.coefficients.values()])
    np.testing.assert_allclose(est, beta_o, atol=1e-10)
    np.testing.assert_allclose(ses, se_o, atol=1e-10)
    X_dm = X[:, :3].copy()
    for g in np.unique(groups):
        X_dm[groups == g] -= X_dm[groups == g].mean(axis=0)
    np.testing.assert_allclose(fe.bread, np.linalg.inv(X_dm.T @ X_dm),
                               rtol=1e-10, atol=1e-15)
    assert_se_reads_bread(fe, fe.objective / (150 - 6 - 3))
    assert fe.extra["n_groups"] == 6
    assert 0 <= fe.fit_stat <= 1
    assert fe.fit_stat <= fe.extra["r_squared_overall"] + 1e-9

    # VIF vs the literal auxiliary-regression definition: a well
    # conditioned design, then ill-conditioned ones whose column means reach
    # 1e4 times their spread, with a fifth column near-collinear with two
    # others (VIFs up to about 1e6)
    Xv = rng.normal(0, 1, (200, 4))
    Xv[:, 3] = 0.8 * Xv[:, 0] - 0.4 * Xv[:, 1] + 0.3 * rng.normal(0, 1, 200)
    designs = [(Xv, 1e-10)]
    for _ in range(20):
        spread = 10.0 ** rng.uniform(-2, 2, 5)
        Xi = rng.normal(0, 1, (200, 5)) * spread
        Xi += spread * 10.0 ** rng.uniform(0, 4, 5) * rng.choice([-1, 1], 5)
        near = 0.7 * Xi[:, 0] - 0.2 * Xi[:, 1]
        Xi[:, 4] = near + 1e-3 * near.std() * rng.normal(0, 1, 200)
        designs.append((Xi, 1e-9))
    for Xi, rtol in designs:
        d = make_design(Xi, rng.normal(0, 1, 200))
        got = list(vif(d, fit_ols(d)).values())
        np.testing.assert_allclose(got, _vif_by_auxiliary_regressions(Xi),
                                   rtol=rtol)


# --------------------------------------------------------------------------
# 5. rest-of-the-world correction contract


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_acceptance_rest_of_world_correction(seed):
    """The design's corrected columns agree with the pair-by-pair oracle."""
    rng = np.random.default_rng(seed)
    nf, nb = int(rng.integers(2, 9)), int(rng.integers(2, 7))
    w = (rng.random((nf, nb)) < 0.5) * rng.lognormal(0, 1, (nf, nb))
    if not (w > 0).any():
        w[0, 0] = 1.0
    # balance strengths may fall below a loan, so clamping is exercised too
    s_bal = rng.uniform(0, 10, nf)
    t_bal = rng.uniform(0, 10, nb)
    sample = make_sample(w, s_bal=s_bal, t_bal=t_bal)
    names = ("ln_k", "ln_h", "ln_s_net", "ln_t_net", "ln_s_bal", "ln_t_bal")
    for stage, number in ((Stage.LINK_FORMATION, 1), (Stage.LOAN_SIZING, 2)):
        design = build_design(sample, ModelSpec(stage, Model.M3_FULL))
        got = np.column_stack([design.column(name) for name in names])
        want = []
        negative = 0
        for i, j in zip(design.firm_index, design.bank_index):
            c = herman_correct(w, i, j, number, s_bal[i], t_bal[j])
            want.append([c.firm_degree, c.bank_degree, c.firm_net_strength,
                         c.bank_net_strength, c.firm_bal_strength,
                         c.bank_bal_strength])
            if number == 2:
                negative += int(s_bal[i] < w[i, j]) + int(t_bal[j] < w[i, j])
        # degrees and strengths share the log floor of 1
        want = np.array(want)
        np.testing.assert_allclose(got, np.log(np.maximum(want, 1.0)),
                                   rtol=1e-12, atol=1e-12)
        assert design.n_clamped == negative
        assert {name: design.n_floored[name] for name in names} == dict(
            zip(names, (want < 1.0).sum(axis=0).tolist()))


# --------------------------------------------------------------------------
# 6. sign-pattern recovery on synthetic data

# the two recovery fixtures: each test draws one on its own seeds, with the
# mechanism it checks switched on or off
STAGE1_FIXTURE = {"n_firms": 120, "n_banks": 30, "target_density": 0.15,
                  "balance_noise": 1.0}
STAGE2_FIXTURE = {"n_firms": 80, "n_banks": 40, "target_density": 0.25,
                  "firm_size_sigma": 1.8, "balance_noise": 0.3}
STAGE1_M2 = ModelSpec(Stage.LINK_FORMATION, Model.M2_NETWORK)
STAGE1_M3 = ModelSpec(Stage.LINK_FORMATION, Model.M3_FULL)
STAGE2_M3 = ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL)


def _draw(fixture, seed, **mechanism):
    """The fixture's sample at ``seed``, with the mechanism's settings."""
    return generate(GenConfig(seed=seed, **fixture, **mechanism))[0]


def _ln_k(sample, spec):
    """The degree coefficient of ``spec`` fitted on ``sample``."""
    fit = econometrics.fit_design(build_design(sample, spec))
    return fit.coefficients["ln_k"]


def _paired_contrast(fixture, spec, seeds, knob, value):
    """Mean and standard error of the degree estimate with the generator's
    ``knob`` at ``value`` minus with it at 0, paired by seed. Every fit must
    succeed."""
    contrasts = [_ln_k(_draw(fixture, seed, **{knob: value}), spec).estimate
                 - _ln_k(_draw(fixture, seed, **{knob: 0.0}), spec).estimate
                 for seed in seeds]
    return (np.mean(contrasts),
            np.std(contrasts, ddof=1) / math.sqrt(len(contrasts)))


def test_acceptance_sign_patterns():
    start = time.monotonic()

    # concentration mechanism: positive significant degree effect, stage 1
    hits = {STAGE1_M2: 0, STAGE1_M3: 0}
    for seed in range(100):
        sample = _draw(STAGE1_FIXTURE, seed, attachment_boost=0.8)
        for spec in hits:
            try:
                c = _ln_k(sample, spec)
            except Exception:
                continue
            hits[spec] += c.estimate > 0 and c.p_value < 0.01
    assert hits[STAGE1_M2] >= 95
    assert hits[STAGE1_M3] >= 95

    # fragmentation mechanism: negative degree effect on loan size, stage 2
    estimates = []
    for seed in range(100):
        sample = _draw(STAGE2_FIXTURE, seed, fragmentation_penalty=-1.0)
        try:
            estimates.append(_ln_k(sample, STAGE2_M3).estimate)
        except Exception:
            continue
    assert len(estimates) >= 90
    assert -1.25 <= np.mean(estimates) <= -0.75

    assert time.monotonic() - start < 600.0


def test_acceptance_stage1_sign_without_mechanism():
    """``STAGE1_FIXTURE`` with no attachment boost, on seeds the sign test
    does not use: M3 finds a positive degree effect at p < 0.01 in at most 5
    of 100 seeds, a 5% false-positive budget. Every fit must succeed."""
    positive = 0
    for seed in range(100, 200):
        c = _ln_k(_draw(STAGE1_FIXTURE, seed, attachment_boost=0.0),
                  STAGE1_M3)
        positive += c.estimate > 0 and c.p_value < 0.01
    assert positive <= 5


def test_acceptance_stage1_attachment_contrast():
    """M2 finds a positive degree effect with no mechanism too, so its sign
    is no evidence. On ``STAGE1_FIXTURE`` and seeds the sign test does not
    use, with the attachment boost of 0.8 and with none, the M2 degree
    coefficient must rise: the mean contrast minus three standard errors is
    above 0."""
    mean, se = _paired_contrast(STAGE1_FIXTURE, STAGE1_M2, range(300, 400),
                                "attachment_boost", 0.8)
    assert mean - 3 * se > 0


def test_acceptance_stage2_fragmentation_contrast():
    """``STAGE2_FIXTURE`` on seeds the sign test does not use, with the
    fragmentation penalty of -1 and with none: the M3 degree coefficient
    must fall, the mean contrast plus three standard errors is below 0."""
    mean, se = _paired_contrast(STAGE2_FIXTURE, STAGE2_M3, range(100, 200),
                                "fragmentation_penalty", -1.0)
    assert mean + 3 * se < 0


# --------------------------------------------------------------------------
# 7. placebo contrast


def _placebo_pair(cfg):
    """Degree coefficients of the matched empirical and placebo designs."""
    sample, _ = generate(cfg)
    emp = fit_logit(uncorrected_design(sample, ModelSpec(
        Stage.LINK_FORMATION, Model.M3_FULL,
        placebo=Placebo.NO_STRENGTH)))
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
# 8. summary statistics against their definitions


def test_acceptance_metrics():
    rng = np.random.default_rng(3)
    w = (rng.random((30, 12)) < 0.2) * rng.lognormal(0, 1, (30, 12))
    w[0, 0] = max(w[0, 0], 1.0)
    net = make_network(w)
    stats = summarize(net)
    k, h = net.degrees
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
    bundle_a = run(small_run_config(tmp_path / "a"))
    bundle_b = run(small_run_config(tmp_path / "b"))
    assert sorted(bundle_a.files) == sorted(bundle_b.files)
    for rel in bundle_a.files:
        bytes_a = (tmp_path / "a" / rel).read_bytes()
        bytes_b = (tmp_path / "b" / rel).read_bytes()
        assert bytes_a == bytes_b, rel
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest == json.loads((tmp_path / "b" / "manifest.json").read_text())


# stage-1 fits of a sample large enough for BLAS to thread; prints each
# cell's estimates and standard errors as JSON
_STAGE1_FITS = """
import json
from creditnet.econometrics import (DegreeVariant, Model, ModelSpec, Stage,
                                    build_design, fit_logit)
from creditnet.synthgen import GenConfig, generate

sample, _ = generate(GenConfig(n_firms=1000, n_banks=100, seed=1,
                               target_density=0.07, firm_size_sigma=1.0,
                               bank_size_sigma=2.1))
fits = {}
for spec in (ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY),
             ModelSpec(Stage.LINK_FORMATION, Model.M2_NETWORK),
             ModelSpec(Stage.LINK_FORMATION, Model.M3_FULL,
                       DegreeVariant.B_WITHOUT_DEGREE)):
    fit = fit_logit(build_design(sample, spec))
    fits[spec.name()] = {name: [c.estimate, c.std_error]
                         for name, c in fit.coefficients.items()}
print(json.dumps(fits))
"""


def test_acceptance_stage1_fits_agree_across_blas_threads():
    """Byte identity holds for one BLAS thread count; across thread counts
    the stage-1 estimates agree to 1e-6 of max(|estimate|, SE) and the
    SEs to 1e-6 relative."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        econometrics.__file__)))
    fits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", _STAGE1_FITS], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=300)
        fits.append(json.loads(out.stdout))
    one, two = fits
    assert sorted(one) == sorted(two) == ["link_formation_m1",
                                          "link_formation_m2_a",
                                          "link_formation_m3_b"]
    for cell in one:
        assert one[cell].keys() == two[cell].keys(), cell
        for name, (b1, se1) in one[cell].items():
            b2, se2 = two[cell][name]
            assert abs(b1 - b2) <= 1e-6 * max(abs(b1), se1), (cell, name)
            assert se2 == pytest.approx(se1, rel=1e-6), (cell, name)


# --------------------------------------------------------------------------
# 11. relabelling invariance

RELABEL_CONFIGS = (
    [GenConfig(n_firms=60, n_banks=15, seed=seed, target_density=0.15)
     for seed in range(20)]
    + [GenConfig(n_firms=113, n_banks=61, seed=seed, **GEN_SHAPE)
       for seed in range(1, 11)]
    + [GenConfig(n_firms=500, n_banks=60, seed=1, **GEN_SHAPE)])


def _relabel(sample: Sample, rng) -> Sample:
    """The same sample with its firms and banks permuted: ids, attribute
    rows and weights move together."""
    net = sample.network
    fp, bp = rng.permutation(net.n_firms), rng.permutation(net.n_banks)
    return Sample(
        BipartiteNetwork(tuple(net.firm_ids[i] for i in fp),
                         tuple(net.bank_ids[j] for j in bp),
                         net.weights[np.ix_(fp, bp)]),
        {name: col[fp] for name, col in sample.firm_columns.items()},
        {name: col[bp] for name, col in sample.bank_columns.items()})


def _grid_fits(sample: Sample) -> dict:
    """Each default-grid cell's coefficients, or the type of the exception
    that failed it; the null placebos read the closed forms a run reads."""
    bundle = ReportBundle(out_dir="")  # calibrate_null writes no file
    fits = {}
    for spec in default_grid():
        null = (calibrate_null(bundle, sample, PLACEBO_NULLS[spec.placebo])[1]
                if spec.placebo in PLACEBO_NULLS else None)
        try:
            fits[spec.name()] = econometrics.fit_design(
                build_design(sample, spec, null)).coefficients
        except Exception as exc:
            fits[spec.name()] = type(exc)
    return fits


def _assert_same_grid(before: dict, after: dict, moved=()) -> None:
    """The same cells fail with the same exception type, and no cell but
    those in ``moved`` moves an estimate or SE by more than 1e-8 of
    max(|estimate|, SE)."""
    assert before.keys() == after.keys()
    for cell, fit in before.items():
        if isinstance(fit, type):
            assert after[cell] is fit, cell
            continue
        assert after[cell].keys() == fit.keys(), cell
        if cell in moved:
            continue
        for name, c in fit.items():
            scale = max(abs(c.estimate), c.std_error)
            other = after[cell][name]
            assert abs(other.estimate - c.estimate) <= 1e-8 * scale, \
                (cell, name)
            assert abs(other.std_error - c.std_error) <= 1e-8 * scale, \
                (cell, name)


GRID_IDS = [f"{c.n_firms}x{c.n_banks}-seed{c.seed}" for c in RELABEL_CONFIGS]


@pytest.mark.parametrize("config", RELABEL_CONFIGS, ids=GRID_IDS)
def test_acceptance_relabelling_leaves_the_grid_unchanged(config):
    """Permuting firms and banks moves no cell."""
    sample, _ = apply_consistency_filter(generate(config)[0])
    _assert_same_grid(_grid_fits(sample), _grid_fits(
        _relabel(sample, np.random.default_rng(0))))


@pytest.mark.parametrize("config", RELABEL_CONFIGS, ids=GRID_IDS)
def test_acceptance_an_isolated_bank_leaves_the_grid_unchanged(config):
    """One more bank with no links and no reported debt moves no cell but
    the gravity model M1, which keeps an isolated bank's stage-1 rows."""
    sample, _ = apply_consistency_filter(generate(config)[0])
    net = sample.network
    wider = Sample(
        BipartiteNetwork(net.firm_ids, net.bank_ids + ("B_isolated",),
                         np.column_stack([net.weights, np.zeros(net.n_firms)])),
        sample.firm_columns,
        {name: np.append(col, 0.0 if name == "balance_strength" else col[0])
         for name, col in sample.bank_columns.items()})
    _assert_same_grid(_grid_fits(sample), _grid_fits(wider),
                      moved=("link_formation_m1",))
