import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from creditnet import econometrics
from creditnet.core import derived_degrees, derived_strengths
from creditnet.econometrics import (AbsorbedColumns, AllRowsDropped,
                                    DegreeVariant, DesignMatrix, EconError,
                                    FixedEffects, Model, ModelSpec,
                                    MissingNullModel, NoConvergence, Placebo,
                                    RankDeficient, Separation,
                                    SingletonGroupsOnly, SingularInformation,
                                    Stage, build_design, fit_design, fit_logit,
                                    fit_ols, fit_ols_fixed_effects,
                                    rest_of_world, vif)
from creditnet.nullmodel import (Variant, expected_metrics,
                                 fitness_spec_from_sample)
from creditnet.report import canonical_json
from conftest import make_network, make_sample
from oracles import (fit_logit_allocating, logit_loglik, logit_newton,
                     ols_normal_equations, ols_with_group_dummies,
                     vif_from_correlation)


def random_sample(rng, nf=25, nb=8, p=0.35):
    from creditnet.core import BANK_FIELDS, FIRM_FIELDS, Sample

    w = (rng.random((nf, nb)) < p) * rng.lognormal(3.0, 1.0, (nf, nb))
    w[:, 0] = np.maximum(w[:, 0], 0.5)  # keep every bank linked
    # leave some firms single-banked so is_exclusive has variation
    for i in range(nf):
        if not w[i].any():
            w[i, rng.integers(nb)] = 1.0
    w[0, 1:] = 0.0
    net = make_network(w)
    s_net, t_net = w.sum(axis=1), w.sum(axis=0)
    # one node at a time, in the field order, so the draws stay those of
    # earlier versions of this helper
    firms = np.array([[s_net[i] * rng.uniform(1.0, 2.0),
                       s_net[i] * rng.uniform(2.0, 5.0),
                       rng.uniform(0.1, 0.9), rng.normal(1.0, 0.5),
                       rng.uniform(0.05, 0.95)] for i in range(nf)])
    banks = np.array([[t_net[j] * rng.uniform(1.0, 2.0),
                       t_net[j] * rng.uniform(2.0, 5.0),
                       rng.uniform(8.0, 15.0), rng.normal(0.5, 0.2)]
                      for j in range(nb)])
    return Sample(net, dict(zip(FIRM_FIELDS, firms.T)),
                  dict(zip(BANK_FIELDS, banks.T)))


# --------------------------------------------------------------------------
# rest-of-the-world corrections


ROW_QUANTITIES = ("k", "h", "s_net", "t_net", "s_bal", "t_bal")


def _pair(sample, i, j, stage):
    """(k, h, s_net, t_net, s_bal, t_bal) of the single pair (i, j)."""
    columns, _ = rest_of_world(sample, np.array([i]), np.array([j]), stage)
    return tuple(float(columns[q][0]) for q in ROW_QUANTITIES)


TWO_BY_TWO = dict(weights=[[10.0, 0.0], [5.0, 2.0]],
                  s_bal=np.array([4.0, 9.0]), t_bal=np.array([20.0, 3.0]))


def test_herman_stage1_subtracts_focal_link():
    sample = make_sample(**TWO_BY_TWO)
    k, h, s_net, t_net, s_bal, t_bal = _pair(sample, 1, 0,
                                             Stage.LINK_FORMATION)
    assert k == 1.0  # k=2 minus the focal link
    assert h == 1.0
    assert s_net == 2.0  # 7 - 5
    assert t_net == 10.0  # 15 - 5
    assert s_bal == 9.0  # untouched at stage 1
    assert t_bal == 20.0


def test_herman_stage1_absent_pair_unchanged():
    sample = make_sample(**TWO_BY_TWO)
    k, h, s_net, t_net, s_bal, t_bal = _pair(sample, 0, 1,
                                             Stage.LINK_FORMATION)
    assert k == 1.0 and h == 1.0
    assert s_net == 10.0 and t_net == 2.0
    assert s_bal == 4.0 and t_bal == 3.0


def test_herman_stage2_subtracts_from_balance_too():
    sample = make_sample(**TWO_BY_TWO)
    k, h, s_net, _, s_bal, t_bal = _pair(sample, 1, 0, Stage.LOAN_SIZING)
    assert k == 1.0 and h == 1.0
    assert s_bal == 4.0  # 9 - 5
    assert t_bal == 15.0  # 20 - 5
    assert s_net == 2.0


def test_herman_stage2_clamps_negative_balance():
    sample = make_sample([[10.0]], s_bal=np.array([3.0]),
                         t_bal=np.array([30.0]))
    s_bal, t_bal = _pair(sample, 0, 0, Stage.LOAN_SIZING)[4:]
    assert s_bal == 0.0  # 3 - 10, clamped
    assert t_bal == 20.0
    _, n_clamped = rest_of_world(sample, np.array([0]), np.array([0]),
                                 Stage.LOAN_SIZING)
    assert n_clamped == 1


def test_design_counts_clamped_balances(caplog):
    """Clamps are counted on the design, not logged."""
    sample = make_sample(**TWO_BY_TWO)  # link (0, 0): s_bal 4 - 10 < 0
    caplog.set_level("DEBUG")
    for stage, herman, count in ((Stage.LOAN_SIZING, True, 1),
                                 (Stage.LOAN_SIZING, False, 0),
                                 (Stage.LINK_FORMATION, True, 0)):
        d = build_design(sample, ModelSpec(stage, Model.M3_FULL,
                                           herman=herman))
        assert d.n_clamped == count
        assert d.provenance() == {"n_obs": d.n_obs, "n_dropped": d.n_dropped,
                                  "n_floored": d.n_floored,
                                  "n_clamped": count}
    assert not caplog.records


@pytest.mark.parametrize("stage", list(Stage))
def test_uncorrected_design_holds_node_values(stage):
    sample = make_sample(**TWO_BY_TWO)  # link (0, 0): s_bal 4 - 10 < 0
    d = build_design(sample, ModelSpec(stage, Model.M3_FULL, herman=False))
    fi, bi = d.firm_index, d.bank_index
    k, h = derived_degrees(sample.network)
    s_net, t_net = derived_strengths(sample.network)
    node_values = (k[fi].astype(float), h[bi].astype(float), s_net[fi],
                   t_net[bi], sample.firm_columns["balance_strength"][fi],
                   sample.bank_columns["balance_strength"][bi])
    columns, n_clamped = rest_of_world(sample, fi, bi, stage, herman=False)
    assert n_clamped == d.n_clamped == 0
    for quantity, want in zip(ROW_QUANTITIES, node_values):
        assert np.array_equal(columns[quantity], want)
    for name, want in zip(("ln_k", "ln_h", "ln_s_net", "ln_t_net", "ln_s_bal",
                           "ln_t_bal"), node_values):
        assert np.array_equal(d.column(name), np.log(np.maximum(want, 1.0)))


# --------------------------------------------------------------------------
# design assembly


def test_design_column_sets():
    m1 = ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY)
    m2a = ModelSpec(Stage.LINK_FORMATION, Model.M2_NETWORK)
    m2b = ModelSpec(Stage.LINK_FORMATION, Model.M2_NETWORK,
                    DegreeVariant.B_WITHOUT_DEGREE)
    m3a = ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL)
    sample = random_sample(np.random.default_rng(0))
    cols = {name: build_design(sample, spec).column_names
            for name, spec in
            (("m1", m1), ("m2a", m2a), ("m2b", m2b), ("m3a", m3a))}
    assert "ln_s_net" not in cols["m1"] and "ln_s_bal" in cols["m1"]
    assert cols["m2a"] == ("ln_s_net", "ln_k", "is_exclusive",
                           "ln_t_net", "ln_h")
    assert cols["m2b"] == ("ln_s_net", "ln_t_net")
    assert set(cols["m2a"]) | set(cols["m1"]) == set(cols["m3a"])


def test_design_drop_network_strength():
    spec = ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL,
                     placebo=Placebo.NO_STRENGTH)
    d = build_design(random_sample(np.random.default_rng(1)), spec)
    assert "ln_s_net" not in d.column_names
    assert "ln_t_net" not in d.column_names
    assert "ln_k" in d.column_names


def test_design_placebo_requires_full_model():
    with pytest.raises(EconError):
        ModelSpec(Stage.LINK_FORMATION, Model.M2_NETWORK,
                  placebo=Placebo.NULL_NET)
    with pytest.raises(EconError):
        ModelSpec(Stage.LINK_FORMATION, Model.M2_NETWORK,
                  placebo=Placebo.NO_STRENGTH)


def test_design_placebo_cross_controls():
    sample = random_sample(np.random.default_rng(2))
    d_net = build_design(sample, ModelSpec(
        Stage.LINK_FORMATION, Model.M3_FULL,
        placebo=Placebo.NULL_NET), expected_metrics(
            fitness_spec_from_sample(sample, Variant.NETWORK_DRIVEN)))
    d_bal = build_design(sample, ModelSpec(
        Stage.LINK_FORMATION, Model.M3_FULL,
        placebo=Placebo.NULL_BAL), expected_metrics(
            fitness_spec_from_sample(sample, Variant.BALANCE_DRIVEN)))
    # volume-driven null is controlled by accounting size, and vice versa
    assert "ln_s_bal" in d_net.column_names
    assert "ln_s_net" not in d_net.column_names
    assert "ln_s_net" in d_bal.column_names
    assert "ln_s_bal" not in d_bal.column_names
    assert "is_exclusive" not in d_net.column_names
    with pytest.raises(MissingNullModel):
        build_design(sample, ModelSpec(
            Stage.LINK_FORMATION, Model.M3_FULL,
            placebo=Placebo.NULL_NET))


def test_design_row_scopes():
    sample = random_sample(np.random.default_rng(3))
    net = sample.network
    d1 = build_design(sample, ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY))
    assert d1.n_obs == net.n_firms * net.n_banks
    d2 = build_design(sample, ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL))
    assert d2.n_obs == net.n_links
    assert np.all(d2.y == np.log(net.weights[d2.firm_index, d2.bank_index]))
    # rows run over firms, then banks
    assert np.all(np.diff(d2.firm_index * net.n_banks + d2.bank_index) > 0)


def test_design_computes_degrees_once(monkeypatch):
    sample = random_sample(np.random.default_rng(2))
    calls = []
    derived_degrees = econometrics.derived_degrees
    monkeypatch.setattr(econometrics, "derived_degrees",
                        lambda net: calls.append(net) or derived_degrees(net))
    for stage in Stage:
        calls.clear()
        build_design(sample, ModelSpec(stage, Model.M3_FULL))
        assert calls == [sample.network]


@pytest.mark.parametrize("spec", [
    ModelSpec(Stage.LINK_FORMATION, Model.M3_FULL),
    ModelSpec(Stage.LINK_FORMATION, Model.M2_NETWORK, herman=False),
    ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL,
              fixed_effects=FixedEffects.BANK_DUMMIES),
], ids=lambda spec: spec.name())
def test_design_is_one_augmented_array(spec):
    sample = random_sample(np.random.default_rng(5))
    d = build_design(sample, spec)
    a = d.augmented
    assert a.dtype == np.float64 and a.flags.c_contiguous
    assert a.shape == (d.n_obs, 1 + len(d.column_names))
    assert np.all(a[:, 0] == 1.0)
    # X is the regressor view of the same memory, not a second copy
    assert np.shares_memory(d.X, a) and d.X.shape == (d.n_obs, a.shape[1] - 1)
    assert np.array_equal(d.X, a[:, 1:])
    for j, name in enumerate(d.column_names, start=1):
        assert np.array_equal(d.column(name), a[:, j])


def test_design_drops_rows_of_isolated_banks():
    w = np.zeros((6, 3))
    w[:4, 0] = 2.0
    w[2:, 1] = 3.0
    sample = make_sample(w)  # bank 2 isolated
    d = build_design(sample, ModelSpec(Stage.LINK_FORMATION, Model.M2_NETWORK))
    assert d.n_dropped == 6
    assert d.n_obs == 12
    assert 2 not in set(d.bank_index)


def test_design_exclusive_uses_uncorrected_degree():
    w = np.array([[4.0, 0.0], [1.0, 2.0]])
    sample = make_sample(w)
    d = build_design(sample, ModelSpec(Stage.LINK_FORMATION, Model.M2_NETWORK))
    excl = d.column("is_exclusive")
    expected = (w > 0).sum(axis=1)[d.firm_index] == 1
    np.testing.assert_array_equal(excl, expected.astype(float))


def test_design_log_floors():
    w = np.array([[1.5, 0.0], [0.4, 2.0]])
    sample = make_sample(w)
    d = build_design(sample, ModelSpec(Stage.LOAN_SIZING, Model.M2_NETWORK))
    # firm 0 with a single 1.5 loan: corrected strength 0 -> floored to ln 1
    assert d.column("ln_s_net")[0] == 0.0
    assert d.n_floored["ln_s_net"] >= 1
    # degrees: k-1 = 0 -> ln(max(0, 1)) = 0, counted as floored
    assert d.column("ln_k")[0] == 0.0
    assert d.n_floored["ln_k"] >= 1


def test_design_all_rows_dropped():
    w = np.zeros((2, 2))
    sample = make_sample(w)
    with pytest.raises(AllRowsDropped):
        build_design(sample, ModelSpec(Stage.LOAN_SIZING, Model.M1_GRAVITY))


# --------------------------------------------------------------------------
# logit


def synthetic_logit(rng, n=400, p=3):
    X = rng.normal(0, 1, (n, p))
    beta = np.array([0.5, -1.0, 0.8, 0.3][:p + 1])
    eta = beta[0] + X @ beta[1:]
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    return X, y


def fake_design(X, y, names=None, dummies=()):
    names = tuple(names or (f"x{i}" for i in range(X.shape[1])))
    return DesignMatrix(
        spec=ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY),
        column_names=names,
        augmented=np.column_stack([np.ones(len(y)), X]), y=y,
        firm_index=np.zeros(len(y), dtype=int),
        bank_index=np.zeros(len(y), dtype=int),
        dummy_columns=frozenset(dummies), bank_columns=frozenset(),
        n_floored={}, n_dropped=0)


def test_logit_matches_newton_oracle(rng):
    X, y = synthetic_logit(rng)
    fit = fit_logit(fake_design(X, y))
    Xc = np.column_stack([np.ones(len(y)), X])
    beta_oracle = logit_newton(Xc, y)
    est = np.array([c.estimate for c in fit.coefficients.values()])
    np.testing.assert_allclose(est, beta_oracle, atol=1e-7)
    # the oracle grid refinement cannot improve the likelihood
    ll_refined = logit_loglik(Xc, y, logit_grid := beta_oracle)
    assert fit.objective == pytest.approx(ll_refined, abs=1e-6)


def test_logit_perfect_balance_intercept():
    y = np.array([0.0, 1.0] * 50)
    X = np.zeros((100, 1))
    X[:, 0] = np.tile([0.0, 1.0], 50)[::-1]  # anti-aligned regressor
    fit = fit_logit(fake_design(X, y))
    assert fit.n_obs == 100
    assert fit.fit_stat == pytest.approx(
        1 - fit.objective / (100 * np.log(0.5)), abs=1e-9)


def test_logit_separation_detected(rng):
    X = rng.normal(0, 1, (80, 1))
    y = (X[:, 0] > 0).astype(float)
    with pytest.raises(Separation):
        fit_logit(fake_design(X, y))


def test_logit_single_class_rejected():
    with pytest.raises(EconError):
        fit_logit(fake_design(np.ones((10, 1)), np.ones(10)))


def test_logit_ame_continuous_and_dummy(rng):
    X, y = synthetic_logit(rng, n=600, p=2)
    X[:, 1] = (X[:, 1] > 0).astype(float)
    fit = fit_logit(fake_design(X, y, names=("cont", "dummy"),
                                dummies=("dummy",)))
    beta = [c.estimate for c in fit.coefficients.values()]
    Xc = np.column_stack([np.ones(len(y)), X])
    eta = Xc @ np.array(beta)
    p = 1 / (1 + np.exp(-eta))
    assert fit.ame["cont"] == pytest.approx(beta[1] * (p * (1 - p)).mean())
    p1 = 1 / (1 + np.exp(-(eta + (1 - X[:, 1]) * beta[2])))
    p0 = 1 / (1 + np.exp(-(eta - X[:, 1] * beta[2])))
    assert fit.ame["dummy"] == pytest.approx(float((p1 - p0).mean()))


def _assert_same_fit(got, expected):
    assert canonical_json(got.to_json()) == canonical_json(expected.to_json())
    assert np.array_equal(got.residuals, expected.residuals)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 300),
       n_cont=st.integers(0, 3), n_dummy=st.integers(1, 2),
       dummy_share=st.floats(0.02, 0.5), scale=st.floats(0.1, 6.0))
def test_fit_logit_equals_allocating_oracle(seed, n, n_cont, n_dummy,
                                            dummy_share, scale):
    """Byte for byte the fit of the same IRLS on freshly allocated arrays.

    Large coefficient scales give near-separated and separated designs.
    """
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.normal(0, 1, (n, n_cont)),
                         (rng.random((n, n_dummy)) < dummy_share) * 1.0])
    eta = rng.normal(0, scale, 1 + X.shape[1]) @ np.vstack([np.ones(n), X.T])
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    names = tuple(f"x{i}" for i in range(X.shape[1]))
    d = fake_design(X, y, names=names, dummies=names[n_cont:])
    try:
        expected = fit_logit_allocating(d)
    except EconError as exc:
        with pytest.raises(EconError) as raised:
            fit_logit(d)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    _assert_same_fit(fit_logit(d), expected)


def _separated_design():
    X = np.random.default_rng(0).normal(0, 1, (80, 1))
    return fake_design(X, (X[:, 0] > 0).astype(float))


def _quasi_separated_design():
    """A logit design whose dummy predicts y = 1 perfectly."""
    rng = np.random.default_rng(0)
    n = 200
    X = rng.normal(0, 1, (n, 2))
    dummy = (rng.random(n) < 0.05).astype(float)
    eta = 0.3 + X @ np.array([1.0, -0.5])
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    y[dummy == 1] = 1.0
    return fake_design(np.column_stack([X, dummy]), y,
                       names=("x0", "x1", "d"), dummies=("d",))


def test_fit_logit_equals_oracle_near_stopping_threshold():
    """The stopping score is within 10% of tol_score on a near-separated
    design, where any change in the arithmetic could move the stop."""
    d = _quasi_separated_design()
    tols = {"tol_score": 1e-8, "tol_ll": 1e-6}
    got = fit_logit(d, **tols)
    # the residuals are y - p of the stopping iteration, so this is its score
    stop = np.abs(d.augmented.T @ got.residuals).max()
    assert 0.9e-8 <= stop < 1e-8
    assert got.coefficients["d"].std_error > 1e3  # near-separated
    _assert_same_fit(got, fit_logit_allocating(d, **tols))
    _assert_same_fit(fit_logit(d), fit_logit_allocating(d))


def _outcomes(fit, design, **tols):
    """What ``fit`` does at max_iters = 1, 2, ... until it stops raising
    NoConvergence: error types, then n_iter if it converges."""
    out = []
    for max_iters in range(1, 201):
        try:
            result = fit(design, max_iters=max_iters, **tols)
        except EconError as exc:
            out.append(type(exc))
            if not isinstance(exc, NoConvergence):
                return out
        else:
            return out + [result.n_iter]
    return out


@pytest.mark.parametrize("error, make, tols", [
    (Separation, _separated_design, {}),
    # the dummy's weights underflow to exactly 0 once its p rounds to 1
    (SingularInformation, _quasi_separated_design, {"tol_score": 0.0}),
    (NoConvergence, _quasi_separated_design, {}),
], ids=["separation", "singular", "no_convergence"])
def test_fit_logit_raises_where_oracle_does(error, make, tols):
    d = make()
    expected = _outcomes(fit_logit_allocating, d, **tols)
    assert error in expected and len(expected) > 10
    assert _outcomes(fit_logit, d, **tols) == expected


def test_fit_logit_allocates_one_design_sized_buffer():
    """Besides the design, the fit holds one n x (1 + p) buffer (X * w)
    and a few n-vectors: no copy of the design."""
    sample = random_sample(np.random.default_rng(8), nf=500, nb=100, p=0.1)
    d = build_design(sample, ModelSpec(Stage.LINK_FORMATION, Model.M3_FULL))
    n, width = d.n_obs, 1 + len(d.column_names)
    assert n == 50_000 and width == 15
    tracemalloc.start()
    try:
        fit = fit_logit(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * (width + 8)


def test_coef_stats_nan_standard_error_has_no_test():
    stat = econometrics._coef_stats(["a"], [0.3], [math.nan])["a"]
    assert math.isnan(stat.std_error) and math.isnan(stat.p_value)
    assert stat.stars == ""
    fit = econometrics.FitResult(
        method="logit", coefficients={"a": stat}, fit_stat=0.1,
        fit_stat_name="pseudo_r2", n_obs=10, objective=-1.0, n_iter=3)
    assert '"p_value": null' in canonical_json(fit.to_json())
    assert "***" not in fit.format_table()


def test_logit_stars_and_pvalues(rng):
    X, y = synthetic_logit(rng, n=2000)
    fit = fit_logit(fake_design(X, y))
    strong = fit.coefficients["x1"]  # true coefficient -1.0
    assert strong.stars == "***"
    assert strong.p_value < 0.01


# --------------------------------------------------------------------------
# OLS, fixed effects, VIF


def test_ols_matches_normal_equations(rng):
    X = rng.normal(0, 1, (120, 4))
    y = 1.0 + X @ np.array([2.0, -1.0, 0.5, 0.0]) + rng.normal(0, 0.3, 120)
    fit = fit_ols(fake_design(X, y))
    Xc = np.column_stack([np.ones(120), X])
    beta_o, se_o = ols_normal_equations(Xc, y)
    est = np.array([c.estimate for c in fit.coefficients.values()])
    ses = np.array([c.std_error for c in fit.coefficients.values()])
    np.testing.assert_allclose(est, beta_o, atol=1e-10)
    np.testing.assert_allclose(ses, se_o, atol=1e-10)
    assert 0.9 < fit.fit_stat <= 1.0


def test_ols_exact_fit():
    X = np.array([[1.0], [2.0], [3.0]])
    y = 2 * X[:, 0] + 1
    fit = fit_ols(fake_design(X, y))
    assert fit.coefficients["intercept"].estimate == pytest.approx(1.0)
    assert fit.coefficients["x0"].estimate == pytest.approx(2.0)
    assert fit.fit_stat == pytest.approx(1.0)


def test_ols_rank_deficiency_names_columns(rng):
    X = rng.normal(0, 1, (50, 3))
    X[:, 2] = 2 * X[:, 0] - X[:, 1]
    with pytest.raises(RankDeficient) as err:
        fit_ols(fake_design(X, y=rng.normal(0, 1, 50)))
    assert "x2" in err.value.columns


def test_rank_deficiency_names_a_column_small_in_scale(rng):
    """A column about 1e-14 the scale of the others falls under the rank
    rule, which compares singular values with the largest; it is named."""
    X = np.column_stack([rng.normal(0, 1, 50), 1e-14 * rng.normal(0, 1, 50),
                         rng.normal(0, 1, 50)])
    with pytest.raises(RankDeficient) as err:
        fit_ols(fake_design(X, y=rng.normal(0, 1, 50)))
    assert err.value.columns == ("x1",)


@given(n=st.integers(8, 60), p=st.integers(1, 4),
       exponent=st.floats(3.0, 16.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_ols_rank_check_matches_matrix_rank(n, p, exponent, seed):
    """RankDeficient is raised exactly when matrix_rank([1, X]) is short.

    The last column is column 0 plus noise scaled by 10**-exponent, from
    well conditioned (1e-3) to numerically dependent (1e-16). Designs whose
    smallest singular value is within 1e-3 of the tolerance are skipped:
    there numpy's values-only SVD (matrix_rank) and its full SVD may round
    to different sides (by about 1e-4 of the tolerance in 20,000 random
    designs).
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, p))
    X = np.column_stack([X, X[:, 0] + 10.0**-exponent * rng.normal(0, 1, n)])
    A = np.column_stack([np.ones(n), X])
    sing = np.linalg.svd(A, compute_uv=False)
    tol = sing[0] * max(A.shape) * np.finfo(float).eps
    assume(abs(sing[-1] / tol - 1) > 1e-3)
    design = fake_design(X, rng.normal(0, 1, n))
    if np.linalg.matrix_rank(A) < A.shape[1]:
        with pytest.raises(RankDeficient) as err:
            fit_ols(design)
        assert err.value.columns
    else:
        assert fit_ols(design).n_obs == n


def test_fixed_effects_matches_dummy_oracle(rng):
    n, g = 200, 8
    groups = rng.integers(0, g, n)
    X = rng.normal(0, 1, (n, 3))
    alpha = rng.normal(0, 2, g)
    y = X @ np.array([1.5, -0.7, 0.2]) + alpha[groups] + rng.normal(0, 0.4, n)
    d = DesignMatrix(
        spec=ModelSpec(Stage.LOAN_SIZING, Model.M2_NETWORK,
                       fixed_effects=FixedEffects.BANK_DUMMIES),
        column_names=("x0", "x1", "x2"),
        augmented=np.column_stack([np.ones(n), X]), y=y,
        firm_index=np.zeros(n, dtype=int), bank_index=groups,
        dummy_columns=frozenset(), bank_columns=frozenset(),
        n_floored={}, n_dropped=0)
    fit = fit_ols_fixed_effects(d)
    beta_o, se_o = ols_with_group_dummies(X, y, groups)
    est = np.array([c.estimate for c in fit.coefficients.values()])
    ses = np.array([c.std_error for c in fit.coefficients.values()])
    np.testing.assert_allclose(est, beta_o, atol=1e-8)
    np.testing.assert_allclose(ses, se_o, atol=1e-8)
    assert fit.extra["n_groups"] == g
    assert 0 <= fit.fit_stat <= 1
    assert fit.fit_stat <= fit.extra["r_squared_overall"] + 1e-9


def test_fixed_effects_rejects_bank_columns():
    d = DesignMatrix(
        spec=ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL,
                       fixed_effects=FixedEffects.BANK_DUMMIES),
        column_names=("ln_t_net",), augmented=np.ones((10, 2)),
        y=np.ones(10),
        firm_index=np.zeros(10, dtype=int),
        bank_index=np.arange(10) % 3,
        dummy_columns=frozenset(), bank_columns=frozenset({"ln_t_net"}),
        n_floored={}, n_dropped=0)
    with pytest.raises(AbsorbedColumns):
        fit_ols_fixed_effects(d)


def test_fixed_effects_singleton_groups():
    d = DesignMatrix(
        spec=ModelSpec(Stage.LOAN_SIZING, Model.M2_NETWORK,
                       fixed_effects=FixedEffects.BANK_DUMMIES),
        column_names=("x0",),
        augmented=np.column_stack([np.ones(4), np.arange(4.0)]),
        y=np.arange(4.0), firm_index=np.zeros(4, dtype=int),
        bank_index=np.arange(4), dummy_columns=frozenset(),
        bank_columns=frozenset(), n_floored={}, n_dropped=0)
    with pytest.raises(SingletonGroupsOnly):
        fit_ols_fixed_effects(d)


def test_design_fe_strips_bank_columns():
    sample = random_sample(np.random.default_rng(4))
    d = build_design(sample, ModelSpec(
        Stage.LOAN_SIZING, Model.M3_FULL,
        fixed_effects=FixedEffects.BANK_DUMMIES))
    assert not d.bank_columns
    assert "ln_t_net" not in d.column_names
    assert "ln_h" not in d.column_names
    fit = fit_ols_fixed_effects(d)
    assert fit.method == "ols_fe"


def test_vif_matches_correlation_oracle(rng):
    X = rng.normal(0, 1, (300, 4))
    X[:, 3] = 0.9 * X[:, 0] + 0.3 * rng.normal(0, 1, 300)
    d = fake_design(X, y=np.zeros(300))
    got = vif(d)
    expected = vif_from_correlation(X)
    for idx, name in enumerate(d.column_names):
        assert got[name] == pytest.approx(expected[idx], rel=1e-6)
    assert got["x3"] > got["x1"]


def test_vif_collinear_is_infinite(rng):
    X = rng.normal(0, 1, (100, 3))
    X[:, 2] = X[:, 0] + X[:, 1]
    got = vif(fake_design(X, y=np.zeros(100)))
    assert all(np.isinf(v) for v in got.values())


def test_vif_constant_column_is_infinite(rng):
    X = rng.normal(0, 1, (100, 4))
    X[:, 1] = 0.1  # its float mean is not exactly 0.1
    got = vif(fake_design(X, y=np.zeros(100)))
    assert all(np.isinf(v) for v in got.values())


def test_model_spec_names():
    assert ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL).name() == \
        "loan_sizing_m3_a"
    assert ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY).name() == \
        "link_formation_m1"
    spec = ModelSpec(Stage.LINK_FORMATION, Model.M3_FULL,
                     placebo=Placebo.NULL_BAL)
    assert spec.name() == "link_formation_m3_a_null_bal"
    assert ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL, herman=False).name() \
        == "loan_sizing_m3_a_uncorrected"


def test_model_spec_rejects_fields_its_design_ignores():
    with pytest.raises(EconError, match="loan sizing only"):
        ModelSpec(Stage.LINK_FORMATION, Model.M3_FULL,
                  fixed_effects=FixedEffects.BANK_DUMMIES)
    for placebo in (Placebo.NO_STRENGTH, Placebo.NULL_NET, Placebo.NULL_BAL):
        for model in (Model.M1_GRAVITY, Model.M2_NETWORK):
            with pytest.raises(EconError, match="placebo"):
                ModelSpec(Stage.LOAN_SIZING, model, placebo=placebo)
        with pytest.raises(EconError, match="placebo"):
            ModelSpec(Stage.LINK_FORMATION, Model.M3_FULL,
                      DegreeVariant.B_WITHOUT_DEGREE, placebo)


def test_model_spec_name_identifies_its_design():
    """Specs that share a name build the same design, for every spec the
    constructor accepts."""
    by_name: dict[str, list[ModelSpec]] = {}
    for fields in itertools.product(Stage, Model, DegreeVariant, Placebo,
                                    FixedEffects, (True, False)):
        try:
            spec = ModelSpec(*fields)
        except EconError:
            continue
        by_name.setdefault(spec.name(), []).append(spec)
    # per herman setting: 8 stage-1 names, and 16 at stage 2 with and
    # without bank fixed effects
    assert len(by_name) == 48
    sample = make_sample(**TWO_BY_TWO)  # the correction clamps a balance
    nulls = {Placebo.NULL_NET: expected_metrics(fitness_spec_from_sample(
                 sample, Variant.NETWORK_DRIVEN)),
             Placebo.NULL_BAL: expected_metrics(fitness_spec_from_sample(
                 sample, Variant.BALANCE_DRIVEN))}
    for name, specs in by_name.items():
        first = build_design(sample, specs[0], nulls.get(specs[0].placebo))
        for spec in specs[1:]:
            d = build_design(sample, spec, nulls.get(spec.placebo))
            assert d.column_names == first.column_names, name
            assert np.array_equal(d.augmented, first.augmented), name
            assert d.n_clamped == first.n_clamped, name
            assert d.n_floored == first.n_floored, name


def test_end_to_end_stage2_on_random_sample(rng):
    sample = random_sample(rng, nf=40, nb=10, p=0.4)
    d = build_design(sample, ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL))
    fit = fit_ols(d)
    assert fit.n_obs == sample.network.n_links
    assert np.isfinite(fit.fit_stat)


def test_end_to_end_stage1_on_random_sample(rng):
    sample = random_sample(rng, nf=40, nb=10, p=0.3)
    d = build_design(sample, ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY))
    fit = fit_logit(d)
    assert 0 <= fit.fit_stat < 1


def test_fit_design_picks_estimator_by_stage_and_effects(rng):
    sample = random_sample(rng, nf=40, nb=10, p=0.4)
    fe = FixedEffects.BANK_DUMMIES
    for spec, method in (
            (ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY), "logit"),
            (ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL), "ols"),
            (ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL, fixed_effects=fe),
             "ols_fe")):
        assert fit_design(build_design(sample, spec)).method == method
