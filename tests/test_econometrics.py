import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from creditnet import econometrics
from creditnet.core import Sample
from creditnet.econometrics import (AbsorbedColumns, AllRowsDropped,
                                    DegreeVariant, EconError,
                                    FixedEffects, Model, ModelSpec,
                                    MissingNullModel, NoConvergence, Placebo,
                                    RankDeficient, Separation,
                                    SingletonGroupsOnly, SingularInformation,
                                    Stage, build_design, fit_design, fit_logit,
                                    fit_ols, fit_ols_fixed_effects)
from creditnet.nullmodel import (Variant, expected_metrics,
                                 fitness_spec_from_sample)
from creditnet.report import canonical_json
from conftest import (assert_se_reads_bread, make_design, make_network,
                      make_sample)
from oracles import fit_logit_allocating, herman_correct, uncorrected_design


def random_sample(rng, nf=25, nb=8, p=0.35):
    from creditnet.core import BANK_FIELDS, FIRM_FIELDS

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


CORRECTED = ("ln_k", "ln_h", "ln_s_net", "ln_t_net", "ln_s_bal", "ln_t_bal")


def _pair(sample, i, j, stage):
    """The full model's corrected columns on the row of the pair (i, j),
    checked against the pair-by-pair oracle floored at 1 before the log."""
    d = build_design(sample, ModelSpec(stage, Model.M3_FULL))
    row = np.flatnonzero((d.firm_index == i) & (d.bank_index == j))[0]
    got = tuple(float(d.column(name)[row]) for name in CORRECTED)
    c = herman_correct(sample.network.weights, i, j,
                       1 if stage is Stage.LINK_FORMATION else 2,
                       sample.firm_columns["balance_strength"][i],
                       sample.bank_columns["balance_strength"][j])
    np.testing.assert_allclose(got, np.log(np.maximum(
        [c.firm_degree, c.bank_degree, c.firm_net_strength,
         c.bank_net_strength, c.firm_bal_strength, c.bank_bal_strength],
        1.0)), rtol=1e-12, atol=1e-12)
    return got


def _logs(*values):
    return pytest.approx(tuple(math.log(max(v, 1.0)) for v in values),
                         rel=1e-12, abs=1e-12)


TWO_BY_TWO = dict(weights=[[10.0, 0.0], [5.0, 2.0]],
                  s_bal=np.array([4.0, 9.0]), t_bal=np.array([20.0, 3.0]))


def test_herman_stage1_subtracts_focal_link():
    sample = make_sample(**TWO_BY_TWO)
    # k = 2 and h = 2 less the focal link; s_net 7 - 5 and t_net 15 - 5;
    # balance strengths untouched at stage 1
    assert _pair(sample, 1, 0, Stage.LINK_FORMATION) == _logs(
        1.0, 1.0, 2.0, 10.0, 9.0, 20.0)


def test_herman_stage1_absent_pair_unchanged():
    sample = make_sample(**TWO_BY_TWO)
    assert _pair(sample, 0, 1, Stage.LINK_FORMATION) == _logs(
        1.0, 1.0, 10.0, 2.0, 4.0, 3.0)


def test_herman_stage2_subtracts_from_balance_too():
    sample = make_sample(**TWO_BY_TWO)
    # s_bal 9 - 5 and t_bal 20 - 5
    assert _pair(sample, 1, 0, Stage.LOAN_SIZING) == _logs(
        1.0, 1.0, 2.0, 10.0, 4.0, 15.0)


def test_herman_stage2_clamps_negative_balance():
    sample = make_sample([[10.0]], s_bal=np.array([3.0]),
                         t_bal=np.array([30.0]))
    # s_bal 3 - 10 is clamped at 0 and floored; t_bal 30 - 10
    assert _pair(sample, 0, 0, Stage.LOAN_SIZING)[4:] == _logs(0.0, 20.0)
    d = build_design(sample, ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL))
    assert d.n_clamped == 1
    assert d.n_floored["ln_s_bal"] == 1 and d.n_floored["ln_t_bal"] == 0


def test_design_counts_clamped_balances(caplog):
    """Clamps are counted on the design, not logged, and only in a stage-2
    balance column."""
    sample = make_sample(**TWO_BY_TWO)  # link (0, 0): s_bal 4 - 10 < 0
    caplog.set_level("DEBUG")
    for stage, model, count in ((Stage.LOAN_SIZING, Model.M3_FULL, 1),
                                (Stage.LINK_FORMATION, Model.M3_FULL, 0),
                                (Stage.LOAN_SIZING, Model.M2_NETWORK, 0)):
        d = build_design(sample, ModelSpec(stage, model))
        assert d.n_clamped == count
        assert d.provenance() == {"n_obs": d.n_obs, "n_dropped": d.n_dropped,
                                  "n_floored": d.n_floored,
                                  "n_clamped": count}
    assert not caplog.records


@pytest.mark.parametrize("stage", list(Stage))
def test_uncorrected_design_holds_node_values(stage):
    """The oracle's uncorrected design holds every node's value, and agrees
    with the corrected design wherever the correction takes nothing off."""
    sample = make_sample(**TWO_BY_TWO)  # link (0, 0): s_bal 4 - 10 < 0
    spec = ModelSpec(stage, Model.M3_FULL)
    d = uncorrected_design(sample, spec)
    fi, bi = d.firm_index, d.bank_index
    k, h = sample.network.degrees
    s_net, t_net = sample.network.strengths
    node_values = (k[fi].astype(float), h[bi].astype(float), s_net[fi],
                   t_net[bi], sample.firm_columns["balance_strength"][fi],
                   sample.bank_columns["balance_strength"][bi])
    assert d.n_clamped == 0
    for name, want in zip(CORRECTED, node_values):
        assert np.array_equal(d.column(name), np.log(np.maximum(want, 1.0)))
    corrected = build_design(sample, spec)
    unlinked = sample.network.weights[fi, bi] == 0
    assert np.array_equal(d.augmented[unlinked], corrected.augmented[unlinked])
    for name in set(d.column_names) - set(CORRECTED):
        assert np.array_equal(d.column(name), corrected.column(name)), name


# the columns of the full model that do not yet follow the leave-pair-out
# rule, per stage
EXEMPT = {Stage.LINK_FORMATION: {"ln_s_bal", "ln_t_bal", "is_exclusive"},
          Stage.LOAN_SIZING: {"is_exclusive"}}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_design_leaves_the_pair_out(seed):
    """A linked pair's row is built as if its loan had never been made.

    Removing the loan w_ij from the network gives a sample where (i, j) is
    unlinked; removing it from both balance strengths too (clamped at 0)
    gives the pair's leave-pair-out row. The pair's stage-1 row equals that
    row, and so does its stage-2 row, but for the columns in ``EXEMPT``:
    stage 1 keeps the loan in the balance strengths, and ``is_exclusive``
    reads the degree with the loan at both stages. The null placebo
    columns are not covered: their leave-pair-out value needs the null
    recomputed without the loan.
    """
    rng = np.random.default_rng(seed)
    nf, nb = int(rng.integers(2, 9)), int(rng.integers(2, 7))
    w = (rng.random((nf, nb)) < 0.5) * rng.lognormal(1.0, 1.0, (nf, nb))
    # balance strengths may fall below a loan, so clamping is exercised too
    sample = make_sample(w, s_bal=rng.uniform(0, 20, nf),
                         t_bal=rng.uniform(0, 20, nb))
    # a pair whose bank keeps another link once the loan is gone, so the
    # leave-pair-out design keeps the bank's rows
    pairs = np.argwhere((w > 0) & ((w > 0).sum(axis=0) >= 2))
    assume(len(pairs) > 0)
    i, j = pairs[rng.integers(len(pairs))]
    loan = w[i, j]
    w_out = w.copy()
    w_out[i, j] = 0.0
    s_out = sample.firm_columns["balance_strength"].copy()
    t_out = sample.bank_columns["balance_strength"].copy()
    s_out[i], t_out[j] = max(s_out[i] - loan, 0.0), max(t_out[j] - loan, 0.0)
    left_out = build_design(
        Sample(make_network(w_out),
               dict(sample.firm_columns, balance_strength=s_out),
               dict(sample.bank_columns, balance_strength=t_out)),
        ModelSpec(Stage.LINK_FORMATION, Model.M3_FULL))
    ref = np.flatnonzero((left_out.firm_index == i)
                         & (left_out.bank_index == j))[0]
    for stage, exempt in EXEMPT.items():
        d = build_design(sample, ModelSpec(stage, Model.M3_FULL))
        assert d.column_names == left_out.column_names
        row = np.flatnonzero((d.firm_index == i) & (d.bank_index == j))[0]
        for name in d.column_names:
            if name not in exempt:
                assert d.column(name)[row] == pytest.approx(
                    left_out.column(name)[ref], rel=1e-12, abs=1e-12), (
                        stage, name)


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


def test_stage2_designs_share_the_network_links():
    """Stage-2 rows are the network's links themselves, not copies."""
    sample = random_sample(np.random.default_rng(2))
    fi, bi = sample.network.links
    for spec in (ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL),
                 ModelSpec(Stage.LOAN_SIZING, Model.M1_GRAVITY)):
        d = build_design(sample, spec)
        assert d.firm_index is fi and d.bank_index is bi


@pytest.mark.parametrize("spec", [
    ModelSpec(Stage.LINK_FORMATION, Model.M3_FULL),
    ModelSpec(Stage.LINK_FORMATION, Model.M2_NETWORK),
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


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stage1_rows_are_every_firm_and_kept_bank(seed):
    """Stage 1 has one row per firm and kept bank, firms first, with y = 1
    on the links: the gravity model keeps every bank, a network
    specification only the banks with a link and counts the rest dropped."""
    rng = np.random.default_rng(seed)
    nf, nb = int(rng.integers(1, 8)), int(rng.integers(1, 7))
    w = (rng.random((nf, nb)) < 0.5) * rng.lognormal(1.0, 1.0, (nf, nb))
    w[:, rng.random(nb) < 0.4] = 0.0  # isolated banks
    sample = make_sample(w)
    for model in (Model.M1_GRAVITY, Model.M2_NETWORK):
        pairs = [(i, j) for i in range(nf) for j in range(nb)
                 if model is Model.M1_GRAVITY or w[:, j].any()]
        spec = ModelSpec(Stage.LINK_FORMATION, model)
        if not pairs:
            with pytest.raises(AllRowsDropped):
                build_design(sample, spec)
            continue
        d = build_design(sample, spec)
        assert d.firm_index.dtype == d.bank_index.dtype == np.int64
        assert list(zip(d.firm_index.tolist(), d.bank_index.tolist())) == \
            pairs
        assert d.y.tolist() == [float(w[i, j] > 0) for i, j in pairs]
        assert d.n_dropped == nf * nb - len(pairs)


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
    # no link leaves no bank for a network specification at stage 1, while
    # the gravity model keeps every pair, each unlinked
    with pytest.raises(AllRowsDropped):
        build_design(sample, ModelSpec(Stage.LINK_FORMATION,
                                       Model.M2_NETWORK))
    d = build_design(sample, ModelSpec(Stage.LINK_FORMATION,
                                       Model.M1_GRAVITY))
    assert d.n_obs == 4 and d.n_dropped == 0 and not d.y.any()


# --------------------------------------------------------------------------
# logit


def synthetic_logit(rng, n=400, p=3):
    X = rng.normal(0, 1, (n, p))
    beta = np.array([0.5, -1.0, 0.8, 0.3][:p + 1])
    eta = beta[0] + X @ beta[1:]
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    return X, y


def test_logit_perfect_balance_intercept():
    y = np.array([0.0, 1.0] * 50)
    X = np.zeros((100, 1))
    X[:, 0] = np.tile([0.0, 1.0], 50)[::-1]  # anti-aligned regressor
    fit = fit_logit(make_design(X, y))
    assert fit.n_obs == 100
    assert fit.fit_stat == pytest.approx(
        1 - fit.objective / (100 * np.log(0.5)), abs=1e-9)


def test_logit_separation_detected(rng):
    X = rng.normal(0, 1, (80, 1))
    y = (X[:, 0] > 0).astype(float)
    with pytest.raises(Separation):
        fit_logit(make_design(X, y))


def test_logit_single_class_rejected():
    with pytest.raises(EconError):
        fit_logit(make_design(np.ones((10, 1)), np.ones(10)))


def test_logit_ame_continuous_and_dummy(rng):
    X, y = synthetic_logit(rng, n=600, p=2)
    X[:, 1] = (X[:, 1] > 0).astype(float)
    fit = fit_logit(make_design(X, y, names=("cont", "dummy"),
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
    """The same JSON, residuals and bread (the inverse information), and
    each standard error is sqrt(bread_jj)."""
    assert canonical_json(got.to_json()) == canonical_json(expected.to_json())
    assert np.array_equal(got.residuals, expected.residuals)
    assert np.array_equal(got.bread, expected.bread)
    assert_se_reads_bread(got)


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
    d = make_design(X, y, names=names, dummies=names[n_cont:])
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
    return make_design(X, (X[:, 0] > 0).astype(float))


def _quasi_separated_design():
    """A logit design whose dummy predicts y = 1 perfectly."""
    rng = np.random.default_rng(0)
    n = 200
    X = rng.normal(0, 1, (n, 2))
    dummy = (rng.random(n) < 0.05).astype(float)
    eta = 0.3 + X @ np.array([1.0, -0.5])
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    y[dummy == 1] = 1.0
    return make_design(np.column_stack([X, dummy]), y,
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
    """A negative bread diagonal (an indefinite information) reads NaN."""
    stat = econometrics._coef_stats(["a"], [0.3], 1.0, [[-1.0]])["a"]
    assert math.isnan(stat.std_error) and math.isnan(stat.p_value)
    assert stat.stars == ""
    fit = econometrics.FitResult(
        method="logit", coefficients={"a": stat}, fit_stat=0.1,
        fit_stat_name="pseudo_r2", n_obs=10, objective=-1.0, n_iter=3,
        residuals=np.zeros(10), bread=np.array([[-1.0]]))
    assert '"p_value": null' in canonical_json(fit.to_json())
    assert "***" not in fit.format_table()


def test_logit_stars_and_pvalues(rng):
    X, y = synthetic_logit(rng, n=2000)
    fit = fit_logit(make_design(X, y))
    strong = fit.coefficients["x1"]  # true coefficient -1.0
    assert strong.stars == "***"
    assert strong.p_value < 0.01


# --------------------------------------------------------------------------
# OLS, fixed effects, VIF


def test_ols_exact_fit():
    X = np.array([[1.0], [2.0], [3.0]])
    y = 2 * X[:, 0] + 1
    fit = fit_ols(make_design(X, y))
    assert fit.coefficients["intercept"].estimate == pytest.approx(1.0)
    assert fit.coefficients["x0"].estimate == pytest.approx(2.0)
    assert fit.fit_stat == pytest.approx(1.0)


def test_ols_rank_deficiency_names_columns(rng):
    X = rng.normal(0, 1, (50, 3))
    X[:, 2] = 2 * X[:, 0] - X[:, 1]
    with pytest.raises(RankDeficient) as err:
        fit_ols(make_design(X, y=rng.normal(0, 1, 50)))
    assert "x2" in err.value.columns
    # a constant column is dependent on the intercept
    X = rng.normal(0, 1, (100, 4))
    X[:, 1] = 0.1  # its float mean is not exactly 0.1
    with pytest.raises(RankDeficient) as err:
        fit_ols(make_design(X, y=rng.normal(0, 1, 100)))
    assert err.value.columns == ("x1",)


def test_rank_deficiency_names_a_column_small_in_scale(rng):
    """A column about 1e-14 the scale of the others falls under the rank
    rule, which compares singular values with the largest; it is named."""
    X = np.column_stack([rng.normal(0, 1, 50), 1e-14 * rng.normal(0, 1, 50),
                         rng.normal(0, 1, 50)])
    with pytest.raises(RankDeficient) as err:
        fit_ols(make_design(X, y=rng.normal(0, 1, 50)))
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
    design = make_design(X, rng.normal(0, 1, n))
    if np.linalg.matrix_rank(A) < A.shape[1]:
        with pytest.raises(RankDeficient) as err:
            fit_ols(design)
        assert err.value.columns
    else:
        assert fit_ols(design).n_obs == n


def test_fixed_effects_rejects_bank_columns():
    d = make_design(np.ones((10, 1)), np.ones(10), names=("ln_t_net",),
                    groups=np.arange(10) % 3, spec=ModelSpec(
                        Stage.LOAN_SIZING, Model.M3_FULL,
                        fixed_effects=FixedEffects.BANK_DUMMIES))
    with pytest.raises(AbsorbedColumns):
        fit_ols_fixed_effects(d)


def test_fixed_effects_singleton_groups():
    d = make_design(np.arange(4.0)[:, None], np.arange(4.0),
                    groups=np.arange(4), spec=ModelSpec(
                        Stage.LOAN_SIZING, Model.M2_NETWORK,
                        fixed_effects=FixedEffects.BANK_DUMMIES))
    with pytest.raises(SingletonGroupsOnly):
        fit_ols_fixed_effects(d)


def test_design_fe_strips_bank_columns():
    sample = random_sample(np.random.default_rng(4))
    d = build_design(sample, ModelSpec(
        Stage.LOAN_SIZING, Model.M3_FULL,
        fixed_effects=FixedEffects.BANK_DUMMIES))
    assert "ln_t_net" not in d.column_names
    assert "ln_h" not in d.column_names
    fit = fit_ols_fixed_effects(d)
    assert fit.method == "ols_fe"
    # the fit says so, and keeps no column that COLUMNS puts on the bank side
    assert fit.extra["bank_controls"] == "absorbed"
    assert not [c for c in fit.coefficients
                if c in econometrics.COLUMNS
                and econometrics.COLUMNS[c].side == econometrics.BANK]


def test_model_spec_names():
    assert ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL).name() == \
        "loan_sizing_m3_a"
    assert ModelSpec(Stage.LOAN_SIZING, Model.M2_NETWORK).name() == \
        "loan_sizing_m2_a"
    assert ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY).name() == \
        "link_formation_m1"
    spec = ModelSpec(Stage.LINK_FORMATION, Model.M3_FULL,
                     placebo=Placebo.NULL_BAL)
    assert spec.name() == "link_formation_m3_a_null_bal"


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
                                    FixedEffects):
        try:
            spec = ModelSpec(*fields)
        except EconError:
            continue
        by_name.setdefault(spec.name(), []).append(spec)
    # 8 stage-1 names, and 16 at stage 2 with and without bank fixed effects
    assert len(by_name) == 24
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


def test_fit_design_picks_estimator_by_stage_and_effects(rng):
    sample = random_sample(rng, nf=40, nb=10, p=0.4)
    fe = FixedEffects.BANK_DUMMIES
    for spec, method in (
            (ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY), "logit"),
            (ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL), "ols"),
            (ModelSpec(Stage.LOAN_SIZING, Model.M3_FULL, fixed_effects=fe),
             "ols_fe")):
        assert fit_design(build_design(sample, spec)).method == method
