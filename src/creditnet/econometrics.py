"""Two-stage credit regressions: link formation (logit) and loan sizing (OLS).

Design matrices follow three nested specifications: a gravity model on
balance-sheet fundamentals, a network model on degrees and strengths, and
a full model combining both. A pair's own loan never enters its
predictors: the ``COLUMNS`` table names what each node quantity loses on
the rows of a linked pair, and ``build_design`` applies that one rule.
Placebo designs replace empirical degrees with null-model expected degrees
under a cross-controlling convention.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Sample
# expected_metrics is not called here; it stays importable from this module
# because the benchmark's tracer wraps econometrics.expected_metrics by name
from .nullmodel import ExpectedMetrics, expected_metrics  # noqa: F401


STRENGTH_FLOOR = 1.0  # one euro, the inputs' unit; keeps log terms finite
DEGREE_FLOOR = 1.0  # a corrected degree of 0 reads as ln 1
EXPECTED_DEGREE_FLOOR = 1e-8
PLAIN_LOG = 0.0  # the log of values that are positive: nothing is floored


class EconError(ValueError):
    pass


class MissingNullModel(EconError):
    pass


class AllRowsDropped(EconError):
    pass


class Separation(EconError):
    pass


class SingularInformation(EconError):
    pass


class NoConvergence(EconError):
    pass


class RankDeficient(EconError):
    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"rank-deficient design; dependent columns: {self.columns}")


class SingletonGroupsOnly(EconError):
    pass


class AbsorbedColumns(EconError):
    pass


class Stage(enum.Enum):
    LINK_FORMATION = "link_formation"
    LOAN_SIZING = "loan_sizing"


class Model(enum.Enum):
    M1_GRAVITY = "m1"
    M2_NETWORK = "m2"
    M3_FULL = "m3"


class DegreeVariant(enum.Enum):
    A_WITH_DEGREE = "a"
    B_WITHOUT_DEGREE = "b"


class Placebo(enum.Enum):
    """The placebo column of the full model; each value is a name part."""

    NONE = "none"
    NO_STRENGTH = "nostrength"  # empirical degrees, no network strengths
    NULL_NET = "null_net"  # degrees of the volume-driven null
    NULL_BAL = "null_bal"  # degrees of the accounting-size null


class FixedEffects(enum.Enum):
    NONE = "none"
    BANK_DUMMIES = "bank"


@dataclass(frozen=True)
class ModelSpec:
    """A regression design: stage, variable set, placebo, fixed effects."""

    stage: Stage
    model: Model
    variant: DegreeVariant = DegreeVariant.A_WITH_DEGREE
    placebo: Placebo = Placebo.NONE
    fixed_effects: FixedEffects = FixedEffects.NONE

    def __post_init__(self):
        if self.placebo is not Placebo.NONE and (
                self.model is not Model.M3_FULL
                or self.variant is not DegreeVariant.A_WITH_DEGREE):
            # a placebo design has its own fixed columns
            raise EconError("a placebo takes the full model with variant a")
        if self.fixed_effects is not FixedEffects.NONE and \
                self.stage is not Stage.LOAN_SIZING:
            raise EconError("bank fixed effects apply to loan sizing only")

    def name(self) -> str:
        """The cell name; two specs share it only if their designs agree."""
        parts = [self.stage.value, self.model.value]
        if self.model is not Model.M1_GRAVITY:
            parts.append(self.variant.value)
        if self.placebo is not Placebo.NONE:
            parts.append(self.placebo.value)
        if self.fixed_effects is not FixedEffects.NONE:
            parts.append("fe")
        return "_".join(parts)


FIRM, BANK = "firm", "bank"
# the share of a node quantity that a linked pair's own loan contributes
LINK, LOAN, LOAN_AT_STAGE_2 = "link", "loan", "loan at stage 2"
Column = namedtuple("Column", "side source floor own")

# design column -> its node side, source quantity, log floor and own share.
# A source is a node quantity: a degree (k, h), a network strength (s_net,
# t_net), a placebo null's expected degree (k_null, h_null), "exclusive"
# (single-banked on the network as observed) or a node attribute. A
# positive floor raises the values below it to it, and counts them, before
# the log; PLAIN_LOG takes the log alone, and None keeps the values.
#
# The rest-of-world rule: a pair's own loan never enters its predictors. On
# the row of a linked pair, a column with an own share takes the node
# quantity less that share before its floor: degrees lose the link (1) and
# network strengths the loan, at both stages; balance strengths lose the
# loan at stage 2 only. Every other row, and every other column, holds the
# node's value.
COLUMNS = {
    "ln_k": Column(FIRM, "k", DEGREE_FLOOR, LINK),
    "ln_h": Column(BANK, "h", DEGREE_FLOOR, LINK),
    "ln_s_net": Column(FIRM, "s_net", STRENGTH_FLOOR, LOAN),
    "ln_t_net": Column(BANK, "t_net", STRENGTH_FLOOR, LOAN),
    "ln_s_bal": Column(FIRM, "balance_strength", STRENGTH_FLOOR,
                       LOAN_AT_STAGE_2),
    "ln_t_bal": Column(BANK, "balance_strength", STRENGTH_FLOOR,
                       LOAN_AT_STAGE_2),
    "ln_k_null": Column(FIRM, "k_null", EXPECTED_DEGREE_FLOOR, None),
    "ln_h_null": Column(BANK, "h_null", EXPECTED_DEGREE_FLOOR, None),
    "is_exclusive": Column(FIRM, "exclusive", None, None),
    "ln_assets_firm": Column(FIRM, "total_assets", PLAIN_LOG, None),
    "lev_firm": Column(FIRM, "leverage", None, None),
    "roa_firm": Column(FIRM, "roa", None, None),
    "tang": Column(FIRM, "tangibility", None, None),
    "ln_assets_bank": Column(BANK, "total_assets", PLAIN_LOG, None),
    "lev_bank": Column(BANK, "leverage", None, None),
    "roa_bank": Column(BANK, "roa", None, None),
}


@dataclass(frozen=True)
class DesignMatrix:
    """Assembled regression rows with provenance metadata.

    ``augmented`` is the float64 (n, 1 + p) array the estimators fit, in C
    order: column 0 is the intercept and column ``1 + j`` holds
    ``column_names[j]``. ``X`` is its regressor view ``augmented[:, 1:]``.

    ``n_clamped`` counts the corrected balance strengths below 0 in the
    design's stage-2 balance columns.
    """

    spec: ModelSpec
    column_names: tuple[str, ...]
    augmented: np.ndarray
    y: np.ndarray
    firm_index: np.ndarray
    bank_index: np.ndarray
    dummy_columns: frozenset[str]
    n_floored: dict[str, int]
    n_dropped: int
    n_clamped: int = 0

    @property
    def X(self) -> np.ndarray:
        return self.augmented[:, 1:]

    @property
    def n_obs(self) -> int:
        return self.augmented.shape[0]

    def provenance(self) -> dict:
        """Rows kept and dropped, and values floored and clamped."""
        return {"n_obs": self.n_obs, "n_dropped": self.n_dropped,
                "n_floored": self.n_floored, "n_clamped": self.n_clamped}

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.column_names.index(name)]


def _columns_for(spec: ModelSpec) -> list[str]:
    # the gravity fundamentals of each side
    firm = ["ln_s_bal", "ln_assets_firm", "lev_firm", "roa_firm", "tang"]
    bank = ["ln_t_bal", "ln_assets_bank", "lev_bank", "roa_bank"]
    if spec.model is Model.M1_GRAVITY:
        return firm + bank
    if spec.placebo is Placebo.NULL_NET:
        # degrees from the volume-driven null, cross-controlled by s_bal/t_bal
        return ["ln_k_null"] + firm + ["ln_h_null"] + bank
    if spec.placebo is Placebo.NULL_BAL:
        # degrees from the accounting-size null, controlled by s_net/t_net
        return (["ln_k_null", "ln_s_net"] + firm[1:] +
                ["ln_h_null", "ln_t_net"] + bank[1:])
    with_degree = spec.variant is DegreeVariant.A_WITH_DEGREE
    net_firm = ["ln_s_net"] + (["ln_k", "is_exclusive"] if with_degree else [])
    net_bank = ["ln_t_net"] + (["ln_h"] if with_degree else [])
    if spec.model is Model.M2_NETWORK:
        return net_firm + net_bank
    if spec.placebo is Placebo.NO_STRENGTH:
        net_firm, net_bank = net_firm[1:], net_bank[1:]
    return net_firm + firm + net_bank + bank


def build_design(sample: Sample, spec: ModelSpec,
                 null: ExpectedMetrics | None = None) -> DesignMatrix:
    """Assemble the design matrix and response for a model specification.

    Each column follows its ``COLUMNS`` entry; ``n_floored`` counts, per
    floored column, the rows raised to its floor. A null placebo reads its
    expected degrees from ``null``, the closed forms of its null model.
    """
    net = sample.network
    nf, nb = net.n_firms, net.n_banks
    k, h = net.degrees
    s_net, t_net = net.strengths
    loan_sizing = spec.stage is Stage.LOAN_SIZING

    columns = _columns_for(spec)
    if spec.fixed_effects is FixedEffects.BANK_DUMMIES:
        columns = [c for c in columns if COLUMNS[c].side != BANK]

    # node quantities, transformed per node and then gathered into rows
    nodes = {FIRM: dict(sample.firm_columns, k=k, s_net=s_net,
                        exclusive=(k == 1).astype(float)),
             BANK: dict(sample.bank_columns, h=h, t_net=t_net)}
    if any(COLUMNS[c].source in ("k_null", "h_null") for c in columns):
        if null is None:
            raise MissingNullModel(
                f"design requires a calibrated {spec.placebo.value} model")
        nodes[FIRM]["k_null"] = null.firm_degrees
        nodes[BANK]["h_null"] = null.bank_degrees

    # the links, firm-major, and what each own share takes off their rows
    li, lj = net.links
    loans = net.weights[li, lj]
    own_share = {LINK: 1.0, LOAN: loans}
    if loan_sizing:  # the rows are the links, the network's own arrays
        fi, bi, linked, n_dropped = li, lj, slice(None), 0
        own_share[LOAN_AT_STAGE_2] = loans
        y = np.log(loans)
    else:
        # every pair of a firm and a kept bank, firms first: a network
        # specification drops the rows of the banks isolated by the
        # consistency filter, which carry no information, and counts them
        banks = (np.arange(nb) if spec.model is Model.M1_GRAVITY
                 else np.flatnonzero(h))
        n_dropped = nf * (nb - banks.size)
        fi, bi = np.repeat(np.arange(nf), banks.size), np.tile(banks, nf)
        linked = li * banks.size + np.searchsorted(banks, lj)  # ascending
        y = np.zeros(fi.size)
        y[linked] = 1.0
    if fi.size == 0:
        raise AllRowsDropped("no rows left for this specification")
    rows = {FIRM: fi, BANK: bi}
    ends = {FIRM: li, BANK: lj}  # each side's node on the linked rows

    floored: dict[str, int] = {}
    n_clamped = 0
    # each column is transformed per node and gathered into its place; the
    # linked rows of a column with an own share are then overwritten
    augmented = np.empty((fi.size, 1 + len(columns)))
    augmented[:, 0] = 1.0
    for j, name in enumerate(columns, start=1):
        side, source, floor, own = COLUMNS[name]
        node, take = nodes[side][source], rows[side]
        if floor:
            below = node < floor
            floored[name] = np.count_nonzero(below[take])
            values = np.log(np.maximum(node, floor))
        else:
            values = np.log(node) if floor == PLAIN_LOG else node
        augmented[:, j] = values[take]
        if own in own_share:
            own_rows = ends[side]
            rest = node[own_rows] - own_share[own]
            floored[name] += (np.count_nonzero(rest < floor)
                              - np.count_nonzero(below[own_rows]))
            if own is LOAN_AT_STAGE_2:  # the floor of 1 covers the clamp at 0
                n_clamped += np.count_nonzero(rest < 0)
            augmented[linked, j] = np.log(np.maximum(rest, floor))
    if not np.all(np.isfinite(augmented)):
        raise EconError("non-finite entries in the design matrix")

    return DesignMatrix(
        spec=spec,
        column_names=tuple(columns),
        augmented=augmented,
        y=y,
        firm_index=fi,
        bank_index=bi,
        dummy_columns=frozenset({"is_exclusive"} & set(columns)),
        n_floored=floored,
        n_dropped=n_dropped,
        n_clamped=n_clamped,
    )


# ---------------------------------------------------------------------------
# estimation


@dataclass(frozen=True)
class CoefficientStat:
    estimate: float
    std_error: float
    p_value: float
    stars: str


@dataclass(frozen=True)
class FitResult:
    """Estimates and fit diagnostics of a single regression.

    ``bread`` is the inverse cross-product the standard errors read: (A'A)^-1
    of the design with its intercept (OLS) or of the demeaned design (within
    fit), or the inverse information (logit).
    """

    method: str
    coefficients: dict[str, CoefficientStat]
    fit_stat: float
    fit_stat_name: str
    n_obs: int
    objective: float  # log-likelihood (logit) or RSS (OLS)
    n_iter: int
    residuals: np.ndarray
    bread: np.ndarray
    ame: dict[str, float] | None = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "method": self.method,
            "n_obs": self.n_obs,
            self.fit_stat_name: self.fit_stat,
            "objective": self.objective,
            "n_iter": self.n_iter,
            "coefficients": {name: asdict(c)
                             for name, c in self.coefficients.items()},
        }
        if self.ame is not None:
            out["ame"] = dict(self.ame)
        if self.extra:
            out["extra"] = {k: v for k, v in sorted(self.extra.items())}
        return out

    def format_table(self, title: str = "") -> str:
        lines = []
        if title:
            lines += [title, "=" * len(title)]
        width = max(len(n) for n in self.coefficients) + 2
        for name, c in self.coefficients.items():
            entry = f"{c.estimate:.4f}{c.stars} ({c.std_error:.4f})"
            if self.ame and name in self.ame:
                entry += f" [{self.ame[name]:.4f}]"
            lines.append(f"{name:<{width}}{entry}")
        lines.append(f"{'Observations':<{width}}{self.n_obs}")
        lines.append(f"{self.fit_stat_name:<{width}}{self.fit_stat:.4f}")
        for key, value in sorted(self.extra.items()):
            if isinstance(value, float):
                lines.append(f"{key:<{width}}{value:.4f}")
            else:
                lines.append(f"{key:<{width}}{value}")
        return "\n".join(lines) + "\n"


def _stars(p: float) -> str:
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def _coef_stats(names, beta, scale, bread) -> dict[str, CoefficientStat]:
    """Each SE is sqrt(scale * bread_jj): scale is the residual variance for
    OLS and 1 for the logit, and a negative bread_jj reads NaN."""
    with np.errstate(invalid="ignore"):
        se = np.sqrt(scale * np.diag(bread))
    out = {}
    for name, b, s in zip(names, beta, se):
        z = b / s if s > 0 else math.inf
        # an undefined standard error leaves the test undefined: no stars
        p = math.nan if math.isnan(s) else math.erfc(abs(z) / math.sqrt(2.0))
        out[name] = CoefficientStat(float(b), float(s), float(p), _stars(p))
    return out


def _rank_tolerance(sing: np.ndarray, shape) -> float:
    """numpy.linalg.matrix_rank's default tolerance for singular values."""
    return sing[0] * max(shape) * np.finfo(float).eps


def _dependent_columns(X: np.ndarray, names):
    """Name the columns that make X rank-deficient under _ols_core's rule.

    Columns are taken in order. A column is named when it brings the
    smallest singular value of the columns kept so far to within the
    tolerance of X as a whole; otherwise it is kept.
    """
    tol = _rank_tolerance(np.linalg.svd(X, full_matrices=False)[1], X.shape)
    kept: list[int] = []
    bad = []
    for idx, name in enumerate(names):
        sing = np.linalg.svd(X[:, kept + [idx]], full_matrices=False)[1]
        if sing[-1] <= tol:
            bad.append(name)
        else:
            kept.append(idx)
    return bad


def _loglik(y: np.ndarray, eta: np.ndarray) -> float:
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def fit_logit(design: DesignMatrix, tol_score: float = 1e-8,
              tol_ll: float = 1e-12, max_iters: int = 200) -> FitResult:
    """Maximum-likelihood logit via iteratively reweighted least squares.

    IRLS stops at the first iteration whose score has max |score| below
    ``tol_score`` and whose log-likelihood moved by at most ``tol_ll``
    relative. It raises ``Separation`` when a coefficient passes 1e4 or a
    linear predictor 500, and ``SingularInformation`` when the information
    matrix cannot be solved or inverted. Standard errors are NaN when the
    information is indefinite.

    The fit is allocation-lean but every floating-point operation is that
    of the textbook loop kept in ``tests/oracles.py``, so results are
    byte-identical to it: the design's ``augmented`` array is fitted in
    place, the probabilities, residuals, weights and ``X * w`` live in
    buffers made once per fit, and the log-likelihood is evaluated only
    on iterations that pass the score test. The BLAS calls keep their
    operands, layout and transposes (``X @ beta``, ``X.T @ r``,
    ``(X * w).T @ X``). Near-separated fits need this: computing the
    information as ``X.T @ (X * w)`` instead, a reduction in another
    order, moves ``link_formation_m3_a`` on the ``grid_paper`` benchmark
    workload from 31 to 30 iterations, its ``is_exclusive`` estimate by 4%
    and its standard error by 39%.
    """
    y = design.y
    if not np.all((y == 0) | (y == 1)):
        raise EconError("logit response must be binary")
    n = y.size
    names = ("intercept",) + design.column_names
    X = design.augmented
    p_dim = X.shape[1]
    if n <= p_dim:
        raise EconError("need more observations than parameters")

    ybar = y.mean()
    if ybar in (0.0, 1.0):
        raise EconError("response has a single class")
    ll_null = n * (ybar * math.log(ybar) + (1 - ybar) * math.log(1 - ybar))

    beta = np.zeros(p_dim)
    p, resid, weights = np.empty(n), np.empty(n), np.empty(n)
    xw = np.empty_like(X)
    eta_old = None
    for it in range(1, max_iters + 1):
        eta = X @ beta
        # p = 1 / (1 + exp(-clip(eta))), r = y - p, w = p (1 - p)
        np.clip(eta, -700, 700, out=p)
        np.negative(p, out=p)
        np.exp(p, out=p)
        np.add(1.0, p, out=p)
        np.divide(1.0, p, out=p)
        np.subtract(y, p, out=resid)
        score = X.T @ resid
        np.subtract(1.0, p, out=weights)
        np.multiply(p, weights, out=weights)
        np.multiply(X, weights[:, None], out=xw)
        info = xw.T @ X
        if np.abs(score).max() < tol_score:
            ll = _loglik(y, eta)
            ll_old = -np.inf if eta_old is None else _loglik(y, eta_old)
            if abs(ll - ll_old) <= tol_ll * max(1.0, abs(ll)):
                break
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise SingularInformation("singular information matrix") from None
        beta = beta + step
        if np.abs(beta).max() > 1e4 or np.abs(eta).max() > 500:
            raise Separation("diverging coefficients indicate separation")
        eta_old = eta
    else:
        raise NoConvergence(f"IRLS did not converge in {max_iters} iterations")

    del xw
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SingularInformation("singular information matrix") from None

    ame: dict[str, float] = {}
    for idx, name in enumerate(design.column_names):
        col = idx + 1  # skip intercept
        if name in design.dummy_columns:
            eta1 = eta + (1.0 - X[:, col]) * beta[col]
            eta0 = eta - X[:, col] * beta[col]
            p1 = 1.0 / (1.0 + np.exp(-np.clip(eta1, -700, 700)))
            p0 = 1.0 / (1.0 + np.exp(-np.clip(eta0, -700, 700)))
            ame[name] = float((p1 - p0).mean())
        else:
            # weights hold the density p (1 - p) at the estimate
            ame[name] = float(beta[col] * weights.mean())

    pseudo_r2 = 1.0 - ll / ll_null if ll_null != 0 else 0.0
    return FitResult(
        method="logit",
        coefficients=_coef_stats(names, beta, 1.0, cov),
        fit_stat=float(pseudo_r2),
        fit_stat_name="pseudo_r2",
        n_obs=n,
        objective=ll,
        n_iter=it,
        ame=ame,
        residuals=resid,
        bread=cov,
    )


def _ols_core(X: np.ndarray, y: np.ndarray, names):
    """SVD least squares: ``(beta, resid, rss, bread)`` with the bread
    (X'X)^-1 = V diag(sing^-2) V'. Raises ``RankDeficient`` when the smallest
    singular value is at most numpy.linalg.matrix_rank's default tolerance.
    """
    u, sing, vt = np.linalg.svd(X, full_matrices=False)
    if sing[-1] <= _rank_tolerance(sing, X.shape):
        raise RankDeficient(_dependent_columns(X, names))
    beta = vt.T @ ((u.T @ y) / sing)
    resid = y - X @ beta
    a = vt / sing[:, None]
    # einsum adds each entry's k terms in order, unlike a BLAS a.T @ a: the
    # diagonal is exactly ((vt / sing[:, None])**2).sum(axis=0)
    return beta, resid, float(resid @ resid), np.einsum("ki,kj->ij", a, a)


def fit_ols(design: DesignMatrix) -> FitResult:
    """Ordinary least squares with an intercept and classical errors."""
    y = design.y
    n = y.size
    names = ("intercept",) + design.column_names
    X = design.augmented
    if n <= X.shape[1]:
        raise EconError("need more observations than parameters")
    beta, resid, rss, bread = _ols_core(X, y, names)
    tss = float(((y - y.mean())**2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    return FitResult(
        method="ols",
        coefficients=_coef_stats(names, beta, rss / (n - X.shape[1]),
                                 bread),
        fit_stat=float(r2),
        fit_stat_name="r_squared",
        n_obs=n,
        objective=rss,
        n_iter=1,
        residuals=resid,
        bread=bread,
    )


def fit_ols_fixed_effects(design: DesignMatrix) -> FitResult:
    """Within-transformation OLS absorbing bank-level heterogeneity."""
    absorbed = [c for c in design.column_names
                if c in COLUMNS and COLUMNS[c].side == BANK]
    if absorbed:
        raise AbsorbedColumns(
            f"bank-level columns are absorbed under bank fixed effects: "
            f"{sorted(absorbed)}")
    y = design.y
    _, gidx, counts = np.unique(design.bank_index, return_inverse=True,
                                return_counts=True)
    n_groups = counts.size
    if n_groups < 2:
        raise EconError("need at least two banks for fixed effects")
    if np.all(counts <= 1):
        raise SingletonGroupsOnly("every bank has a single observation")

    # group means of y and of every column, one bincount each
    yx_dm = np.column_stack([y, design.X])
    means = np.column_stack([np.bincount(gidx, weights=col)
                             for col in yx_dm.T]) / counts[:, None]
    yx_dm -= means[gidx]
    y_dm, X_dm = yx_dm[:, 0], yx_dm[:, 1:]

    n = y.size
    p_dim = X_dm.shape[1]
    dof = n - n_groups - p_dim
    if dof <= 0:
        raise EconError("insufficient degrees of freedom after demeaning")
    beta, resid, rss, bread = _ols_core(X_dm, y_dm, design.column_names)

    tss_within = float((y_dm**2).sum())
    r2_within = 1.0 - rss / tss_within if tss_within > 0 else 1.0
    fitted_overall = X_dm @ beta + means[gidx, 0]
    tss = float(((y - y.mean())**2).sum())
    resid_overall = y - fitted_overall
    r2_overall = 1.0 - float(resid_overall @ resid_overall) / tss if tss > 0 else 1.0

    return FitResult(
        method="ols_fe",
        coefficients=_coef_stats(design.column_names, beta, rss / dof, bread),
        fit_stat=float(r2_within),
        fit_stat_name="r_squared_within",
        n_obs=n,
        objective=rss,
        n_iter=1,
        residuals=resid,
        bread=bread,
        extra={"n_groups": int(n_groups), "r_squared_overall": float(r2_overall),
               "bank_controls": "absorbed"},
    )


def fit_design(design: DesignMatrix) -> FitResult:
    """Fit a design with the estimator its stage and fixed effects call for."""
    if design.spec.stage is Stage.LINK_FORMATION:
        return fit_logit(design)
    if design.spec.fixed_effects is FixedEffects.BANK_DUMMIES:
        return fit_ols_fixed_effects(design)
    return fit_ols(design)


def vif(design: DesignMatrix, fit: FitResult) -> dict[str, float]:
    """VIFs from the bread of the design's ``fit_ols`` fit, which holds
    1 / (SS_j (1 - R_j^2)) at column j: VIF_j = bread_jj * SS_j, with SS_j
    the column's centred sum of squares. A VIF of 1e12 or more reads inf."""
    if len(design.column_names) < 3:
        raise EconError("VIF needs at least three columns")
    out = {}
    for j, name in enumerate(design.column_names, start=1):
        centred = design.augmented[:, j] - design.augmented[:, j].mean()
        v = fit.bread[j, j] * float(centred @ centred)
        out[name] = float(v) if v < 1e12 else float("inf")
    return out
