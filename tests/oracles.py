"""Independent reference implementations that tests compare creditnet against.

Everything here is deliberately written as directly as possible (plain
loops, textbook formulas) and never calls into the package code paths it
is used to check. The module holds only such references: a helper that no
test compares creditnet with, such as a metric the package does not
compute, has no place here.
"""

import json
import math
from dataclasses import dataclass

import numpy as np


def row_col_sums(weights):
    nf, nb = weights.shape
    rows = [sum(weights[i][j] for j in range(nb)) for i in range(nf)]
    cols = [sum(weights[i][j] for i in range(nf)) for j in range(nb)]
    return rows, cols


def ccdf_by_counting(values):
    out = {}
    for x in sorted(set(values)):
        out[x] = sum(1 for v in values if v >= x) / len(values)
    return out


def _percentile_linear(ordered, q):
    """The q-th percentile of a sorted list, interpolating linearly between
    the two values around position q / 100 * (n - 1)."""
    pos = q / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def binned_profile(x, y, edges):
    """Mean, population SD, and 5th and 95th percentiles of the y values
    whose x lies in [edges[b], edges[b + 1]) for each bin b; the last bin
    also holds its upper edge. An empty bin gives NaN for each."""
    n_bins = len(edges) - 1
    rows = []
    for b in range(n_bins):
        sel = sorted(yv for xv, yv in zip(x, y) if edges[b] <= xv
                     and (xv < edges[b + 1] or b == n_bins - 1))
        if not sel:
            rows.append([math.nan] * 4)
            continue
        mean = sum(sel) / len(sel)
        rows.append([mean,
                     math.sqrt(sum((v - mean) ** 2 for v in sel) / len(sel)),
                     _percentile_linear(sel, 5), _percentile_linear(sel, 95)])
    return list(zip(*rows))


def average_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for m in range(i, j + 1):
            ranks[order[m]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def pearson(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    xc, yc = x - x.mean(), y - y.mean()
    return float((xc * yc).sum() / np.sqrt((xc**2).sum() * (yc**2).sum()))


def spearman(x, y):
    return pearson(average_ranks(list(x)), average_ranks(list(y)))


def central_moments(values, order):
    values = np.asarray(values, float)
    mean = values.mean()
    return float(((values - mean) ** order).mean())


def calibrate_z_allocating(s, t, l_target):
    """Bracket and geometric bisection on fresh arrays.

    Every evaluation of the expected link count forms z s t', 1 + z s t'
    and p anew; the solver's sequence of steps is the package's.
    """
    s, t = np.asarray(s, float), np.asarray(t, float)

    def expected_links(z):
        st = z * np.outer(s, t)
        return float((st / (1.0 + st)).sum())

    lo, hi = 1e-18, 1.0
    while expected_links(hi) <= l_target:
        hi *= 2.0
    while expected_links(lo) >= l_target:
        lo /= 2.0
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if expected_links(mid) < l_target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + 1e-12:
            break
    return float(np.sqrt(lo * hi))


def bicm_fixed_point(k, h, tol=1e-12, max_iters=200_000, damping=0.5):
    """Damped fixed point on the degree-constraint equations."""
    k, h = np.asarray(k, float), np.asarray(h, float)
    nf, nb = k.size, h.size
    x = np.where(k > 0, k / nb, 0.0)
    y = np.where(h > 0, h / nf, 0.0)
    for _ in range(max_iters):
        p = np.outer(x, y) / (1 + np.outer(x, y))
        if max(np.abs(p.sum(axis=1) - k).max(),
               np.abs(p.sum(axis=0) - h).max()) < tol:
            return p
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = np.where(
                k > 0, k / (y[None, :] / (1 + np.outer(x, y))).sum(axis=1), 0.0)
            y_new = np.where(
                h > 0, h / (x_new[:, None] / (1 + np.outer(x_new, y))).sum(axis=0), 0.0)
        x = np.where(k > 0, np.sqrt(x * x_new), 0.0)
        y = np.where(h > 0, np.sqrt(y * y_new), 0.0)
    raise RuntimeError("oracle fixed point did not converge")


def logit_loglik(X, y, beta):
    eta = X @ beta
    return float((y * eta - np.log1p(np.exp(eta))).sum())


def logit_newton(X, y, max_iters=500, tol=1e-12):
    """Plain Newton-Raphson with explicit Hessian and pseudo-inverse."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    beta = np.zeros(X.shape[1])
    for _ in range(max_iters):
        p = 1 / (1 + np.exp(-(X @ beta)))
        grad = X.T @ (y - p)
        hess = -(X.T * (p * (1 - p))) @ X
        step = np.linalg.pinv(hess) @ grad
        beta_new = beta - step
        if np.abs(beta_new - beta).max() < tol:
            return beta_new
        beta = beta_new
    return beta


def fit_logit_allocating(design, tol_score=1e-8, tol_ll=1e-12, max_iters=200):
    """The package's IRLS logit written as the textbook loop.

    Each iteration forms [1, X], the probabilities, the log-likelihood and
    X * w on fresh arrays; every floating-point operation is the
    package's, in the same order, so its results must be identical.
    """
    from creditnet.econometrics import (EconError, FitResult, NoConvergence,
                                        Separation, SingularInformation,
                                        _coef_stats)

    y = design.y
    if not np.all((y == 0) | (y == 1)):
        raise EconError("logit response must be binary")
    n = y.size
    names = ("intercept",) + design.column_names
    X = np.column_stack([np.ones(n), design.X])
    p_dim = X.shape[1]
    if n <= p_dim:
        raise EconError("need more observations than parameters")

    ybar = y.mean()
    if ybar in (0.0, 1.0):
        raise EconError("response has a single class")
    ll_null = n * (ybar * math.log(ybar) + (1 - ybar) * math.log(1 - ybar))

    beta = np.zeros(p_dim)
    ll_old = -np.inf
    for it in range(1, max_iters + 1):
        eta = X @ beta
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))
        ll = float(y @ eta - np.logaddexp(0.0, eta).sum())
        score = X.T @ (y - p)
        weights = p * (1.0 - p)
        if np.abs(score).max() < tol_score and \
                abs(ll - ll_old) <= tol_ll * max(1.0, abs(ll)):
            break
        info = (X * weights[:, None]).T @ X
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise SingularInformation("singular information matrix") from None
        beta = beta + step
        if np.abs(beta).max() > 1e4 or np.abs(eta).max() > 500:
            raise Separation("diverging coefficients indicate separation")
        ll_old = ll
    else:
        raise NoConvergence(f"IRLS did not converge in {max_iters} iterations")

    info = (X * weights[:, None]).T @ X
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SingularInformation("singular information matrix") from None

    density = p * (1.0 - p)
    ame = {}
    for idx, name in enumerate(design.column_names):
        col = idx + 1
        if name in design.dummy_columns:
            eta1 = eta + (1.0 - X[:, col]) * beta[col]
            eta0 = eta - X[:, col] * beta[col]
            p1 = 1.0 / (1.0 + np.exp(-np.clip(eta1, -700, 700)))
            p0 = 1.0 / (1.0 + np.exp(-np.clip(eta0, -700, 700)))
            ame[name] = float((p1 - p0).mean())
        else:
            ame[name] = float(beta[col] * density.mean())

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
        residuals=y - p,
        bread=cov,
    )


def logit_grid_refine(X, y, beta_start, half_width=0.5, levels=14):
    """Coordinate-wise likelihood grid search, successively refined."""
    beta = np.array(beta_start, float)
    width = half_width
    for _ in range(levels):
        for idx in range(beta.size):
            grid = beta[idx] + np.linspace(-width, width, 21)
            best, best_ll = beta[idx], -np.inf
            for value in grid:
                trial = beta.copy()
                trial[idx] = value
                ll = logit_loglik(X, y, trial)
                if ll > best_ll:
                    best, best_ll = value, ll
            beta[idx] = best
        width /= 2
    return beta


def ols_normal_equations(X, y):
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    resid = y - X @ beta
    dof = X.shape[0] - X.shape[1]
    sigma2 = float(resid @ resid) / dof
    se = np.sqrt(sigma2 * np.diag(xtx_inv))
    return beta, se


def ols_with_group_dummies(X, y, groups):
    """Pooled OLS with explicit group indicator columns (no intercept)."""
    groups = np.asarray(groups)
    labels = np.unique(groups)
    dummies = np.column_stack([(groups == g).astype(float) for g in labels])
    Z = np.column_stack([X, dummies])
    beta = np.linalg.lstsq(Z, y, rcond=None)[0]
    resid = y - Z @ beta
    dof = Z.shape[0] - Z.shape[1]
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(Z.T @ Z)
    p = X.shape[1]
    return beta[:p], np.sqrt(np.diag(cov)[:p])


@dataclass(frozen=True)
class HermanCorrected:
    firm_degree: float
    bank_degree: float
    firm_net_strength: float
    bank_net_strength: float
    firm_bal_strength: float
    bank_bal_strength: float


def herman_correct(weights, i, j, stage, s_bal, t_bal):
    """Rest-of-the-world predictors of the pair (i, j), one pair at a time.

    ``stage`` is 1 (link formation) or 2 (loan sizing, existing links only);
    ``s_bal`` and ``t_bal`` are the balance-sheet strengths of firm i and
    bank j. Stage 1 removes the focal link from degrees and network
    strengths; stage 2 also removes the loan from both balance-sheet
    strengths, clamping them at 0.
    """
    nf, nb = len(weights), len(weights[0])
    w = float(weights[i][j])
    a = 1.0 if w > 0 else 0.0
    k_i = sum(1.0 for jj in range(nb) if weights[i][jj] > 0)
    h_j = sum(1.0 for ii in range(nf) if weights[ii][j] > 0)
    s_i = sum(float(weights[i][jj]) for jj in range(nb))
    t_j = sum(float(weights[ii][j]) for ii in range(nf))
    if stage == 1:
        return HermanCorrected(k_i - a, h_j - a, s_i - w, t_j - w,
                               float(s_bal), float(t_bal))
    assert a == 1.0, "stage 2 corrects existing links only"
    return HermanCorrected(k_i - 1.0, h_j - 1.0, s_i - w, t_j - w,
                           max(float(s_bal) - w, 0.0),
                           max(float(t_bal) - w, 0.0))


def uncorrected_design(sample, spec):
    """``spec``'s design without the rest-of-world correction.

    Every degree and strength column holds its node's value, the pair's
    own loan included, floored at 1 before the log; the rows and the other
    columns are those of ``build_design``.
    """
    from dataclasses import replace

    from creditnet.econometrics import build_design

    design = build_design(sample, spec)
    w = sample.network.weights
    fi, bi = design.firm_index, design.bank_index
    s_bal = sample.firm_columns["balance_strength"]
    t_bal = sample.bank_columns["balance_strength"]
    node_values = {
        "ln_k": (w > 0).sum(axis=1)[fi], "ln_h": (w > 0).sum(axis=0)[bi],
        "ln_s_net": w.sum(axis=1)[fi], "ln_t_net": w.sum(axis=0)[bi],
        "ln_s_bal": s_bal[fi], "ln_t_bal": t_bal[bi]}
    augmented = design.augmented.copy()
    n_floored = dict(design.n_floored)
    for col, name in enumerate(design.column_names, start=1):
        if name in node_values:
            values = node_values[name]
            augmented[:, col] = np.log(np.maximum(values, 1.0))
            n_floored[name] = int((values < 1.0).sum())
    return replace(design, augmented=augmented, n_floored=n_floored,
                   n_clamped=0)


def _conditional_weights(p, s, t):
    """w_ij = s_i t_j / (W p_ij) with W = sqrt(S T); 0 where p_ij = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, np.outer(s, t)
                        / (np.sqrt(np.sum(s) * np.sum(t)) * p), 0.0)


def binomial_ensemble_sums(p, s, t, seed, n_samples):
    """Sums over ``n_samples`` draws from p, taken from their link counts.

    The count matrix C ~ Binomial(n_samples, p) is drawn by a Philox
    generator keyed by ``seed`` mod 2**64. A link (i, j) weighs w_ij in every
    draw that holds it, so the strengths summed over the draws are the row
    and column sums of C w. Keys are the statistic names.
    """
    p = np.asarray(p, float)
    gen = np.random.Generator(np.random.Philox(key=seed % 2**64))
    counts = gen.binomial(n_samples, p)
    carried = counts * _conditional_weights(p, s, t)
    return {"firm_degrees": counts.sum(axis=1),
            "bank_degrees": counts.sum(axis=0),
            "firm_strengths": carried.sum(axis=1),
            "bank_strengths": carried.sum(axis=0),
            "links": counts.sum()}


def ensemble_stderr(p, s, t, n_samples):
    """Standard errors of ensemble means over ``n_samples`` draws from p.

    Links are independent, so in one draw a node's degree has variance
    sum_j p_ij (1 - p_ij), its strength sum_j w_ij**2 p_ij (1 - p_ij), and
    the link count the sum of p_ij (1 - p_ij) over all pairs. Added up pair
    by pair.
    """
    p = np.asarray(p, float)
    w = _conditional_weights(p, s, t)
    nf, nb = p.shape
    var = {"firm_degrees": [0.0] * nf, "bank_degrees": [0.0] * nb,
           "firm_strengths": [0.0] * nf, "bank_strengths": [0.0] * nb,
           "links": 0.0}
    for i in range(nf):
        for j in range(nb):
            q = float(p[i, j]) * (1.0 - float(p[i, j]))
            var["firm_degrees"][i] += q
            var["bank_degrees"][j] += q
            var["firm_strengths"][i] += float(w[i, j]) ** 2 * q
            var["bank_strengths"][j] += float(w[i, j]) ** 2 * q
            var["links"] += q
    return {name: np.sqrt(np.asarray(v) / n_samples)
            for name, v in var.items()}


def chi_square(observed, expected, min_expected=5.0):
    """Pearson's statistic and degrees of freedom of counts in cells.

    Neighbouring cells are pooled from the left until each pool expects at
    least ``min_expected``; a short last pool joins the one before it.
    """
    pools, obs, exp = [], 0.0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= min_expected:
            pools.append([obs, exp])
            obs = exp = 0.0
    if exp > 0:
        pools[-1][0] += obs
        pools[-1][1] += exp
    stat = sum((o - e) ** 2 / e for o, e in pools)
    return stat, len(pools) - 1


def chi2_sf(x, df):
    """P(X > x) for X ~ chi-square(df), from the series of the lower
    regularized incomplete gamma function."""
    a, y = df / 2.0, x / 2.0
    if y <= 0:
        return 1.0
    term = total = 1.0 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= y / (a + n)
        total += term
    return max(0.0, 1.0 - total * math.exp(a * math.log(y) - y
                                           - math.lgamma(a)))


def sequential_links(p_base, uniforms, boost):
    """Links formed pair by pair in (firm, bank) order.

    Pair (i, j) links when its uniform is below the logistic of
    logit(p_base[i, j]) + boost * ln(1 + k), where k counts the links firm i
    formed with banks 0..j-1.
    """
    nf, nb = p_base.shape
    adjacency = np.zeros((nf, nb), dtype=bool)
    for i in range(nf):
        k_running = 0
        for j in range(nb):
            logodds = (np.log(p_base[i, j]) - np.log1p(-p_base[i, j])
                       + boost * np.log1p(k_running))
            p_link = 1.0 / (1.0 + np.exp(-logodds))
            if uniforms[i, j] < p_link:
                adjacency[i, j] = True
                k_running += 1
    return adjacency


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):  # NaN, +-inf
        return None
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def canonical_json_dumps(obj):
    """The standard library's JSON text of ``obj``, numpy values converted
    to Python ones and non-finite floats to None."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def consistency_filter_loop(firm_ids, weights, s_bal, band=(1e-3, 1e3)):
    """(kept firm ids, dropped (id, ratio, reason) rows), one firm at a time."""
    kept, dropped = [], []
    for i, fid in enumerate(firm_ids):
        s_net = float(sum(weights[i]))
        if s_bal[i] == 0:
            if s_net == 0:
                kept.append(fid)
            else:
                dropped.append((fid, None, "undefined ratio"))
            continue
        ratio = s_net / float(s_bal[i])
        if ratio < band[0]:
            dropped.append((fid, ratio, "missing data"))
        elif ratio > band[1]:
            dropped.append((fid, ratio, "inconsistent Nota Integrativa"))
        else:
            kept.append(fid)
    return tuple(kept), tuple(dropped)


def csv_rows_text(header, rows):
    """CSV text written one row and one value at a time: floats by repr,
    NaN as an empty field, text with a comma, a double quote or a line
    break in double quotes (inner quotes doubled), anything else by str."""
    def fmt(value):
        if isinstance(value, (float, np.floating)):
            v = float(value)
            return "" if v != v else repr(v)
        if isinstance(value, str) and set(value) & set(',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return str(value)
    lines = [",".join(map(fmt, header))]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)
