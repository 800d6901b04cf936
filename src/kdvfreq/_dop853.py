"""Batched DOP853 integration of the Hill system on [0, 1].

The second-order system y'' = (q(x) - lam) y is integrated simultaneously for
a whole array of spectral parameters lam; the step size is controlled by the
worst column. Optionally the lam-derivatives z = d y / d lam are carried
along via z'' = (q - lam) z - y.

Coefficients are the standard Dormand-Prince 8(5,3) tableau.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationError

_N_STAGES = 12

_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])

_A = np.zeros((_N_STAGES, _N_STAGES))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, 0] = 1.97250569845378994544595329183e-2
_A[2, 1] = 5.91751709536136983633785987549e-2
_A[3, 0] = 2.95875854768068491816892993775e-2
_A[3, 2] = 8.87627564304205475450678981324e-2
_A[4, 0] = 2.41365134159266685502369798665e-1
_A[4, 2] = -8.84549479328286085344864962717e-1
_A[4, 3] = 9.24834003261792003115737966543e-1
_A[5, 0] = 3.7037037037037037037037037037e-2
_A[5, 3] = 1.70828608729473871279604482173e-1
_A[5, 4] = 1.25467687566822425016691814123e-1
_A[6, 0] = 3.7109375e-2
_A[6, 3] = 1.70252211019544039314978060272e-1
_A[6, 4] = 6.02165389804559606850219397283e-2
_A[6, 5] = -1.7578125e-2
_A[7, 0] = 3.70920001185047927108779319836e-2
_A[7, 3] = 1.70383925712239993810214054705e-1
_A[7, 4] = 1.07262030446373284651809199168e-1
_A[7, 5] = -1.53194377486244017527936158236e-2
_A[7, 6] = 8.27378916381402288758473766002e-3
_A[8, 0] = 6.24110958716075717114429577812e-1
_A[8, 3] = -3.36089262944694129406857109825
_A[8, 4] = -8.68219346841726006818189891453e-1
_A[8, 5] = 2.75920996994467083049415600797e1
_A[8, 6] = 2.01540675504778934086186788979e1
_A[8, 7] = -4.34898841810699588477366255144e1
_A[9, 0] = 4.77662536438264365890433908527e-1
_A[9, 3] = -2.48811461997166764192642586468
_A[9, 4] = -5.90290826836842996371446475743e-1
_A[9, 5] = 2.12300514481811942347288949897e1
_A[9, 6] = 1.52792336328824235832596922938e1
_A[9, 7] = -3.32882109689848629194453265587e1
_A[9, 8] = -2.03312017085086261358222928593e-2
_A[10, 0] = -9.3714243008598732571704021658e-1
_A[10, 3] = 5.18637242884406370830023853209
_A[10, 4] = 1.09143734899672957818500254654
_A[10, 5] = -8.14978701074692612513997267357
_A[10, 6] = -1.85200656599969598641566180701e1
_A[10, 7] = 2.27394870993505042818970056734e1
_A[10, 8] = 2.49360555267965238987089396762
_A[10, 9] = -3.0467644718982195003823669022
_A[11, 0] = 2.27331014751653820792359768449
_A[11, 3] = -1.05344954667372501984066689879e1
_A[11, 4] = -2.00087205822486249909675718444
_A[11, 5] = -1.79589318631187989172765950534e1
_A[11, 6] = 2.79488845294199600508499808837e1
_A[11, 7] = -2.85899827713502369474065508674
_A[11, 8] = -8.87285693353062954433549289258
_A[11, 9] = 1.23605671757943030647266201528e1
_A[11, 10] = 6.43392746015763530355970484046e-1

_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])

_E3 = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])

_MAX_STEPS = 500_000

# b, e5 and e3 weights stacked, so the step update and both error estimates
# are one contraction of the stage array
_BE = np.stack([_B, _E5, _E3])


def _pairs(v):
    """Views (u, u', z', y) of a state laid out as (dim/2, 2, B).

    The pairs of v are (y1, y1'), (y2, y2') and, when carried, (z1, z1'),
    (z2, z2'); u and u' run over all pairs, z' over the z pairs and y over
    the y pairs.
    """
    return v[:, 0], v[:, 1], v[2:, 1], v[:2, 0]


def integrate_hill(qfun, lams, tol, with_dlam=True):
    """Integrate the fundamental (and variational) Hill system over [0, 1].

    qfun: elementwise x -> q(x); it is called once per step with the array
    of the 12 stage nodes and must return an array of q values of the same
    shape (a 0-d argument for the initial point). lams: 1-d array of
    spectral parameters, real or complex; tol: the relative and absolute
    error tolerance. Returns the state matrix at x=1, shape (4, B) or (8, B)
    with rows (y1, y1', y2, y2'[, z1, z1', z2, z2']) where z = d y / d lam.
    """
    lams = np.atleast_1d(lams)
    dtype = np.result_type(lams.dtype, np.float64)
    nb = lams.size
    dim = 8 if with_dlam else 4
    y = np.zeros((dim, nb), dtype=dtype)
    y[0] = 1.0
    y[3] = 1.0

    real_dtype = np.empty(0, dtype=dtype).real.dtype
    lam_scale = float(np.max(np.abs(lams))) + 1.0
    h = real_dtype.type(min(0.1, 1.0 / math.sqrt(lam_scale)))
    x = real_dtype.type(0.0)
    one = real_dtype.type(1.0)
    c = _C.astype(real_dtype)
    tableau = _A.astype(dtype)
    weights = _BE.astype(dtype)

    # k[s] holds stage s as (dim/2, 2, B): pairs (u, u') of y1, y2[, z1, z2].
    # k[0] is the right-hand side at the current (x, y); it is rewritten only
    # when a step is accepted.
    k = np.empty((_N_STAGES, dim // 2, 2, nb), dtype=dtype)
    k2 = k.reshape(_N_STAGES, dim * nb)
    ah = np.empty_like(tableau)
    a = np.empty((_N_STAGES, nb), dtype=dtype)
    nodes = np.empty(_N_STAGES, dtype=real_dtype)
    ys = np.empty((dim // 2, 2, nb), dtype=dtype)
    ys2 = ys.reshape(-1)
    sums = np.empty((3, dim * nb), dtype=dtype)
    k0 = _pairs(k[0])
    stages = [(ah[s, :s], k2[:s], _pairs(k[s]), a[s]) for s in range(1, _N_STAGES)]
    ys_pairs = _pairs(ys)

    def rhs(out, a_row, v):
        """y'' = a y and z'' = a z - y, from and into the views of _pairs."""
        out[0][...] = v[1]
        np.multiply(v[0], a_row, out=out[1])
        if with_dlam:
            np.subtract(out[2], v[3], out=out[2])

    rhs(k0, qfun(x) - lams, _pairs(y.reshape(dim // 2, 2, nb)))
    steps = 0
    while x < one:
        if steps > _MAX_STEPS:
            raise IntegrationError(
                f"step budget exhausted at x={x:.6f}, worst lambda={lam_scale:.6g}")
        h = min(h, one - x)
        if h < 1e-15:
            raise IntegrationError(
                f"step-size underflow at x={x:.6f}, lambda scale {lam_scale:.6g}")
        np.multiply(c, h, out=nodes)
        nodes += x
        np.subtract(qfun(nodes)[:, None], lams, out=a)
        np.multiply(tableau, h, out=ah)
        y2 = y.reshape(-1)
        for row, prev, out, a_row in stages:
            np.dot(row, prev, out=ys2)
            ys2 += y2
            rhs(out, a_row, ys_pairs)
        np.dot(weights, k2, out=sums)
        y_new = y + h * sums[0].reshape(dim, nb)

        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.abs(sums[1:].reshape(2, dim, nb) / scale) ** 2
        e5, e3 = err.sum(axis=1) / dim
        denom = e5 + 0.01 * e3
        with np.errstate(divide="ignore", invalid="ignore"):   # a NaN estimate stays NaN
            err = abs(h) * np.where(denom == 0, 0.0, e5 / np.sqrt(denom))
        err_norm = float(np.max(err))

        if not np.isfinite(err_norm):
            h *= 0.25
            steps += 1
            continue
        if err_norm <= 1.0:
            # the last node is x + 1.0 * h, exactly the new x
            x += h
            y = y_new
            rhs(k0, a[-1], _pairs(y.reshape(dim // 2, 2, nb)))
        factor = 0.9 * (err_norm ** (-1.0 / 8.0)) if err_norm > 0 else 5.0
        h *= min(5.0, max(0.25, factor))
        steps += 1
    return y


def hill_endpoint_data(qfun, lams, tol, with_dlam=True):
    """Endpoint quantities of the Hill system.

    Returns a dict with delta (= y1(1) + y2'(1)), y2_1, wronskian_residual and,
    when with_dlam, ddelta (= z1(1) + z2'(1)) and dy2_1 (= z2(1)).
    """
    y = integrate_hill(qfun, lams, tol, with_dlam)
    out = {
        "delta": y[0] + y[3],
        "y2_1": y[2],
        "wronskian_residual": np.abs(y[0] * y[3] - y[1] * y[2] - 1.0),
    }
    if with_dlam:
        out["ddelta"] = y[4] + y[7]
        out["dy2_1"] = y[6]
    return out
