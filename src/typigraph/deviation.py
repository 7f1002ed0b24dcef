"""Nearly empty random subgraphs: exact moments, tail bounds, simulation.

Draw M1 row codewords uniformly (with replacement) from the eps1-typical
set and M2 column codewords from the eps2-typical set, and let U count the
jointly typical pairs among the M1*M2 crossings. Everything feeding the
bounds is computed exactly at the type level:

  alpha   = P(one crossing is typical), a ratio of big integers;
  gamma   = M1 M2 alpha = E[U];
  theta_cap ("Theta") = half the sum over dependent ordered pairs of
            crossings of E[U_ij U_kl], via exact degree second moments;
  theta_small ("theta") = (M1 + M2 - 2) alpha, the dependent-sum of one
            crossing (every crossing has the same alpha).

P(U <= a gamma) is bounded above by Suen's correlation inequality and
P(U = 0) below by two local-lemma variants, both in the log domain so that
no work grows with the codebook sizes; `bracket` assembles both sides
into one report. For M1 = 1, P(U = 0) is exact. The moments come from
`exact_pair_moments` alone. `simulate` is the one path that draws codebooks
(one `TypicalSampler` per side) and counts their jointly typical pairs
(one `JointTypeIndex` per run); its Monte Carlo estimates, with Wilson
intervals, bracket-check both sides and carry the same exact moments.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional

from .core import DEFAULT_CAP, CapExceeded, InvariantViolation, JointPmf, record
from .typicality import (
    JointTypeIndex,
    TypicalSampler,
    TypicalityParams,
    _DegreeKernel,
    degree_table,
    log2_int,
    typical_set_size,
)

WILSON_Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


# ---------------------------------------------------------------------------
# exact crossing probability and moments
# ---------------------------------------------------------------------------


def exact_zero_probability(
    joint: JointPmf, params: TypicalityParams, n: int, m2: int
) -> Fraction:
    """P(U = 0) with one row codeword and M2 column codewords, exact.

    Given the row codeword x, the M2 column codewords miss its deg(x)
    neighbours independently, so P(U = 0) is the sum over typical row types
    of (size/T1) (1 - deg/T2)^{M2}. The numerator has about M2 log2 T2
    bits; CapExceeded is raised before the powers when that is over
    DEFAULT_CAP.
    """
    if m2 < 0:
        raise ValueError("m2 must be nonnegative")
    table = degree_table(joint, params, n).values()
    t1 = sum(size for size, _ in table)
    t2 = typical_set_size(joint.col_marginal(), params.eps2, n).value
    if t1 == 0 or t2 == 0:
        raise ValueError("a typical set is empty; the crossing law is undefined")
    bits = m2 * t2.bit_length()
    if bits > DEFAULT_CAP:
        raise CapExceeded(f"(1 - deg/T2)^{m2} needs about {bits} bits, over cap {DEFAULT_CAP}")
    misses = sum(size * (t2 - deg) ** m2 for size, deg in table)
    return Fraction(misses, t1 * t2**m2)


def _second_moment(table, t_own: int, t_other: int) -> Fraction:
    """E[(deg(x)/|T_other|)^2] for x uniform on its typical set, exact."""
    acc = sum(size * deg * deg for size, deg in table)
    return Fraction(acc, t_own * t_other * t_other)


@record
class MomentEstimates:
    """Exact pair moments for U, with float views for the bound formulas."""

    m1: int
    m2: int
    n: int
    alpha_exact: Fraction
    left_second_exact: Fraction  # E[U_ij U_il], j != l (shared row codeword)
    right_second_exact: Fraction  # E[U_ij U_kj], i != k
    gamma: float
    theta_cap: float  # "Theta": half-sum of dependent-pair second moments
    theta_small: float  # "theta": max over crossings of the dependent-sum


_MAX_CODEBOOK_BITS = 1 << 20  # exact sizes up to 2^(2^20), a 128 KiB int


def codebook_size(n: int, rate: float) -> int:
    """ceil(2^{n*rate}) with float-noise absorbed at integer boundaries.

    When n*rate is within 1e-9 of an integer k the size is the exact
    2^k, also beyond float range. Otherwise 2^{n*rate} must be a float;
    a size out of float range, or of more than 2^20 bits, raises
    ValueError.
    """
    if rate < 0:
        raise ValueError("rates must be nonnegative")
    bits = n * rate
    if bits > _MAX_CODEBOOK_BITS:
        raise ValueError(f"n*rate = {bits} exceeds {_MAX_CODEBOOK_BITS} codebook bits")
    k = round(bits)
    if abs(bits - k) <= 1e-9:
        return 1 << k
    try:
        v = 2.0**bits
    except OverflowError:
        raise ValueError(f"2^(n*rate) is out of float range at n*rate = {bits}") from None
    return math.ceil(v - 1e-9)


def exact_pair_moments(
    joint: JointPmf, params: TypicalityParams, n: int, r1: float, r2: float
) -> MomentEstimates:
    """The exact moments of U at codebook sizes M_i = `codebook_size(n, r_i)`.

    Both sides' kernels are bounded before either table is built, so an
    oversized run raises CapExceeded before any type is listed.
    """
    m1 = codebook_size(n, r1)
    m2 = codebook_size(n, r2)
    kernels = [_DegreeKernel(joint, params, n, side) for side in ("left", "right")]
    for kernel in kernels:
        kernel.check()
    left, right = (kernel.table().values() for kernel in kernels)
    t1 = sum(size for size, _ in left)
    t2 = sum(size for size, _ in right)
    if t1 == 0 or t2 == 0:
        raise ValueError("a typical set is empty; the crossing law is undefined")
    pairs = sum(size * deg for size, deg in left)
    right_pairs = sum(size * deg for size, deg in right)
    if pairs != right_pairs:
        raise InvariantViolation(
            f"pair count from the left degrees ({pairs}) differs from the "
            f"right degrees ({right_pairs})"
        )
    alpha = Fraction(pairs, t1 * t2)
    left_second = _second_moment(left, t1, t2)
    right_second = _second_moment(right, t2, t1)
    gamma = Fraction(m1 * m2) * alpha
    theta_cap = (
        Fraction(m1 * m2, 2)
        * ((m2 - 1) * left_second + (m1 - 1) * right_second)
    )
    theta_small = (m1 + m2 - 2) * alpha
    return MomentEstimates(
        m1=m1,
        m2=m2,
        n=n,
        alpha_exact=alpha,
        left_second_exact=left_second,
        right_second_exact=right_second,
        gamma=_as_float("gamma", gamma),
        theta_cap=_as_float("theta_cap", theta_cap),
        theta_small=_as_float("theta_small", theta_small),
    )


def _as_float(name: str, q: Fraction) -> float:
    """q as a float; ValueError naming q and its log2 when it is out of range."""
    try:
        return float(q)
    except OverflowError:
        log2 = log2_int(q.numerator) - log2_int(q.denominator)
        raise ValueError(f"{name} = 2^{log2:.1f} is out of float range") from None


# ---------------------------------------------------------------------------
# Suen upper bounds
# ---------------------------------------------------------------------------


def suen_tail_log(gamma: float, theta_cap: float, theta_small: float, a: float) -> float:
    """ln(1/bound) of `suen_tail_bound`: its smallest exponent branch.

    Finite and positive where the bound itself underflows to 0.0.
    """
    if not 0 <= a < 1:
        raise ValueError("a must lie in [0, 1)")
    if gamma < 0 or theta_cap < 0 or theta_small < 0:
        raise ValueError("moments must be nonnegative")
    if gamma == 0:
        return 0.0
    try:
        branches = [(1 - a) ** 2 * gamma**2 / (8 * theta_cap + 2 * gamma)]
    except OverflowError:  # gamma**2 leaves float range; the branch may not
        branches = [(1 - a) ** 2 * gamma * (gamma / (8 * theta_cap + 2 * gamma))]
    if theta_small > 0:
        branches.append((1 - a) * gamma / (6 * theta_small))
    return min(branches)


def suen_tail_bound(gamma: float, theta_cap: float, theta_small: float, a: float) -> float:
    """Upper bound on P(U <= a*gamma); branches with zero denominators drop."""
    return math.exp(-suen_tail_log(gamma, theta_cap, theta_small, a))


def suen_zero_log(gamma: float, theta_cap: float, theta_small: float) -> float:
    """ln(1/bound) of `suen_zero_bound`: its smallest exponent branch.

    Finite and positive where the bound itself underflows to 0.0.
    """
    if gamma < 0 or theta_cap < 0 or theta_small < 0:
        raise ValueError("moments must be nonnegative")
    if gamma == 0:
        return 0.0
    branches = [gamma / 2]
    if theta_cap > 0:
        try:
            branches.append(gamma**2 / (8 * theta_cap))
        except OverflowError:  # gamma**2 leaves float range; the branch may not
            branches.append(gamma * (gamma / (8 * theta_cap)))
    if theta_small > 0:
        branches.append(gamma / (6 * theta_small))
    return min(branches)


def suen_zero_bound(gamma: float, theta_cap: float, theta_small: float) -> float:
    """Upper bound on P(U = 0)."""
    return math.exp(-suen_zero_log(gamma, theta_cap, theta_small))


# ---------------------------------------------------------------------------
# local-lemma lower bounds
# ---------------------------------------------------------------------------

_E_INV = math.exp(-1.0)


def phi_root(x: float) -> float:
    """Smallest root of phi = e^{x phi} for x in [0, 1/e].

    phi(0) = 1, phi(1/e) = e; solved by bracketed bisection with a Newton
    polish, fixed-point residual at most 1e-12.
    """
    if x < 0 or x > _E_INV + 1e-15:
        raise ValueError("phi_root is defined on [0, 1/e]")
    if x == 0:
        return 1.0
    # At the right endpoint the two roots merge tangentially and bisection
    # loses half the mantissa; the merged root is exactly e there.
    if abs(x * math.e - 1.0) <= 1e-12:
        return math.e
    x = min(x, _E_INV)

    # f(phi) = ln(phi) - x*phi is concave, f(1) = -x < 0, and its maximum
    # sits at phi = 1/x with f(1/x) >= 0, so the smallest root lies in
    # [1, 1/x] where f is increasing.
    lo, hi = 1.0, 1.0 / x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if math.log(mid) - x * mid < 0:
            lo = mid
        else:
            hi = mid
    phi = 0.5 * (lo + hi)
    for _ in range(3):
        deriv = 1.0 / phi - x
        if abs(deriv) < 1e-6:
            break
        step = (math.log(phi) - x * phi) / deriv
        candidate = phi - step
        if lo <= candidate <= hi:
            phi = candidate
    residual = abs(phi - math.exp(x * phi))
    if residual > 1e-12:
        raise InvariantViolation(f"phi_root residual {residual} exceeds 1e-12")
    return phi


@record
class LllBounds:
    """Lower bounds on P(U = 0); None marks an inapplicable variant."""

    symmetric: Optional[float]
    symmetric_condition_ok: bool
    symmetric_asymptotic_form: Optional[float]  # exp(-(M2+1)) simplification
    phi: Optional[float]
    phi_condition_ok: bool


# Half-width of the band around equality, relative to 1 + sum |term|, in
# which a log-domain comparison is handed to exact integer arithmetic. The
# float error it must cover is at most 36 * 2^-53 of the same scale (see
# `lll_lower_bounds`); 2^-40 is 227 times that.
_LOG_MARGIN = 2.0**-40


def _log_sum_nonpositive(terms: tuple[float, ...], exact: Callable[[], bool]) -> bool:
    """Whether the true values of `terms` sum to <= 0, decided exactly.

    Each float term must lie within 8u(1 + |t|) of its true value, u = 2^-53.
    The float sign decides outside the margin; `exact()` decides inside it.
    """
    diff = math.fsum(terms)
    margin = _LOG_MARGIN * (1.0 + math.fsum(abs(t) for t in terms))
    if diff < -margin:
        return True
    if diff > margin:
        return False
    return exact()


def _symmetric_condition(alpha: Fraction, m1: int, m2: int) -> bool:
    """alpha <= x (1-x)^{M1+M2-2} with x = 1/M1, decided exactly."""
    p, q = alpha.numerator, alpha.denominator
    if p == 0:
        return True
    degree = m1 + m2 - 2

    def exact() -> bool:  # alpha * M1^{D+1} <= (M1-1)^D, on integers
        return p * m1 ** (degree + 1) <= q * (m1 - 1) ** degree

    if m1 == 1:  # x = 1: the right side is 0^D
        return exact()
    y = 1 / m1  # correctly rounded; 0.0 once M1 > 2^1074
    # M1 log1p(-1/M1), which is -1 to double precision once y underflows
    per_codeword = math.log1p(-y) / y if y else -1.0
    log_rhs_power = (degree / m1) * per_codeword  # D log1p(-1/M1)
    terms = (math.log(p), -math.log(q), math.log(m1), -log_rhs_power)
    return _log_sum_nonpositive(terms, exact)


def _e_below(r: Fraction) -> bool:
    """e < r, exactly: r is rational and e is not, so they never tie."""
    # the partial sums s_k of 1/i! satisfy s_k < e < s_k + 1/(k! k)
    k, term, s = 1, Fraction(1), Fraction(2)
    while True:
        k += 1
        term /= k
        s += term
        if r <= s:
            return False
        if r >= s + term / k:
            return True


def _phi_condition(alpha: Fraction, m1: int, m2: int) -> bool:
    """(M1+M2-1) alpha <= 1/e, decided exactly."""
    p, q = alpha.numerator, alpha.denominator
    crossings = m1 + m2 - 1  # one crossing and its M1+M2-2 dependents
    if p == 0:
        return True
    terms = (math.log(crossings), math.log(p), -math.log(q), 1.0)
    return _log_sum_nonpositive(terms, lambda: _e_below(Fraction(q, crossings * p)))


def lll_lower_bounds(moments: MomentEstimates, m1: int, m2: int, n: int) -> LllBounds:
    """Symmetric and phi-function local-lemma lower bounds on P(U = 0).

    The symmetric variant needs the existence condition
    alpha <= x (1-x)^{M1+M2-2} with x = 1/M1 and then gives (1-x)^{M1 M2}
    (the exp(-(M2+1)) form usually quoted is its large-M1 shadow and is
    reported alongside). The phi variant needs theta_small + tau <= 1/e,
    where tau, the largest crossing probability, is alpha, so the load is
    exactly (M1+M2-1) alpha; it gives exp(-gamma * phi(load)).

    Both conditions are decided exactly, in the log domain. With
    alpha = p/q in lowest terms and D = M1+M2-2 the symmetric one reads
    log p - log q + log M1 - D log1p(-1/M1) <= 0, and the phi one
    log(M1+M2-1) + log p - log q + 1 <= 0. Every float term t is within
    8u(1 + |t|) of its true value, u = 2^-53: `math.log` of an int rounds
    the int (or its frexp mantissa) once and adds at most two rounded
    operations, and D log1p(-1/M1) is formed as (D/M1) * (M1 log1p(-1/M1))
    from a correctly rounded quotient and a factor with relative error
    under 4u. `math.fsum` adds at most u times the sum's size. With at most
    four terms the computed sum is within 36u(1 + sum |t|) of the true one,
    so when it lies outside the margin 2^-40 (1 + sum |t|), 227 times that
    error, its sign is the true sign. Inside the margin the symmetric
    condition falls back to the integer comparison
    p M1^{D+1} <= q (M1-1)^D, and the phi condition to comparing q/(p(M1+M2-1))
    with the partial sums of e, which cannot tie. Away from equality no
    exact power is formed, so the time does not grow with M1 or M2.
    M1 = 1 (x = 1) and alpha = 0 are decided on integers directly.
    """
    del n  # sizes are explicit; nothing here depends on blocklength
    sym_ok = _symmetric_condition(moments.alpha_exact, m1, m2)
    if sym_ok:
        if m1 == 1:
            symmetric = 0.0 if m2 >= 1 else 1.0
        else:
            symmetric = math.exp(m1 * m2 * math.log1p(-1.0 / m1))
        asymptotic = math.exp(-(m2 + 1))
    else:
        symmetric = None
        asymptotic = None
    load = moments.theta_small + float(moments.alpha_exact)
    phi_ok = _phi_condition(moments.alpha_exact, m1, m2)
    phi_bound = (
        math.exp(-moments.gamma * phi_root(load)) if phi_ok else None
    )
    return LllBounds(
        symmetric=symmetric,
        symmetric_condition_ok=sym_ok,
        symmetric_asymptotic_form=asymptotic,
        phi=phi_bound,
        phi_condition_ok=phi_ok,
    )


# ---------------------------------------------------------------------------
# exponent bookkeeping
# ---------------------------------------------------------------------------


def deviation_exponent_target(r1: float, r2: float, i_xy: float) -> float:
    """Analytic double-exponential rate min(r2, r1 + r2 - i_xy) of P(U = 0)."""
    if r1 >= i_xy:
        return r2
    return r1 + r2 - i_xy


@record
class BoundReport:
    """Bounds with their double-log exponents and regime annotations."""

    bounds: dict
    exponents: dict  # name -> (1/n) log2 log2 (1/bound), when defined
    flagged: dict  # name -> reason the exponent is undefined
    target: float  # deviation_exponent_target(r1, r2, i_xy) = min(r2, r1 + r2 - i_xy)
    n: int
    r1: float
    r2: float
    i_xy: float
    regime_r1_above_mi: bool
    tightness_regime: bool  # r2 <= r1 <= i_xy
    floor: float  # the largest applicable LLL bound, else 0.0
    ceiling: float  # the smallest Suen bound, else 1.0
    consistency_ok: Optional[bool]  # floor <= ceiling, when both sides are given

    def contains(self, low: float, high: float) -> bool:
        """Whether [low, high] meets [floor, ceiling], to within 1e-12."""
        return low <= self.ceiling + 1e-12 and high >= self.floor - 1e-12


def exponent_report(
    bounds: dict,
    n: int,
    r1: float,
    r2: float,
    i_xy: float,
    neg_logs: Optional[dict] = None,
) -> BoundReport:
    """Double-log exponents of `bounds`, with reasons where they are undefined.

    `neg_logs` maps a bound's name to ln(1/bound) (as `suen_zero_log`
    returns it); it is read only for a bound that underflowed to 0.0, whose
    exponent is then taken from it instead of being flagged infinite. The
    floor is the largest of the given lll_symmetric and lll_phi, the
    ceiling the smallest of the given suen_zero and suen_tail.
    """
    exponents = {}
    flagged = {}
    for name, b in bounds.items():
        if b is None:
            flagged[name] = "inapplicable"
            continue
        if b <= 0.0:
            if neg_logs is not None and name in neg_logs:
                exponents[name] = math.log2(neg_logs[name] / math.log(2)) / n
            else:
                flagged[name] = "bound underflowed to 0; exponent infinite"
            continue
        if b >= 1.0:
            flagged[name] = "vacuous bound (>= 1)"
            continue
        inner = math.log2(1.0 / b)
        exponents[name] = math.log2(inner) / n
    lowers = [bounds.get(k) for k in ("lll_symmetric", "lll_phi")]
    uppers = [bounds.get(k) for k in ("suen_zero", "suen_tail")]
    lowers = [v for v in lowers if v is not None]
    uppers = [v for v in uppers if v is not None]
    floor = max(lowers, default=0.0)
    ceiling = min(uppers, default=1.0)
    return BoundReport(
        bounds=dict(bounds),
        exponents=exponents,
        flagged=flagged,
        target=deviation_exponent_target(r1, r2, i_xy),
        n=n,
        r1=r1,
        r2=r2,
        i_xy=i_xy,
        regime_r1_above_mi=r1 >= i_xy,
        tightness_regime=r2 <= r1 <= i_xy,
        floor=floor,
        ceiling=ceiling,
        consistency_ok=floor <= ceiling + 1e-12 if lowers and uppers else None,
    )


def bracket(
    moments: MomentEstimates, r1: float, r2: float, i_xy: float
) -> tuple[LllBounds, BoundReport]:
    """The local-lemma bounds and the bracket [floor, ceiling] on P(U = 0).

    The Suen bounds are suen_zero and suen_tail at a = 1/2, each passed to
    `exponent_report` with its log, so no exponent is flagged as
    underflowed. At a = 1/2 each branch of the zero exponent has a branch
    of the tail exponent at most half its size (gamma/8 against gamma/2,
    gamma^2/(32 Theta) against gamma^2/(8 Theta), gamma/(12 theta) against
    gamma/(6 theta)), so suen_tail >= suen_zero and the ceiling is suen_zero.
    """
    m = moments
    lll = lll_lower_bounds(m, m.m1, m.m2, m.n)
    neg_logs = {
        "suen_zero": suen_zero_log(m.gamma, m.theta_cap, m.theta_small),
        "suen_tail": suen_tail_log(m.gamma, m.theta_cap, m.theta_small, 0.5),
    }
    bounds = {name: math.exp(-v) for name, v in neg_logs.items()}
    bounds["lll_symmetric"] = lll.symmetric
    bounds["lll_phi"] = lll.phi
    return lll, exponent_report(bounds, m.n, r1, r2, i_xy, neg_logs)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@record
class MonteCarloReport:
    trials: int
    seed: int
    r1: float
    r2: float
    zero_count: int
    p_zero: float
    wilson_low: float
    wilson_high: float
    mean_u: float
    var_u: float
    tails: tuple  # ((a, empirical P(U <= a*gamma)), ...)
    moments: MomentEstimates  # the exact pair moments at (M1, M2)


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z_99) -> tuple[float, float]:
    """Wilson score interval; exact zero-success inputs stay well-defined."""
    if trials < 1:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def _trial_seed(seed: int, trial: int) -> int:
    """The seed of one trial's generator: sha256 of typigraph:{seed}:{trial}."""
    digest = hashlib.sha256(f"typigraph:{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest, "big")


def simulation_sizes(n: int, r1: float, r2: float, trials: int) -> tuple[int, int]:
    """The codebook sizes (M1, M2) of a Monte Carlo run of `trials` trials.

    Raises CapExceeded, before any work, when the run's M1*M2*trials pair
    tests are over DEFAULT_CAP.
    """
    m1 = codebook_size(n, r1)
    m2 = codebook_size(n, r2)
    work = m1 * m2 * trials
    if work > DEFAULT_CAP:
        raise CapExceeded(
            f"M1*M2*trials = 2^{log2_int(work):.1f} Monte Carlo pair tests "
            f"exceed cap {DEFAULT_CAP}"
        )
    return m1, m2


_TAIL_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)  # a of P(U <= a*gamma)


def simulate(
    joint: JointPmf,
    params: TypicalityParams,
    n: int,
    r1: float,
    r2: float,
    trials: int,
    seed: int,
) -> MonteCarloReport:
    """Monte Carlo law of U under fresh uniform codebooks each trial.

    Each trial's generator state is derived from (seed, trial index) alone
    (`_trial_seed`): one generator is reseeded with it at the start of every
    trial, which gives the stream a fresh `random.Random` of that seed
    would, so reports are byte-identical for identical (seed, trials)
    regardless of how the work is scheduled. Within a trial the row
    codebook is drawn first, then column codewords in sequence: enlarging
    M2 with the same seed extends the draw, it never reshuffles it. An
    oversized run raises CapExceeded before any work: too many pair tests
    (`simulation_sizes`) or too much joint-type kernel work for the exact
    moments (`exact_pair_moments`). Pairs are counted by
    `JointTypeIndex.ball`, which files the bounds the ball's boxes put on
    each pair of codeword types as it is met and lists no ball, so the
    ball's size sets no cap. U is kept as a histogram, from which every statistic is summed.
    The exact pair moments, computed once before the first trial by
    `exact_pair_moments`, come back on the report.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    m1, m2 = simulation_sizes(n, r1, r2, trials)
    moments = exact_pair_moments(joint, params, n, r1, r2)
    index = JointTypeIndex.ball(joint, params.lam, n)
    draw_x = TypicalSampler(joint.row_marginal(), params.eps1, n).draw
    draw_y = TypicalSampler(joint.col_marginal(), params.eps2, n).draw
    hist: Counter = Counter()  # U -> trials
    rng = random.Random()
    for t in range(trials):
        rng.seed(_trial_seed(seed, t))
        xs = [draw_x(rng) for _ in range(m1)]
        ys = [draw_y(rng) for _ in range(m2)]
        hist[index.count(xs, ys)] += 1
    zero_count = hist[0]
    sum_u = sum(u * c for u, c in hist.items())
    sum_u2 = sum(u * u * c for u, c in hist.items())
    tail_hits = [
        sum(c for u, c in hist.items() if u <= a * moments.gamma) for a in _TAIL_GRID
    ]
    mean_u = sum_u / trials
    var_u = (
        (sum_u2 - trials * mean_u * mean_u) / (trials - 1) if trials > 1 else 0.0
    )
    low, high = wilson_interval(zero_count, trials)
    return MonteCarloReport(
        trials=trials,
        seed=seed,
        r1=r1,
        r2=r2,
        zero_count=zero_count,
        p_zero=zero_count / trials,
        wilson_low=low,
        wilson_high=high,
        mean_u=mean_u,
        var_u=var_u,
        tails=tuple((a, hits / trials) for a, hits in zip(_TAIL_GRID, tail_hits)),
        moments=moments,
    )
