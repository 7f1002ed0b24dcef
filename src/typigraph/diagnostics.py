"""Converse-side diagnostics on explicit edge sets.

Given the edges of a (sub)graph as aligned sequence pairs, these tools
examine the uniform distribution over edges: per-letter joint laws, the
dominant joint type and its pigeonhole share, the exact block mutual
information against its counting bound, the wringing loop that conditions
away per-letter dependence, the Pinsker near-independence check, and the
square-root-order strong-converse rate bound.

All distribution arithmetic is exact (counts over the edge multiset);
entropic values are floats in bits. The edge multiset is held as one byte
column of letter-pair codes per position, so per-letter counts are
`bytes.count` calls and conditioning filters every column with
`itertools.compress`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Optional

from .core import InvariantViolation, JointPmf
from .typicality import JointTypeVector

_FP_TOL = 1e-9


@dataclass(frozen=True)
class EdgeDistribution:
    """Uniform law over an explicit edge multiset, kept as byte columns.

    columns[t] holds, edge by edge, the code a*|Y| + b of the letter pair
    (a, b) at position t: one byte per edge while |X||Y| <= 256, a tuple of
    ints beyond that. The exact per-letter laws are derived on first use.
    """

    edges: tuple  # ((Sequence, Sequence), ...)
    n: int
    columns: tuple

    @cached_property
    def per_letter(self) -> tuple:
        """Exact JointPmf of the letter pair at each position."""
        x0, y0 = self.edges[0]
        kx, ky = x0.alphabet.size, y0.alphabet.size
        total = len(self.edges)
        return tuple(
            JointPmf(
                x0.alphabet,
                y0.alphabet,
                tuple(
                    tuple(Fraction(c, total) for c in row)
                    for row in _column_counts(col, kx, ky)
                ),
            )
            for col in self.columns
        )


def _column_counts(column, kx: int, ky: int) -> list[list[int]]:
    """|X| x |Y| counts of the pair codes in one column."""
    return [[column.count(a * ky + b) for b in range(ky)] for a in range(kx)]


def _endpoint_ids(seqs, n: int, alphabet) -> tuple[list[int], list[tuple]]:
    """Dense first-occurrence ids of one side's sequences, by symbols, and
    the distinct symbol tuples. Each distinct object is checked once against
    the blocklength and the alphabet (by identity, then by equality)."""
    object_ids = list(map(id, seqs))
    dense: dict = {}
    by_symbols: dict = {}
    for key, s in dict(zip(object_ids, seqs)).items():
        if s.n != n:
            raise ValueError("edges must share one blocklength")
        if s.alphabet is not alphabet and s.alphabet != alphabet:
            raise ValueError("edges must share alphabets")
        dense[key] = by_symbols.setdefault(s.symbols, len(by_symbols))
    return list(map(dense.__getitem__, object_ids)), list(by_symbols)


def _edge_ids(edges):
    """(x ids, y ids, distinct x symbols, distinct y symbols) of an edge
    tuple; an empty one raises."""
    if not edges:
        raise ValueError("edge set is empty")
    x0, y0 = edges[0]
    xids, xsyms = _endpoint_ids(list(map(itemgetter(0), edges)), x0.n, x0.alphabet)
    yids, ysyms = _endpoint_ids(list(map(itemgetter(1), edges)), x0.n, y0.alphabet)
    return xids, yids, xsyms, ysyms


def fano_distribution(edges) -> EdgeDistribution:
    """Exact per-letter joint laws of the uniform distribution over edges.

    Each distinct sequence is encoded once as a row of digits (a*|Y| on the
    left, b on the right). The rows of all left and all right endpoints are
    joined into two byte strings whose sum, as big integers, is every
    edge's row of pair codes: no digit carries. The sum is then cut into
    one column per position.
    """
    edges = tuple(edges)
    xids, yids, xsyms, ysyms = _edge_ids(edges)
    x0, y0 = edges[0]
    n, ky = x0.n, y0.alphabet.size
    width = max(1, ((x0.alphabet.size * ky - 1).bit_length() + 7) // 8)

    def joined(ids, syms, scale):
        rows = [b"".join((a * scale).to_bytes(width, "big") for a in s) for s in syms]
        return int.from_bytes(b"".join(map(rows.__getitem__, ids)), "big")

    size = len(edges) * n * width
    blob = (joined(xids, xsyms, ky) + joined(yids, ysyms, 1)).to_bytes(size, "big")
    if width == 1:
        columns = tuple(blob[t::n] for t in range(n))
    else:
        stride = n * width
        columns = tuple(
            tuple(
                int.from_bytes(blob[k : k + width], "big")
                for k in range(t * width, size, stride)
            )
            for t in range(n)
        )
    return EdgeDistribution(edges=edges, n=n, columns=columns)


@dataclass(frozen=True)
class DominantTypeResult:
    joint_type: JointTypeVector
    edge_fraction: Fraction
    distinct_types: int
    pigeonhole_ok: bool  # fraction >= (n+1)^(-|X||Y|), exact


def dominant_joint_type(edges) -> DominantTypeResult:
    """Most frequent joint type among edges; ties to the lexicographically
    smallest flattened count vector."""
    edges = tuple(edges)
    if not edges:
        raise ValueError("edge set is empty")
    x0, y0 = edges[0]
    kx, ky = x0.alphabet.size, y0.alphabet.size
    n = x0.n
    tally: dict = {}
    for x, y in edges:
        cells = [0] * (kx * ky)
        for a, b in zip(x.symbols, y.symbols):
            cells[a * ky + b] += 1
        key = tuple(cells)
        tally[key] = tally.get(key, 0) + 1
    best_key = min(tally, key=lambda k: (-tally[k], k))
    fraction = Fraction(tally[best_key], len(edges))
    counts = tuple(
        tuple(best_key[a * ky + b] for b in range(ky)) for a in range(kx)
    )
    result = DominantTypeResult(
        joint_type=JointTypeVector(x0.alphabet, y0.alphabet, counts),
        edge_fraction=fraction,
        distinct_types=len(tally),
        pigeonhole_ok=fraction >= Fraction(1, (n + 1) ** (kx * ky)),
    )
    if not result.pigeonhole_ok:
        raise InvariantViolation(
            "dominant type fraction fell below the pigeonhole floor"
        )
    return result


# ---------------------------------------------------------------------------
# block mutual information
# ---------------------------------------------------------------------------


def block_mi(edges) -> float:
    """Exact I between the two endpoints of a uniform random edge, in bits."""
    edges = tuple(edges)
    xids, yids, _, _ = _edge_ids(edges)
    total = len(edges)
    # pairs counted in first-occurrence order, as the sum below runs
    pair_counts = Counter([i * total + j for i, j in zip(xids, yids)])
    x_counts, y_counts = Counter(xids), Counter(yids)
    log2 = math.log2
    acc = 0.0
    for key, c in pair_counts.items():
        i, j = divmod(key, total)
        acc += (c / total) * log2(c * total / (x_counts[i] * y_counts[j]))
    return max(0.0, acc)


@dataclass(frozen=True)
class BlockMiReport:
    exact_mi: Optional[float]  # None when edges were not supplied/too many
    count_bound: float  # log2(M1*M2 / |edges|)
    lemma_bound: float  # 2 n delta_n + |X||Y| log2(n+1)
    edge_floor_ok: bool  # |edges| >= M1 M2 2^{-2n delta} (n+1)^{-|X||Y|}
    exact_within_bound: Optional[bool]


def block_mi_bound(
    m1_count: int,
    m2_count: int,
    edge_count: int,
    n: int,
    delta_n,
    x_size: int,
    y_size: int,
    edges=None,
    exact_cap: int = 2_000_000,
) -> BlockMiReport:
    """Counting bound on the block MI of a uniform edge within M1 x M2.

    When the edge count meets the construction floor, the count bound is at
    most the closed-form 2 n delta + |X||Y| log2(n+1), and any exact MI
    computed from supplied edges must sit under it.
    """
    if min(m1_count, m2_count, edge_count) < 1:
        raise ValueError("counts must be positive")
    d = float(delta_n)
    count_bound = math.log2(m1_count) + math.log2(m2_count) - math.log2(edge_count)
    lemma_bound = 2.0 * n * d + x_size * y_size * math.log2(n + 1)
    floor_ok = (
        math.log2(edge_count)
        >= math.log2(m1_count)
        + math.log2(m2_count)
        - 2.0 * n * d
        - x_size * y_size * math.log2(n + 1)
        - _FP_TOL
    )
    exact = None
    within: Optional[bool] = None
    if edges is not None:
        edges = tuple(edges)
        if len(edges) <= exact_cap:
            exact = block_mi(edges)
            if floor_ok:
                within = exact <= lemma_bound + _FP_TOL
                if not within:
                    raise InvariantViolation(
                        "exact block MI exceeded its counting bound"
                    )
    return BlockMiReport(
        exact_mi=exact,
        count_bound=count_bound,
        lemma_bound=lemma_bound,
        edge_floor_ok=floor_ok,
        exact_within_bound=within,
    )


# ---------------------------------------------------------------------------
# wringing
# ---------------------------------------------------------------------------


def _per_letter_mi(column, kx: int, ky: int, total: int) -> float:
    counts = _column_counts(column, kx, ky)
    rows = [sum(r) for r in counts]
    cols = [sum(counts[a][b] for a in range(kx)) for b in range(ky)]
    acc = 0.0
    for a in range(kx):
        for b in range(ky):
            c = counts[a][b]
            if c:
                acc += (c / total) * math.log2(c * total / (rows[a] * cols[b]))
    return max(0.0, acc)


@dataclass(frozen=True)
class WringingStep:
    position: int
    value: tuple  # (x label, y label) conditioned on
    surviving: int
    fraction: Fraction  # of the original edge count
    max_mi_before: float


@dataclass(frozen=True)
class WringingResult:
    positions: tuple
    values: tuple
    k: int
    delta: float
    sigma: float
    surviving_fraction: Fraction
    per_letter_mi: tuple  # after conditioning
    edges: tuple  # surviving edge multiset
    steps: tuple
    converged: bool
    bound_ok: Optional[bool]  # survival >= (delta/(|X||Y|(2 sigma-delta)))^k


def wring(dist: EdgeDistribution, delta: float, sigma: Optional[float] = None) -> WringingResult:
    """Condition per-letter values until every per-letter MI is <= delta.

    Greedy: repeatedly pick the worst position (largest per-letter MI, ties
    to the smallest index), condition on its most probable value pair (ties
    lexicographic), and restrict the edge multiset. Conditioning on a point
    law is never selected (its MI is 0), so each step strictly shrinks the
    multiset. Runs past 2*sigma/delta are cut off and flagged, never
    silently truncated.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    edges = dist.edges
    if not edges:
        raise ValueError("edge set is empty")
    x0, y0 = edges[0]
    kx, ky = x0.alphabet.size, y0.alphabet.size
    n = dist.n
    if sigma is None:
        sigma = block_mi(edges)
    total0 = len(edges)
    hard_cap = n * kx * ky
    step_cap = 2.0 * sigma / delta
    columns = dist.columns
    kept = range(total0)  # indices of the surviving edges
    positions: list[int] = []
    values: list[tuple] = []
    steps: list[WringingStep] = []
    converged = False
    while True:
        total = len(kept)
        mis = [_per_letter_mi(col, kx, ky, total) for col in columns]
        worst = max(mis)
        if worst <= delta + _FP_TOL:
            converged = True
            break
        k = len(positions)
        if k >= hard_cap or k + 1 > step_cap:
            break  # flagged partial result
        t_star = mis.index(worst)
        counts = _column_counts(columns[t_star], kx, ky)
        best_ab = max(
            ((counts[a][b], -a, -b, a, b) for a in range(kx) for b in range(ky))
        )
        a_star, b_star = best_ab[3], best_ab[4]
        keep = bytes(map((a_star * ky + b_star).__eq__, columns[t_star]))
        columns = tuple(type(col)(compress(col, keep)) for col in columns)
        kept = list(compress(kept, keep))
        if not kept:
            # cannot happen for the argmax value; defensive, loud
            raise InvariantViolation("conditioning emptied the edge multiset")
        positions.append(t_star)
        values.append((x0.alphabet.label(a_star), y0.alphabet.label(b_star)))
        steps.append(
            WringingStep(
                position=t_star,
                value=values[-1],
                surviving=len(kept),
                fraction=Fraction(len(kept), total0),
                max_mi_before=worst,
            )
        )
    total = len(kept)
    final_mi = tuple(_per_letter_mi(col, kx, ky, total) for col in columns)
    k = len(positions)
    fraction = Fraction(total, total0)
    bound_ok: Optional[bool] = None
    if converged and 2.0 * sigma - delta > 0 and k < step_cap:
        floor = (delta / (kx * ky * (2.0 * sigma - delta))) ** k
        bound_ok = float(fraction) >= floor * (1.0 - 1e-12)
    return WringingResult(
        positions=tuple(positions),
        values=tuple(values),
        k=k,
        delta=delta,
        sigma=sigma,
        surviving_fraction=fraction,
        per_letter_mi=final_mi,
        edges=tuple(edges[i] for i in kept),
        steps=tuple(steps),
        converged=converged,
        bound_ok=bound_ok,
    )


def wringing_to_dict(result: WringingResult) -> dict:
    """JSON-ready trace of a wringing run."""
    return {
        "k": result.k,
        "delta": result.delta,
        "sigma": result.sigma,
        "converged": result.converged,
        "bound_ok": result.bound_ok,
        "positions": list(result.positions),
        "values": [[str(a), str(b)] for a, b in result.values],
        "surviving_fraction": str(result.surviving_fraction),
        "surviving_edges": len(result.edges),
        "per_letter_mi": list(result.per_letter_mi),
        "steps": [
            {
                "position": s.position,
                "value": [str(s.value[0]), str(s.value[1])],
                "surviving": s.surviving,
                "fraction": str(s.fraction),
                "max_mi_before": s.max_mi_before,
            }
            for s in result.steps
        ],
    }


# ---------------------------------------------------------------------------
# near-independence and the strong-converse rate bound
# ---------------------------------------------------------------------------


def pinsker_check(dist: EdgeDistribution, delta: float) -> tuple:
    """Per-letter TV to the product of marginals; each must be <= 2*sqrt(delta).

    Requires every per-letter MI to be at most delta already (run the wring
    first); under that hypothesis the bound is a theorem, so a violation
    raises instead of returning quietly.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    kx = dist.edges[0][0].alphabet.size
    ky = dist.edges[0][1].alphabet.size
    total = len(dist.edges)
    cap = 2.0 * math.sqrt(delta)
    for t, col in enumerate(dist.columns):
        mi = _per_letter_mi(col, kx, ky, total)
        if mi > delta + _FP_TOL:
            raise ValueError(
                f"per-letter MI {mi} at position {t} exceeds delta; wring first"
            )
    tvs = []
    for law in dist.per_letter:
        rows = law.row_marginal().probs
        cols = law.col_marginal().probs
        tv = sum(
            abs(law.cell(a, b) - rows[a] * cols[b])
            for a in range(kx)
            for b in range(ky)
        )
        tvs.append(float(tv))
        if float(tv) > cap + _FP_TOL:
            raise InvariantViolation(
                f"per-letter TV {float(tv)} exceeded 2*sqrt(delta)"
            )
    return tuple(tvs)


def strong_converse_bound(
    per_letter_mi_sum: float, lam: float, alphabet_size: int, n: int
) -> float:
    """Rate cap sum_t I_t + 3/(1-lam) * |A| * sqrt(n), in bits.

    Diverges as lam -> 1; lam >= 1 is rejected.
    """
    if not 0 <= lam < 1:
        raise ValueError("lam must lie in [0, 1)")
    if per_letter_mi_sum < 0:
        raise ValueError("per-letter MI sum must be nonnegative")
    if alphabet_size < 1 or n < 1:
        raise ValueError("alphabet_size and n must be positive")
    return per_letter_mi_sum + 3.0 / (1.0 - lam) * alphabet_size * math.sqrt(n)
