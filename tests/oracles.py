"""Naive reference implementations for pinning the exact combinatorics.

Everything here enumerates exhaustively, straight from the definitions,
with Fraction arithmetic and closed balls. Deliberately slow and
deliberately independent of the package internals.
"""

import csv
import dataclasses
import hashlib
import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction


def all_sequences(k, n):
    return itertools.product(range(k), repeat=n)


def counts_of(symbols, k):
    c = [0] * k
    for s in symbols:
        c[s] += 1
    return c


def robust_typical(symbols, probs, delta):
    """|N(a)/n - P(a)| <= delta for all a, and no mass on P(a) = 0."""
    n = len(symbols)
    c = counts_of(symbols, len(probs))
    for a, p in enumerate(probs):
        if abs(Fraction(c[a], n) - p) > delta:
            return False
        if p == 0 and c[a] > 0:
            return False
    return True


def cond_typical(y_symbols, x_symbols, w_rows, delta):
    """|N(a,b)/n - N(a)/n * W(b|a)| <= delta cellwise; W = 0 cells empty.

    w_rows: list of rows (list of Fractions) or None for undefined rows.
    """
    n = len(x_symbols)
    kx = len(w_rows)
    ky = max(len(r) for r in w_rows if r is not None)
    joint = [[0] * ky for _ in range(kx)]
    for a, b in zip(x_symbols, y_symbols):
        joint[a][b] += 1
    xc = counts_of(x_symbols, kx)
    # undefined whenever x uses an undefined row, whatever the other rows say
    if any(xc[a] > 0 and w_rows[a] is None for a in range(kx)):
        raise ValueError("conditioning on an undefined row")
    for a in range(kx):
        if xc[a] == 0:
            continue
        for b in range(ky):
            w = w_rows[a][b]
            if abs(Fraction(joint[a][b], n) - Fraction(xc[a], n) * w) > delta:
                return False
            if w == 0 and joint[a][b] > 0:
                return False
    return True


def jointly_typical(x_symbols, y_symbols, joint_probs, delta):
    """Robust typicality of the pair sequence on the product alphabet."""
    ky = len(joint_probs[0])
    pair = [a * ky + b for a, b in zip(x_symbols, y_symbols)]
    flat = [p for row in joint_probs for p in row]
    return robust_typical(pair, flat, delta)


def brute_typical_count(probs, delta, n):
    return sum(
        1 for s in all_sequences(len(probs), n) if robust_typical(s, probs, delta)
    )


def brute_cond_typical_count(w_rows, x_symbols, delta, ky):
    n = len(x_symbols)
    return sum(
        1
        for y in all_sequences(ky, n)
        if cond_typical(y, x_symbols, w_rows, delta)
    )


def brute_pair_count(joint_probs, eps1, eps2, lam, n):
    """Edges of the typicality graph, counted pair by pair."""
    kx, ky = len(joint_probs), len(joint_probs[0])
    px = [sum(row) for row in joint_probs]
    py = [sum(row[b] for row in joint_probs) for b in range(ky)]
    left = [s for s in all_sequences(kx, n) if robust_typical(s, px, eps1)]
    right = [s for s in all_sequences(ky, n) if robust_typical(s, py, eps2)]
    edges = 0
    for x in left:
        for y in right:
            if jointly_typical(x, y, joint_probs, lam):
                edges += 1
    return len(left), len(right), edges


def brute_degree(x_symbols, joint_probs, col_eps, lam):
    """Column-typical y jointly typical with x, counted sequence by sequence.

    x itself need not be typical. For the right side pass the transposed
    joint and the left slack.
    """
    ky = len(joint_probs[0])
    py = [sum(row[b] for row in joint_probs) for b in range(ky)]
    return sum(
        1
        for y in all_sequences(ky, len(x_symbols))
        if robust_typical(y, py, col_eps)
        and jointly_typical(x_symbols, y, joint_probs, lam)
    )


def multinomial_factorial(n, counts):
    v = math.factorial(n)
    for c in counts:
        v //= math.factorial(c)
    return v


def compositions_colex(parts, total):
    """All count vectors of the given length and sum, in colexicographic
    order: the last entry varies slowest."""
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for rest in compositions_colex(parts - 1, total - last):
            yield rest + (last,)


def compositions_in_boxes(boxes, total):
    """Every count vector with each entry inside its (lo, hi) box that sums
    to total, by filtering the product of the boxes' ranges (so in
    lexicographic order)."""
    ranges = (range(lo, hi + 1) for lo, hi in boxes)
    return [c for c in itertools.product(*ranges) if sum(c) == total]


def colex_ball_types(probs, delta, n):
    """The count vectors of the delta-typical set's types, by filtering every
    composition of n, generated in colexicographic order."""
    return [
        c
        for c in compositions_colex(len(probs), n)
        if _counts_typical(c, probs, n, delta)
    ]


def box_rows(k, blocks):
    """Every row of all_sequences(k, n), n the summed block lengths, whose
    symbol counts in each block (consecutive positions, (length, boxes)
    pairs in order) lie inside that block's per-symbol (lo, hi) boxes."""
    n = sum(length for length, _ in blocks)
    rows = []
    for row in all_sequences(k, n):
        start, ok = 0, True
        for length, boxes in blocks:
            counts = counts_of(row[start : start + length], k)
            ok = ok and all(lo <= c <= hi for c, (lo, hi) in zip(counts, boxes))
            start += length
        if ok:
            rows.append(row)
    return rows


def ball_boxes(probs, delta, n):
    """Per-cell (lo, hi) count ranges of the delta-ball, found by scanning
    every count 0..n against the closed-ball and support conditions."""
    boxes = []
    for p in probs:
        ok = [c for c in range(n + 1) if _counts_typical([c], [p], n, delta)]
        boxes.append((ok[0], ok[-1]) if ok else (1, 0))
    return boxes


def box_multinomial_sum(boxes, total):
    """Sum of multinomial(total, c) over the count vectors c that sum to
    total with each entry inside its (lo, hi) box, one multinomial per
    vector (the type-class summation loop)."""

    def vectors(i, left):
        if i == len(boxes) - 1:
            lo, hi = boxes[i]
            if lo <= left <= hi:
                yield (left,)
            return
        lo, hi = boxes[i]
        for c in range(lo, min(hi, left) + 1):
            for rest in vectors(i + 1, left - c):
                yield (c,) + rest

    if not boxes:
        return int(total == 0)
    return sum(multinomial_factorial(total, c) for c in vectors(0, total))


def row_type_degree(joint_probs, row_counts, col_eps, lam, n):
    """Degree of a row type, the former kernel's way: rows are multiplied
    out one at a time into a dict from column-sum vectors to weights (each
    row's compositions inside its lam-ball boxes, weighted by multinomials),
    and the final column sums are kept when they are col_eps-typical."""
    ky = len(joint_probs[0])
    partial = {(0,) * ky: 1}
    for probs, na in zip(joint_probs, row_counts):
        boxes = ball_boxes(probs, lam, n)
        row = [
            (c, multinomial_factorial(na, c))
            for c in itertools.product(*(range(lo, hi + 1) for lo, hi in boxes))
            if sum(c) == na
        ]
        nxt = defaultdict(int)
        for sums, weight in partial.items():
            for c, ways in row:
                nxt[tuple(s + x for s, x in zip(sums, c))] += weight * ways
        partial = nxt
    py = [sum(row[b] for row in joint_probs) for b in range(ky)]
    return sum(w for sums, w in partial.items() if _counts_typical(sums, py, n, col_eps))


def degree_table(joint_probs, row_eps, col_eps, lam, n):
    """{row counts: (class size, degree)} over the row_eps-typical row types;
    the columns' side is the same call on the transposed joint."""
    px = [sum(row) for row in joint_probs]
    return {
        c: (multinomial_factorial(n, c), row_type_degree(joint_probs, c, col_eps, lam, n))
        for c in colex_ball_types(px, row_eps, n)
    }


def sample_uniform_typical(probs, delta, n, rng):
    """One exact uniform draw from the delta-typical set, as a tuple, or None
    (no rng call) when the set is empty.

    The reference for the sampler's random stream: a type is picked by
    r = rng.randrange(total), walking the typical types in lexicographic
    order of their count vectors until r falls inside one's class size, then
    rng.shuffle arranges that type's sorted multiset.
    """
    multisets = []
    for counts in itertools.product(range(n + 1), repeat=len(probs)):
        multiset = [a for a, c in enumerate(counts) for _ in range(c)]
        if sum(counts) == n and robust_typical(multiset, probs, delta):
            multisets.append((multiset, multinomial_factorial(n, counts)))
    if not multisets:
        return None
    r = rng.randrange(sum(size for _, size in multisets))
    for multiset, size in multisets:
        if r < size:
            break
        r -= size
    buf = list(multiset)
    rng.shuffle(buf)
    return tuple(buf)


def trial_rng(seed, trial):
    """The generator of one Monte Carlo trial, as the simulation documents
    it: a fresh `random.Random` seeded with the sha256 of
    "typigraph:{seed}:{trial}", read as a big-endian int."""
    digest = hashlib.sha256(f"typigraph:{seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def monte_carlo_counts(joint_probs, eps1, eps2, lam, n, m1, m2, trials, seed):
    """U of each trial, by the reference loop: a fresh `trial_rng` per
    trial, M1 row codewords and then M2 column codewords drawn by
    `sample_uniform_typical`, and every crossing tested by
    `jointly_typical`."""
    px = [sum(row) for row in joint_probs]
    py = [sum(row[b] for row in joint_probs) for b in range(len(joint_probs[0]))]
    counts = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        xs = [sample_uniform_typical(px, eps1, n, rng) for _ in range(m1)]
        ys = [sample_uniform_typical(py, eps2, n, rng) for _ in range(m2)]
        counts.append(sum(jointly_typical(x, y, joint_probs, lam) for x in xs for y in ys))
    return counts


# --- per-vertex reference for the graph statistics ------------------------------
#
# The vertex-by-vertex code that the type-level statistics and degree-bound
# check replaced, kept with the same float operations in the same order.
# `adjacency` lists the ascending right ids of each left vertex.


def log_degree_stats(degs):
    logs = [math.log2(d) for d in degs if d > 0]
    if not logs:
        return None, None, None
    return min(logs), max(logs), sum(logs) / len(logs)


def vertex_degrees(adjacency, n_right):
    right = [0] * n_right
    for nbrs in adjacency:
        for j in nbrs:
            right[j] += 1
    return [len(nbrs) for nbrs in adjacency], right


def graph_stats(adjacency, n_right):
    """(isolated left, isolated right, left log2 (min, max, mean), right ...)."""
    left, right = vertex_degrees(adjacency, n_right)
    return (
        sum(1 for d in left if d == 0),
        sum(1 for d in right if d == 0),
        log_degree_stats(left),
        log_degree_stats(right),
    )


def channel_rows(joint_probs):
    """W(b|a) = P(a, b) / P(a) row by row; None where P(a) = 0."""
    rows = []
    for row in joint_probs:
        total = sum(row)
        rows.append(None if total == 0 else [p / total for p in row])
    return rows


def degree_bound(left, right, adjacency, joint_probs, eps1, eps2, lam):
    """(worst slack, violations) of deg(x) <= |T_{eps1+lam}(Y | x)| and the
    right analogue, vertex by vertex; a violation is (side, vertex type
    counts, degree, bound)."""
    flipped = [list(col) for col in zip(*joint_probs)]
    sides = (
        ("left", left, joint_probs, eps1),
        ("right", right, flipped, eps2),
    )
    left_deg, right_deg = vertex_degrees(adjacency, len(right))
    worst = math.inf
    violations = set()
    for side, roster, probs, eps in sides:
        degs = left_deg if side == "left" else right_deg
        rows = channel_rows(probs)
        for x, deg in zip(roster, degs):
            bound = brute_cond_typical_count(rows, x, eps + lam, len(probs[0]))
            if deg > bound:
                violations.add((side, tuple(counts_of(x, len(probs))), deg, bound))
            if deg > 0:
                worst = min(worst, (math.log2(bound) - math.log2(deg)) / len(x))
    return worst, violations


# --- per-edge reference for the converse-side diagnostics ----------------------
#
# Edges are (x symbols, y symbols) pairs of index tuples. This is the
# edge-by-edge code the byte-column diagnostics replaced, kept with the same
# float operations in the same order.


def letter_counts(edges, t, kx, ky):
    counts = [[0] * ky for _ in range(kx)]
    for x, y in edges:
        counts[x[t]][y[t]] += 1
    return counts


def per_letter_laws(edges, kx, ky):
    """Exact kx x ky Fraction matrices of the letter pair at each position."""
    total = len(edges)
    return [
        [[Fraction(c, total) for c in row] for row in letter_counts(edges, t, kx, ky)]
        for t in range(len(edges[0][0]))
    ]


def block_mi(edges):
    total = len(edges)
    pair_counts, x_counts, y_counts = {}, {}, {}
    for x, y in edges:
        pair_counts[(x, y)] = pair_counts.get((x, y), 0) + 1
        x_counts[x] = x_counts.get(x, 0) + 1
        y_counts[y] = y_counts.get(y, 0) + 1
    acc = 0.0
    for (x, y), c in pair_counts.items():
        acc += (c / total) * math.log2(c * total / (x_counts[x] * y_counts[y]))
    return max(0.0, acc)


def per_letter_mi(edges, t, kx, ky):
    total = len(edges)
    counts = letter_counts(edges, t, kx, ky)
    rows = [sum(r) for r in counts]
    cols = [sum(counts[a][b] for a in range(kx)) for b in range(ky)]
    acc = 0.0
    for a in range(kx):
        for b in range(ky):
            c = counts[a][b]
            if c:
                acc += (c / total) * math.log2(c * total / (rows[a] * cols[b]))
    return max(0.0, acc)


def wring(edges, kx, ky, delta, sigma=None, tol=1e-9):
    """Greedy wringing, edge by edge: returns a dict of the traced run."""
    n = len(edges[0][0])
    if sigma is None:
        sigma = block_mi(edges)
    total0 = len(edges)
    step_cap = 2.0 * sigma / delta
    positions, values, steps = [], [], []
    converged = False
    while True:
        mis = [per_letter_mi(edges, t, kx, ky) for t in range(n)]
        worst = max(mis)
        if worst <= delta + tol:
            converged = True
            break
        if len(positions) >= n * kx * ky or len(positions) + 1 > step_cap:
            break
        t_star = mis.index(worst)
        counts = letter_counts(edges, t_star, kx, ky)
        _, _, _, a, b = max(
            (counts[a][b], -a, -b, a, b) for a in range(kx) for b in range(ky)
        )
        edges = [(x, y) for x, y in edges if x[t_star] == a and y[t_star] == b]
        positions.append(t_star)
        values.append((a, b))
        steps.append((t_star, (a, b), len(edges), Fraction(len(edges), total0), worst))
    k = len(positions)
    fraction = Fraction(len(edges), total0)
    bound_ok = None
    if converged and 2.0 * sigma - delta > 0 and k < step_cap:
        floor = (delta / (kx * ky * (2.0 * sigma - delta))) ** k
        bound_ok = float(fraction) >= floor * (1.0 - 1e-12)
    return {
        "positions": tuple(positions),
        "values": tuple(values),
        "sigma": sigma,
        "fraction": fraction,
        "per_letter_mi": tuple(per_letter_mi(edges, t, kx, ky) for t in range(n)),
        "edges": edges,
        "steps": steps,
        "converged": converged,
        "bound_ok": bound_ok,
    }


def write_rank_csv(path, rows):
    """Write a `left_rank,right_rank` edge CSV with csv's default dialect,
    one edge per row, from each left rank's list of right ranks."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["left_rank", "right_rank"])
        for i, nbrs in enumerate(rows):
            writer.writerows((i, j) for j in nbrs)


def non_canonical_ranks(text):
    """Whether a rank CSV's text has a quote, or a cell that `int` reads but
    that is not spelled as str(int(cell)), as the exports spell ranks."""
    if '"' in text:
        return True
    for line in text.splitlines():
        for cell in line.split(","):
            try:
                value = int(cell)
            except ValueError:
                continue
            if str(value) != cell:
                return True
    return False


def read_edge_csv(path, n_left, n_right):
    """Yield (CSV row, left rank, right rank) for each edge of a rank CSV,
    row by row: blank rows skipped; non-integer, out-of-range and repeated
    ranks raise ValueError naming the CSV row."""
    seen = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["left_rank", "right_rank"]:
            raise ValueError("edge CSV must start with left_rank,right_rank")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                i, j = row
                i, j = int(i), int(j)
            except ValueError:
                raise ValueError(
                    f"edge CSV row {line}: expected two integer ranks, got {row!r}"
                ) from None
            if not (0 <= i < n_left and 0 <= j < n_right):
                raise ValueError(
                    f"edge CSV row {line}: ranks ({i}, {j}) outside the "
                    f"{n_left} x {n_right} rosters"
                )
            if (i, j) in seen:
                raise ValueError(f"edge CSV row {line}: repeated edge ({i}, {j})")
            seen.add((i, j))
            yield line, i, j


def pinsker_tvs(edges, kx, ky):
    """Per-letter TV distance to the product of the letter marginals."""
    tvs = []
    for law in per_letter_laws(edges, kx, ky):
        rows = [sum(r) for r in law]
        cols = [sum(law[a][b] for a in range(kx)) for b in range(ky)]
        tvs.append(
            float(
                sum(
                    abs(law[a][b] - rows[a] * cols[b])
                    for a in range(kx)
                    for b in range(ky)
                )
            )
        )
    return tvs


def lll_symmetric_condition(alpha, m1, m2):
    """alpha <= x (1-x)^{M1+M2-2}, x = 1/M1, as one exact Fraction power."""
    x = Fraction(1, m1)
    return alpha <= x * (1 - x) ** (m1 + m2 - 2)


# E_LOW < e < E_HIGH, 1/(60! 60) (about 1e-84) apart: the series of e
E_LOW = sum(Fraction(1, math.factorial(i)) for i in range(61))
E_HIGH = E_LOW + Fraction(1, math.factorial(60) * 60)


def lll_phi_condition(alpha, m1, m2):
    """(M1+M2-1) alpha <= 1/e, against the bracket [E_LOW, E_HIGH] of e.

    Raises if the load lies inside the bracket, where this oracle cannot
    decide.
    """
    load = (m1 + m2 - 1) * alpha
    if load * E_HIGH <= 1:
        return True
    if load * E_LOW > 1:
        return False
    raise ValueError("load within 1e-84 of 1/e")


def hand_bracket(deviation, moments, r1, r2, i_xy):
    """The bracket on P(U = 0) as `typigraph simulate` assembled it by hand
    before `deviation.bracket` existed: string-keyed bounds, the floor
    picked by the "lll" key prefix, suen_zero as the ceiling.

    The bound formulas are the package's own, passed in as the `deviation`
    module; only their assembly is the reference here. Returns the local-
    lemma bounds, the exponent report and a dict of the bracket's fields.
    """
    lll = deviation.lll_lower_bounds(moments, moments.m1, moments.m2, moments.n)
    neg_logs = {
        "suen_zero": deviation.suen_zero_log(
            moments.gamma, moments.theta_cap, moments.theta_small
        ),
        "suen_tail": deviation.suen_tail_log(
            moments.gamma, moments.theta_cap, moments.theta_small, 0.5
        ),
    }
    bounds = {
        "suen_zero": math.exp(-neg_logs["suen_zero"]),
        "suen_tail": math.exp(-neg_logs["suen_tail"]),
        "lll_symmetric": lll.symmetric if lll.symmetric_condition_ok else None,
        "lll_phi": lll.phi if lll.phi_condition_ok else None,
    }
    report = deviation.exponent_report(bounds, moments.n, r1, r2, i_xy, neg_logs)
    lowers = [b for k, b in bounds.items() if k.startswith("lll") and b is not None]
    uppers = [b for k, b in bounds.items() if k.startswith("suen")]
    fields = {
        "floor": max(lowers, default=0.0),
        "ceiling": bounds["suen_zero"],
        "consistency_ok": max(lowers) <= min(uppers) + 1e-12 if lowers else None,
    }
    return lll, report, fields


def hand_inside(low, high, floor, ceiling):
    """`typigraph simulate`'s former verdict: [low, high] meets the bracket."""
    return low <= ceiling + 1e-12 and high >= floor - 1e-12


def _counts_typical(counts, probs, n, delta):
    """Counts in the closed delta-ball of probs, no mass off the support."""
    return all(
        abs(Fraction(c, n) - p) <= delta and (p > 0 or c == 0)
        for c, p in zip(counts, probs)
    )


def exact_type_subgraph(joint_probs, n, eps1, eps2, lam):
    """The single-type subgraph, restated from its definition.

    Round the joint to denominator n by largest remainders (ties to the
    earlier cell in row-major order); the rosters are the type classes of
    the rounded marginals and (x, y) is an edge when its joint type is the
    rounded one. Sizes and degrees are products of multinomials.
    """
    kx, ky = len(joint_probs), len(joint_probs[0])
    flat = [p for row in joint_probs for p in row]
    scaled = [p * n for p in flat]
    counts = [math.floor(s) for s in scaled]
    order = sorted(range(kx * ky), key=lambda i: (counts[i] - scaled[i], i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    target = tuple(tuple(counts[a * ky : (a + 1) * ky]) for a in range(kx))
    rows = [sum(r) for r in target]
    cols = [sum(r[b] for r in target) for b in range(ky)]
    left_degree = math.prod(multinomial_factorial(rows[a], target[a]) for a in range(kx))
    right_degree = math.prod(
        multinomial_factorial(cols[b], [r[b] for r in target]) for b in range(ky)
    )
    px = [sum(r) for r in joint_probs]
    py = [sum(r[b] for r in joint_probs) for b in range(ky)]
    errors = [abs(Fraction(c, n) - p) for c, p in zip(counts, flat)]
    return {
        "target": target,
        "rounded": tuple(tuple(Fraction(c, n) for c in r) for r in target),
        "max_rounding_error": max(errors),
        "support_shrunk": any(c == 0 and p > 0 for c, p in zip(counts, flat)),
        "left_size": multinomial_factorial(n, rows),
        "right_size": multinomial_factorial(n, cols),
        "left_degree": left_degree,
        "right_degree": right_degree,
        "containment": (
            _counts_typical(rows, px, n, eps1),
            _counts_typical(cols, py, n, eps2),
            _counts_typical(counts, flat, n, lam),
            lam * n >= 1 and eps1 * n >= ky and eps2 * n >= kx,
        ),
        "delta3": kx * ky * math.log2(n + 1) / n,
    }


def type_class(counts, n):
    """Sequences with the given symbol counts, in lexicographic order."""
    k = len(counts)
    return [s for s in all_sequences(k, n) if counts_of(s, k) == list(counts)]


def exact_type_edges(target, n):
    """(left rank, right rank) of every roster pair whose joint type is
    target, left-major."""
    kx, ky = len(target), len(target[0])
    left = type_class([sum(r) for r in target], n)
    right = type_class([sum(r[b] for r in target) for b in range(ky)], n)
    want = [c for r in target for c in r]
    return left, right, [
        (i, j)
        for i, x in enumerate(left)
        for j, y in enumerate(right)
        if counts_of([a * ky + b for a, b in zip(x, y)], kx * ky) == want
    ]


# --- the listed joint ball ----------------------------------------------------------


def listed_ball(kx, ky, blocks):
    """The pair predicate of a ball listed up front, the form the joint-type
    index had before it filed cells on demand. blocks: (length, per-cell
    (lo, hi) boxes of the flat kx x ky count matrix) pairs, one per run of
    consecutive positions, in order. Every count matrix of each block that
    lies inside its boxes is listed, and (x, y) is admitted when the joint
    count matrix of every block is among them."""
    listed = [
        (
            length,
            {
                c
                for c in compositions_colex(kx * ky, length)
                if all(lo <= v <= hi for v, (lo, hi) in zip(c, boxes))
            },
        )
        for length, boxes in blocks
    ]

    def admits(x, y):
        start = 0
        for length, matrices in listed:
            pairs = [a * ky + b for a, b in zip(x[start : start + length], y[start : start + length])]
            if tuple(counts_of(pairs, kx * ky)) not in matrices:
                return False
            start += length
        return True

    return admits


# --- frozen records, in their former dataclass form -------------------------------


# Fields the dataclass form declared that the records hold as plain
# attributes, outside eq, hash and repr.
_FORMER_HIDDEN_FIELDS = {
    "Alphabet": [("_index", dict, dataclasses.field(init=False, repr=False, compare=False))],
    "TypicalityGraph": [
        ("_kernels", dict, dataclasses.field(default_factory=dict, repr=False, compare=False))
    ],
}


def dataclass_twin(cls):
    """`@dataclass(frozen=True)` over cls's annotated fields, class-attribute
    defaults and `__post_init__`: the form every value class had before the
    package's `record`, as a `make_dataclass` class of the same name."""
    specs = [
        (name, annotation, dataclasses.field(default=cls.__dict__[name]))
        if name in cls.__dict__
        else (name, annotation)
        for name, annotation in cls.__dict__["__annotations__"].items()
    ]
    specs += _FORMER_HIDDEN_FIELDS.get(cls.__name__, [])
    namespace = {}
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True)


def scan_ranks(index, xs, ys):
    """`index.scan(xs, ys)` read bit by bit: each x's rows of ys as an
    ascending list of indices, index j being bit len(ys)-1-j of its int."""
    ys = list(ys)
    top = len(ys) - 1
    return [[j for j in range(len(ys)) if hits >> (top - j) & 1] for hits in index.scan(xs, ys)]
