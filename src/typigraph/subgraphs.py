"""Explicit near-extremal subgraphs of the typicality graph.

One construction, exact-type based. Round the triple law of an auxiliary
U with (X, Y) to a denominator-n type (one largest-remainder pass over all
|U||X||Y| cells, which keeps marginals and conditionals consistent by
construction), fix the lexicographically smallest u-sequence of the rounded
u-type, and take conditional type classes given u as rosters, with (x, y)
adjacent when in every u-run their joint type equals that run's rounded
counts. Every left vertex then has the same degree (a product of per-block
multinomials, by exchangeability), concentrated at H(Y|XU) of the rounded
triple, and every right vertex at H(X|YU); the two roles are not symmetric.
So a left vertex x's neighbours are the products of one arrangement of
each (u-run, letter of x) class of positions with that class's target
type; the edge export lists them so, per left vertex, and tests no pair.

A `Subgraph` records which of the two families it belongs to in `kind`:

* "single_type" (`build_exact_type_subgraph`): U has one letter, so the
  rosters are the exact type classes of the rounded marginals and every
  degree is pinned between 2^{n(H - delta3)} and 2^{nH} for the rounded
  conditional entropy H.
* "aux_conditional" (`build_aux_subgraph`): any channel to U given (x, y).

Rate/slack measurement and exact Markov-mixture decompositions (weights
plus per-u factors, used to certify nearly-complete behavior) live here
as well.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, islice, product
from operator import lshift
from typing import Iterator, Optional

from .core import (
    Alphabet,
    ApproxResult,
    CapExceeded,
    CondPmf,
    InvariantViolation,
    JointPmf,
    Pmf,
    _cond_rows,
    _decimal,
    _key,
    _list,
    _load_json,
    _write_json,
    cond_from_dict,
    cond_to_dict,
    conditionalize,
    entropy,
    float_sum,
    joint_entropy,
    joint_to_dict,
    parse_fraction,
    product_alphabet,
    rational_approximate,
    record,
    total_variation,
)
from .graph import (
    _count_field, _field, _is_rank_csv, _params_to_dict, _read_header, _write_rank_csv,
)
from .typicality import (
    BigCount,
    Sequence,
    TypicalityParams,
    _box_rows,
    _counts_typical,
    default_params,
    multinomial,
)


@record
class ContainmentReport:
    """Is the constructed subgraph inside the ambient typicality graph?

    Checked exactly at the type level against the given parameters; the
    premise flags record the 1/n-versus-parameter inequalities that make
    containment automatic at large n.
    """

    eps1: Fraction
    eps2: Fraction
    lam: Fraction
    left_contained: bool
    right_contained: bool
    edges_contained: bool
    premise_ok: bool


def _containment(
    joint: JointPmf,
    n: int,
    params: TypicalityParams,
    overall_counts,  # flat |X|*|Y| pair counts of any (x, y) in the subgraph
) -> ContainmentReport:
    kx, ky = joint.row_alphabet.size, joint.col_alphabet.size
    rows = tuple(
        tuple(overall_counts[a * ky + b] for b in range(ky)) for a in range(kx)
    )
    xcounts = tuple(sum(r) for r in rows)
    ycounts = tuple(sum(rows[a][b] for a in range(kx)) for b in range(ky))
    px, py = joint.row_marginal(), joint.col_marginal()
    return ContainmentReport(
        eps1=params.eps1,
        eps2=params.eps2,
        lam=params.lam,
        left_contained=_counts_typical(xcounts, px.probs, n, params.eps1),
        right_contained=_counts_typical(ycounts, py.probs, n, params.eps2),
        edges_contained=_counts_typical(overall_counts, joint.flat(), n, params.lam),
        premise_ok=(
            Fraction(params.lam) * n >= 1
            and Fraction(params.eps1) * n >= ky
            and Fraction(params.eps2) * n >= kx
        ),
    )


# ---------------------------------------------------------------------------
# the subgraph: conditional type classes given a fixed u-sequence
# ---------------------------------------------------------------------------


@record
class Subgraph:
    """Rosters and adjacency conditioned on one u-sequence, block by block.

    kind is "single_type" when built by `build_exact_type_subgraph` (U has
    one letter, so there is one block of all n positions) and
    "aux_conditional" when built by `build_aux_subgraph`. It decides only
    which provenance keys the export header carries.
    """

    kind: str
    joint: JointPmf
    aux: CondPmf  # U given (row, col) pairs
    n: int
    params: TypicalityParams
    tilde: ApproxResult  # rounded triple on U x (X x Y), denominator n
    u_seq: Sequence  # lexicographically smallest sequence of the u-type
    block_lengths: tuple[int, ...]  # per u
    block_targets: tuple  # per u: |X| x |Y| count matrices
    left_block_types: tuple  # per u: |X| count vectors
    right_block_types: tuple  # per u: |Y| count vectors
    left_size: BigCount
    right_size: BigCount
    left_degree: BigCount  # shared by every left vertex (exchangeability)
    right_degree: BigCount
    containment: ContainmentReport
    target_rates: "RateTuple"  # entropic targets from the rounded triple
    delta3: float  # |X| |Y| |U| log2(n+1) / n

    def rounded_joint(self) -> JointPmf:
        """The (X, Y) marginal of the rounded triple."""
        flat = self.tilde.approx.col_marginal().probs
        ky = self.joint.col_alphabet.size
        return JointPmf(
            self.joint.row_alphabet,
            self.joint.col_alphabet,
            tuple(flat[i : i + ky] for i in range(0, len(flat), ky)),
        )


def build_exact_type_subgraph(
    joint: JointPmf, n: int, params: Optional[TypicalityParams] = None
) -> Subgraph:
    """The single-type subgraph: the construction with a one-letter U.

    The joint is rounded to a denominator-n type, the rosters are the type
    classes of its marginals, and (x, y) is an edge when their joint type
    is the rounded one.
    """
    pairs = product_alphabet(joint.row_alphabet, joint.col_alphabet)
    u = Alphabet(("u",))
    one = CondPmf(pairs, u, (Pmf(u, (Fraction(1),)),) * pairs.size)
    return _build("single_type", joint, one, n, params)


def build_aux_subgraph(
    joint: JointPmf,
    aux: CondPmf,
    n: int,
    params: Optional[TypicalityParams] = None,
) -> Subgraph:
    """The auxiliary-variable subgraph for a channel to U given (x, y)."""
    return _build("aux_conditional", joint, aux, n, params)


def _build(
    kind: str,
    joint: JointPmf,
    aux: CondPmf,
    n: int,
    params: Optional[TypicalityParams],
) -> Subgraph:
    """Round the triple law jointly, then build conditional type classes.

    The single rounding pass over all |U||X||Y| cells makes every derived
    marginal and conditional an exact function of the same counts, so the
    construction can never disagree with itself.
    """
    if params is None:
        params = default_params(n)
    pairs = product_alphabet(joint.row_alphabet, joint.col_alphabet)
    if aux.given_alphabet != pairs:
        raise ValueError(
            "aux channel must condition on the joint's pair alphabet "
            "(row label, col label) in row-major order"
        )
    u_alpha = aux.out_alphabet
    ku = u_alpha.size
    kx, ky = joint.row_alphabet.size, joint.col_alphabet.size
    flat_joint = joint.flat()
    rows = []
    for u in range(ku):
        row = []
        for idx in range(kx * ky):
            p = flat_joint[idx]
            r = aux.rows[idx]
            if r is None:
                if p > 0:
                    raise ValueError(
                        "aux channel undefined on a pair inside the support"
                    )
                row.append(Fraction(0))
            else:
                row.append(p * r.probs[u])
        rows.append(tuple(row))
    triple = JointPmf(u_alpha, pairs, tuple(rows))
    tilde = rational_approximate(triple, n)
    tt: JointPmf = tilde.approx
    cells = tuple(
        tuple(int(tt.cell(u, idx) * n) for idx in range(kx * ky)) for u in range(ku)
    )
    block_targets = tuple(
        tuple(tuple(cells[u][a * ky + b] for b in range(ky)) for a in range(kx))
        for u in range(ku)
    )
    block_lengths = tuple(sum(cells[u]) for u in range(ku))
    u_symbols = []
    for u in range(ku):
        u_symbols.extend([u] * block_lengths[u])
    u_seq = Sequence(u_alpha, tuple(u_symbols))
    left_block_types = tuple(
        tuple(sum(block_targets[u][a]) for a in range(kx)) for u in range(ku)
    )
    right_block_types = tuple(
        tuple(sum(block_targets[u][a][b] for a in range(kx)) for b in range(ky))
        for u in range(ku)
    )
    left_size = 1
    right_size = 1
    left_degree = 1
    right_degree = 1
    for u in range(ku):
        nu = block_lengths[u]
        if nu == 0:
            continue
        left_size *= multinomial(nu, left_block_types[u])
        right_size *= multinomial(nu, right_block_types[u])
        for a in range(kx):
            left_degree *= multinomial(
                left_block_types[u][a], block_targets[u][a]
            )
        for b in range(ky):
            right_degree *= multinomial(
                right_block_types[u][b],
                tuple(block_targets[u][a][b] for a in range(kx)),
            )
    overall = tuple(
        sum(cells[u][idx] for u in range(ku)) for idx in range(kx * ky)
    )
    target_rates = _aux_target_rates(tt, kx, ky)
    return Subgraph(
        kind=kind,
        joint=joint,
        aux=aux,
        n=n,
        params=params,
        tilde=tilde,
        u_seq=u_seq,
        block_lengths=block_lengths,
        block_targets=block_targets,
        left_block_types=left_block_types,
        right_block_types=right_block_types,
        left_size=BigCount.from_int(left_size),
        right_size=BigCount.from_int(right_size),
        left_degree=BigCount.from_int(left_degree),
        right_degree=BigCount.from_int(right_degree),
        containment=_containment(joint, n, params, overall),
        target_rates=target_rates,
        delta3=kx * ky * ku * math.log2(n + 1) / n,
    )


def _aux_target_rates(triple: JointPmf, kx: int, ky: int) -> "RateTuple":
    """(H(X|U), H(Y|U), H(X|YU), H(Y|XU)) of the rounded triple."""
    ku = triple.row_alphabet.size
    h_u = entropy(triple.row_marginal())
    h_uxy = joint_entropy(triple)

    def collapse(keep_col: bool) -> float:
        # entropy of (U, X) or (U, Y) under the triple
        acc = []
        for u in range(ku):
            row = triple.probs[u]
            if keep_col:
                sums = [
                    sum(row[a * ky + b] for a in range(kx)) for b in range(ky)
                ]
            else:
                sums = [
                    sum(row[a * ky + b] for b in range(ky)) for a in range(kx)
                ]
            acc.extend(sums)
        return -float_sum(float(p) * math.log2(p) if p > 0 else 0.0 for p in acc)

    h_ux = collapse(keep_col=False)
    h_uy = collapse(keep_col=True)
    return RateTuple(
        r_x=h_ux - h_u,
        r_y=h_uy - h_u,
        r_x_prime=h_uxy - h_uy,
        r_y_prime=h_uxy - h_ux,
    )


@record
class SingleTypeReport:
    """Exact size/degree pins of the single-type subgraph.

    Roster rates sit within |X| log2(n+1)/n of the rounded marginal
    entropies; every degree sits in [2^{n(H - delta3)}, 2^{nH}] for the
    matching rounded conditional entropy.
    """

    left_rate: float
    left_entropy: float
    left_rate_bound: float
    right_rate: float
    right_entropy: float
    right_rate_bound: float
    left_degree_rate: float
    h_col_given_row: float
    right_degree_rate: float
    h_row_given_col: float
    delta3: float
    all_ok: bool


_FP_TOL = 1e-9


def verify_single_type(sub: Subgraph) -> SingleTypeReport:
    n = sub.n
    tj = sub.rounded_joint()
    h_x = entropy(tj.row_marginal())
    h_y = entropy(tj.col_marginal())
    h_xy = joint_entropy(tj)
    h_y_x = h_xy - h_x
    h_x_y = h_xy - h_y
    kx, ky = tj.row_alphabet.size, tj.col_alphabet.size
    left_rate = sub.left_size.log2 / n
    right_rate = sub.right_size.log2 / n
    lbound = kx * math.log2(n + 1) / n
    rbound = ky * math.log2(n + 1) / n
    ldeg_rate = sub.left_degree.log2 / n
    rdeg_rate = sub.right_degree.log2 / n
    ok = (
        abs(left_rate - h_x) <= lbound + _FP_TOL
        and abs(right_rate - h_y) <= rbound + _FP_TOL
        and h_y_x - sub.delta3 - _FP_TOL <= ldeg_rate <= h_y_x + _FP_TOL
        and h_x_y - sub.delta3 - _FP_TOL <= rdeg_rate <= h_x_y + _FP_TOL
    )
    return SingleTypeReport(
        left_rate=left_rate,
        left_entropy=h_x,
        left_rate_bound=lbound,
        right_rate=right_rate,
        right_entropy=h_y,
        right_rate_bound=rbound,
        left_degree_rate=ldeg_rate,
        h_col_given_row=h_y_x,
        right_degree_rate=rdeg_rate,
        h_row_given_col=h_x_y,
        delta3=sub.delta3,
        all_ok=ok,
    )


# ---------------------------------------------------------------------------
# rosters and adjacency
# ---------------------------------------------------------------------------


def left_roster(sub: Subgraph) -> Iterator[Sequence]:
    """Materialize left vertices in lexicographic order."""
    return map(partial(Sequence, sub.joint.row_alphabet), _spliced(sub, "left"))


def right_roster(sub: Subgraph) -> Iterator[Sequence]:
    return map(partial(Sequence, sub.joint.col_alphabet), _spliced(sub, "right"))


def _spliced(sub: Subgraph, side: str) -> Iterator[tuple[int, ...]]:
    """Symbol rows of the "left" or "right" roster: the rows with that
    side's type in every u-run, in lexicographic order, from one box walk
    with a (c, c) box per count. The runs of u_seq lie in u order, so block
    u is the u-th run of consecutive positions."""
    if side == "left":
        k, types = sub.joint.row_alphabet.size, sub.left_block_types
    else:
        k, types = sub.joint.col_alphabet.size, sub.right_block_types
    return _box_rows(k, [(nu, [(c, c) for c in t]) for nu, t in zip(sub.block_lengths, types)])


def _neighbour_rows(sub: Subgraph, left, right) -> Iterator[list[int]]:
    """For each row x of `left`, the ascending ranks in `right` (the right
    roster's rows, in order) of x's neighbours: the y whose restriction to
    the positions where x = a in u-run u has the type block_targets[u][a].

    So x's neighbours are the product of one arrangement of that type per
    (u-run, letter of x) class, listed by `_box_rows` with a (c, c) box per
    count, once per type. A row reads as an int with one fixed-width digit
    per position, most significant first, so a neighbour's int is the sum
    of its classes' arrangement ints, and its rank is looked up among the
    right rows' ints. The work is O(n) per edge; no pair is tested.
    """
    n, ky = sub.n, sub.joint.col_alphabet.size
    shifts = [max(1, (ky - 1).bit_length()) * (n - 1 - t) for t in range(n)]
    rank = {sum(map(lshift, y, shifts)): j for j, y in enumerate(right)}
    arrangements = cache(lambda t: list(_box_rows(ky, [(sum(t), [(c, c) for c in t])])))
    ends = list(accumulate(sub.block_lengths, initial=0))
    runs = list(zip(map(range, ends, ends[1:]), sub.block_targets))
    for x in left:
        factors = []
        for positions, target in runs:
            classes = [[] for _ in target]
            for t in positions:
                classes[x[t]].append(shifts[t])
            for place, counts in zip(classes, target):
                factors.append([sum(map(lshift, r, place)) for r in arrangements(counts)])
        yield sorted(map(rank.__getitem__, map(sum, product(*factors))))


def is_edge(sub: Subgraph, x: Sequence, y: Sequence) -> bool:
    """Exact adjacency predicate: in every u-run, the joint counts of
    (x, y) equal that run's target.

    ValueError when x or y has a blocklength other than sub.n, or an
    alphabet other than the joint's alphabet on its side (compared by
    identity, then by equality): either would be counted against targets
    of another shape and tested silently.
    """
    rows, cols = sub.joint.row_alphabet, sub.joint.col_alphabet
    if not (
        len(x.symbols) == len(y.symbols) == sub.n
        and (x.alphabet is rows or x.alphabet == rows)
        and (y.alphabet is cols or y.alphabet == cols)
    ):
        for s, alphabet, side in ((x, rows, "row"), (y, cols, "column")):
            if s.n != sub.n:
                raise ValueError(f"a {side} sequence has blocklength {s.n}, not n={sub.n}")
            if s.alphabet != alphabet:
                raise ValueError(
                    f"a {side} sequence's alphabet {list(s.alphabet.symbols)} is not "
                    f"the joint's {side} alphabet {list(alphabet.symbols)}"
                )
    pairs = zip(x.symbols, y.symbols)
    for nu, target in zip(sub.block_lengths, sub.block_targets):
        counts = [[0] * cols.size for _ in target]
        for a, b in islice(pairs, nu):
            counts[a][b] += 1
        if tuple(map(tuple, counts)) != target:
            return False
    return True


# ---------------------------------------------------------------------------
# measured rates and slack
# ---------------------------------------------------------------------------


@record
class RateTuple:
    """Rates in bits/symbol: vertex-set sizes and degree concentrations."""

    r_x: float
    r_y: float
    r_x_prime: float  # right-vertex degrees
    r_y_prime: float  # left-vertex degrees


@record
class SlackReport:
    gen: float  # two-sided degree-concentration slack
    nc: float  # one-sided nearly-complete slack


def measure_rates(sub: Subgraph) -> tuple[RateTuple, SlackReport]:
    """Measured rates plus the deviations needed to certify the subgraph.

    Sizes and degrees are products of multinomials, so never zero, and
    every vertex on a side has the same degree. gen, the two-sided slack
    within which all degrees on a side sit around a common rate, is then
    0. nc is the smallest one-sided slack for which left degrees reach the
    right roster rate and right degrees the left roster rate.
    """
    n = sub.n
    r_x = sub.left_size.log2 / n
    r_y = sub.right_size.log2 / n
    r_y_prime = sub.left_degree.log2 / n
    r_x_prime = sub.right_degree.log2 / n
    rates = RateTuple(r_x=r_x, r_y=r_y, r_x_prime=r_x_prime, r_y_prime=r_y_prime)
    return rates, SlackReport(
        gen=0.0, nc=max(0.0, r_y - r_y_prime, r_x - r_x_prime)
    )


# ---------------------------------------------------------------------------
# Markov mixture decompositions
# ---------------------------------------------------------------------------


@record
class MarkovDecomposition:
    """joint(x, y) ~= sum_u weights(u) * left(x|u) * right(y|u)."""

    weights: Pmf
    left_factors: CondPmf  # row variable given U
    right_factors: CondPmf  # col variable given U
    residual: Fraction  # exact TV distance to the reconstructed joint


def induced_joint(
    weights: Pmf, left: CondPmf, right: CondPmf
) -> JointPmf:
    if left.given_alphabet != weights.alphabet or right.given_alphabet != weights.alphabet:
        raise ValueError("factor conditioning alphabets must match the weights")
    kx = left.out_alphabet.size
    ky = right.out_alphabet.size
    cells = [[Fraction(0)] * ky for _ in range(kx)]
    for u, w in enumerate(weights.probs):
        if w == 0:
            continue
        lrow, rrow = left.rows[u], right.rows[u]
        if lrow is None or rrow is None:
            raise ValueError("factor row undefined for a positive-weight u")
        for a in range(kx):
            la = lrow.probs[a]
            if la == 0:
                continue
            for b in range(ky):
                cells[a][b] += w * la * rrow.probs[b]
    return JointPmf(left.out_alphabet, right.out_alphabet, tuple(tuple(r) for r in cells))


def verify_decomposition(d: MarkovDecomposition, joint: JointPmf) -> Fraction:
    """Exact TV distance between the mixture and the target joint."""
    return total_variation(
        induced_joint(d.weights, d.left_factors, d.right_factors), joint
    )


def make_decomposition(
    weights: Pmf, left: CondPmf, right: CondPmf, joint: JointPmf
) -> MarkovDecomposition:
    residual = total_variation(induced_joint(weights, left, right), joint)
    return MarkovDecomposition(
        weights=weights, left_factors=left, right_factors=right, residual=residual
    )


def canonical_markov_decompositions(
    joint: JointPmf,
) -> tuple[MarkovDecomposition, MarkovDecomposition]:
    """The two trivial chains: U a copy of the row variable, and of the column.

    Both reconstruct the joint exactly (residual zero).
    """
    px = joint.row_marginal()
    py = joint.col_marginal()
    kx, ky = px.alphabet.size, py.alphabet.size

    def point_mass(alphabet: Alphabet, i: int) -> Pmf:
        return Pmf(
            alphabet,
            tuple(Fraction(1) if j == i else Fraction(0) for j in range(alphabet.size)),
        )

    ident_x = CondPmf(
        px.alphabet, px.alphabet, tuple(point_mass(px.alphabet, u) for u in range(kx))
    )
    ident_y = CondPmf(
        py.alphabet, py.alphabet, tuple(point_mass(py.alphabet, u) for u in range(ky))
    )
    d_row = make_decomposition(px, ident_x, conditionalize(joint), joint)
    d_col = make_decomposition(py, conditionalize(joint.transpose()), ident_y, joint)
    for d in (d_row, d_col):
        if d.residual != 0:
            raise InvariantViolation("canonical decomposition failed to reconstruct")
    return d_row, d_col


def rate_point(d: MarkovDecomposition, tol: float = 1e-9) -> tuple[float, float]:
    """(H(X|U), H(Y|U)) of the mixture; requires residual within tol."""
    if float(d.residual) > tol:
        raise ValueError(
            f"decomposition residual {float(d.residual)} exceeds tolerance {tol}"
        )
    h_x_u = 0.0
    h_y_u = 0.0
    for u, w in enumerate(d.weights.probs):
        if w == 0:
            continue
        h_x_u += float(w) * entropy(d.left_factors.rows[u])
        h_y_u += float(w) * entropy(d.right_factors.rows[u])
    return h_x_u, h_y_u


def load_decomposition(doc, joint: JointPmf) -> MarkovDecomposition:
    """Parse a JSON decomposition (rational entries) and attach its residual.
    doc is the document or its path; ValueError names a key that is missing
    or does not hold a list."""
    if isinstance(doc, str):
        doc = _load_json(doc)
    u_alpha = Alphabet(tuple(_list(_key(doc, "u_alphabet"), "u_alphabet")))
    weights = Pmf(u_alpha, tuple(map(parse_fraction, _list(_key(doc, "weights"), "weights"))))
    x, y = joint.row_alphabet, joint.col_alphabet
    left = CondPmf(u_alpha, x, _cond_rows(doc, "left_factors", x))
    right = CondPmf(u_alpha, y, _cond_rows(doc, "right_factors", y))
    return make_decomposition(weights, left, right, joint)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

SUBGRAPH_SCHEMA = "typigraph.subgraph/1"
EDGE_SCAN_CAP = 1 << 22  # edges an edge export may write, by default
_COUNTS = ("left_size", "right_size", "left_degree", "right_degree")


def export_subgraph(
    sub: Subgraph,
    json_path: str,
    edges_csv_path: Optional[str] = None,
    edge_cap: int = EDGE_SCAN_CAP,
) -> None:
    """JSON header with exact provenance; optional edge CSV of roster ranks.

    The edges are listed per left vertex by `_neighbour_rows`, so the work
    follows the edge count E = left_size * left_degree. An export of more
    than edge_cap edges is refused with CapExceeded before any file is
    written; since E is at least left_size and right_size, the cap bounds
    both rosters too. An edge CSV whose row count is not E raises
    InvariantViolation.
    """
    edges = sub.left_size.value * sub.left_degree.value
    if edges_csv_path is not None and edges > edge_cap:
        raise CapExceeded(f"edge export of {_decimal(edges)} edges exceeds cap {edge_cap}")
    if sub.kind == "single_type":
        extra = {"rounded_joint": joint_to_dict(sub.rounded_joint())}
    else:
        extra = {
            "rounded_triple": joint_to_dict(sub.tilde.approx),
            "u_sequence": [str(l) for l in sub.u_seq.labels()],
            "aux_channel": cond_to_dict(sub.aux),
        }
    counts = {name: getattr(sub, name) for name in _COUNTS}
    header = {
        "schema": SUBGRAPH_SCHEMA,
        "kind": sub.kind,
        "spec": {
            "joint": joint_to_dict(sub.joint),
            "n": sub.n,
            "params": _params_to_dict(sub.params),
        },
        **{
            name: {"value": _decimal(c.value), "log2": c.log2}
            for name, c in counts.items()
        },
        "delta3": sub.delta3,
        "containment": {
            "left": sub.containment.left_contained,
            "right": sub.containment.right_contained,
            "edges": sub.containment.edges_contained,
            "premise_ok": sub.containment.premise_ok,
        },
        "max_rounding_error": str(sub.tilde.max_error),
        "support_shrunk": sub.tilde.support_shrunk,
        **extra,
    }
    _write_json(json_path, header)
    if edges_csv_path is not None:
        rows, width = _export_rows(sub)
        _write_rank_csv(edges_csv_path, rows, edges, width)


def _export_rows(sub: Subgraph) -> tuple:
    """(rows, width) of the edge CSV that `export_subgraph` writes: each
    left rank's ascending right ranks (`_neighbour_rows`), streamed, and
    the right roster's size."""
    right = list(_spliced(sub, "right"))
    return _neighbour_rows(sub, _spliced(sub, "left"), right), len(right)


def _is_subgraph_export(sub: Subgraph, path: str) -> bool:
    """Whether the file at path is byte for byte the edge CSV that
    `export_subgraph` writes for sub (`graph._is_rank_csv`): only an
    export of at most `EDGE_SCAN_CAP` edges E = left_size * left_degree is
    compared."""
    edges = sub.left_size.value * sub.left_degree.value
    if edges > EDGE_SCAN_CAP:
        return False
    rows, width = _export_rows(sub)
    return _is_rank_csv(path, rows, edges, width)


def import_subgraph(json_path) -> Subgraph:
    """Rebuild a subgraph deterministically from its export header, given
    as its path or its document as read (`graph._read_header`).

    A missing key, a value of the wrong type or an unknown kind raises
    ValueError; a rebuilt size or degree that differs from the header
    raises InvariantViolation.
    """
    header, joint, n, params = _read_header(json_path, SUBGRAPH_SCHEMA)
    kind = _field(header, "kind", str)
    counts = {name: _count_field(header, f"{name}.value") for name in _COUNTS}
    if kind == "single_type":
        sub = build_exact_type_subgraph(joint, n, params)
    elif kind == "aux_conditional":
        aux = cond_from_dict(_field(header, "aux_channel", dict))
        sub = build_aux_subgraph(joint, aux, n, params)
    else:
        raise ValueError(f"unknown subgraph kind {kind!r}")
    for name, recorded in counts.items():
        rebuilt = _decimal(getattr(sub, name).value)
        if rebuilt != recorded:
            raise InvariantViolation(
                f"{name} {recorded} in the export header differs from the "
                f"rebuilt {rebuilt}"
            )
    return sub
