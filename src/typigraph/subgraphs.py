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

import json
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

from .core import (
    Alphabet,
    ApproxResult,
    CapExceeded,
    CondPmf,
    InvariantViolation,
    JointPmf,
    Pmf,
    cond_from_dict,
    cond_to_dict,
    conditionalize,
    entropy,
    joint_entropy,
    joint_from_dict,
    joint_to_dict,
    parse_fraction,
    product_alphabet,
    rational_approximate,
    record,
    total_variation,
)
from .graph import (
    _count_field,
    _field,
    _params_from_header,
    _params_to_dict,
    _write_rank_csv,
)
from .typicality import (
    BigCount,
    JointTypeIndex,
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

    @cached_property
    def edge_index(self) -> JointTypeIndex:
        """Adjacency: in every u-run, the joint type of (x, y) equals that
        block's target."""
        kx, ky = self.joint.row_alphabet.size, self.joint.col_alphabet.size
        blocks = [
            (nu, [(c, c) for row in target for c in row])
            for nu, target in zip(self.block_lengths, self.block_targets)
            if nu
        ]
        return JointTypeIndex(kx, ky, blocks)


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
        return -sum(
            float(p) * math.log2(p) if p > 0 else 0.0 for p in acc
        )

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
    return _spliced(sub.joint.row_alphabet, sub.block_lengths, sub.left_block_types)


def right_roster(sub: Subgraph) -> Iterator[Sequence]:
    return _spliced(sub.joint.col_alphabet, sub.block_lengths, sub.right_block_types)


def _spliced(alphabet: Alphabet, block_lengths, block_types) -> Iterator[Sequence]:
    """Sequences with the given type in every u-run, in lexicographic
    order: one box walk with a (c, c) box per count. The runs of u_seq lie
    in u order, so block u is the u-th run of consecutive positions."""
    blocks = [(nu, [(c, c) for c in t]) for nu, t in zip(block_lengths, block_types)]
    for row in _box_rows(alphabet.size, blocks):
        yield Sequence(alphabet, row)


def is_edge(sub: Subgraph, x: Sequence, y: Sequence) -> bool:
    """Exact adjacency predicate.

    ValueError when x or y has a blocklength other than sub.n, or an
    alphabet other than the joint's alphabet on its side (compared by
    identity, then by equality): either would be packed into bitmasks of
    another shape and tested silently.
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
    return sub.edge_index.count([x.symbols], [y.symbols]) == 1


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
    d = MarkovDecomposition(
        weights=weights, left_factors=left, right_factors=right, residual=Fraction(0)
    )
    residual = verify_decomposition(d, joint)
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
    """Parse a JSON decomposition (rational entries) and attach its residual."""
    if isinstance(doc, str):
        with open(doc, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    u_alpha = Alphabet(tuple(doc["u_alphabet"]))
    weights = Pmf(u_alpha, tuple(parse_fraction(v) for v in doc["weights"]))
    left = CondPmf(
        u_alpha,
        joint.row_alphabet,
        tuple(
            None
            if row is None
            else Pmf(joint.row_alphabet, tuple(parse_fraction(v) for v in row))
            for row in doc["left_factors"]
        ),
    )
    right = CondPmf(
        u_alpha,
        joint.col_alphabet,
        tuple(
            None
            if row is None
            else Pmf(joint.col_alphabet, tuple(parse_fraction(v) for v in row))
            for row in doc["right_factors"]
        ),
    )
    return make_decomposition(weights, left, right, joint)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

SUBGRAPH_SCHEMA = "typigraph.subgraph/1"
EDGE_SCAN_CAP = 1 << 22  # candidate pairs an edge export may scan, by default
_COUNTS = ("left_size", "right_size", "left_degree", "right_degree")


def export_subgraph(
    sub: Subgraph,
    json_path: str,
    edges_csv_path: Optional[str] = None,
    edge_cap: int = EDGE_SCAN_CAP,
) -> None:
    """JSON header with exact provenance; optional edge CSV of roster ranks.

    The edge scan over left_size * right_size pairs is refused with
    CapExceeded over edge_cap, before any file is written. An edge CSV
    whose row count is not left_size * left_degree raises
    InvariantViolation.
    """
    if edges_csv_path is not None:
        total = sub.left_size.value * sub.right_size.value
        if total > edge_cap:
            raise CapExceeded(
                f"edge scan over {total} candidate pairs exceeds cap {edge_cap}"
            )
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
            name: {"value": str(c.value), "log2": c.log2}
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
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if edges_csv_path is None:
        return
    left = [x.symbols for x in left_roster(sub)]
    right = [y.symbols for y in right_roster(sub)]
    rows = sub.edge_index.scan(left, right)
    _write_rank_csv(edges_csv_path, rows, sub.left_size.value * sub.left_degree.value)


def import_subgraph(json_path: str) -> Subgraph:
    """Rebuild a subgraph deterministically from its export header.

    A missing key, a value of the wrong type or an unknown kind raises
    ValueError; a rebuilt size or degree that differs from the header
    raises InvariantViolation.
    """
    with open(json_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    if header.get("schema") != SUBGRAPH_SCHEMA:
        raise ValueError(f"unexpected schema {header.get('schema')!r}")
    kind = _field(header, "kind", str)
    joint = joint_from_dict(_field(header, "spec.joint", dict))
    n = _field(header, "spec.n", int)
    params = _params_from_header(header)
    counts = {name: _count_field(header, f"{name}.value") for name in _COUNTS}
    if kind == "single_type":
        sub = build_exact_type_subgraph(joint, n, params)
    elif kind == "aux_conditional":
        aux = cond_from_dict(_field(header, "aux_channel", dict))
        sub = build_aux_subgraph(joint, aux, n, params)
    else:
        raise ValueError(f"unknown subgraph kind {kind!r}")
    for name, recorded in counts.items():
        if getattr(sub, name).value != recorded:
            raise InvariantViolation(
                f"{name} {recorded} in the export header differs from the "
                f"rebuilt {getattr(sub, name).value}"
            )
    return sub
