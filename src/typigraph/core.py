"""Exact-rational distributions and entropic functionals.

Probability mass is carried as `fractions.Fraction` throughout so that
membership tests, type arithmetic and total-variation comparisons are exact.
Entropic quantities alone are floats: binary logarithm, with the convention
0 * log 0 = 0.

Alphabet labels may be strings, integers, or tuples of those (tuples arise
for product alphabets). Canonical order is the listed order; joint matrices
flatten row-major.

JSON formats: alphabets as label arrays (tuples serialize as arrays),
probabilities as exact "num/den" strings.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat
from operator import add, attrgetter
from typing import Iterable, Sequence as _Seq


class InvariantViolation(RuntimeError):
    """A postcondition that should hold mathematically failed; a bug."""


# ---------------------------------------------------------------------------
# frozen records
# ---------------------------------------------------------------------------


class FrozenInstanceError(AttributeError):
    """An attribute of a record was assigned or deleted."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _arguments(cls, args: tuple, kwargs: dict) -> list:
    """cls's field values for cls(*args, **kwargs), in field order, with
    the TypeError a function of those parameters would raise."""
    names, defaults = cls._fields, cls._defaults
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given"
        )
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
    for name in kwargs:  # left over: given positionally too, or not a field
        problem = "multiple values for" if name in names else "an unexpected keyword"
        raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
    return values


def record(cls):
    """Make cls a frozen value class over its annotated fields, in order.

    A class attribute named like a field is that field's default.
    `__init__` takes the fields positionally or by keyword, then calls
    `__post_init__` if the class defines one (looked up per call, so it can
    be patched). `__eq__` compares the fields with an instance of the same
    class only, `__hash__` hashes their tuple and `__repr__` spells them as
    `Name(field=value, ...)`, all as `dataclasses` does for a frozen class;
    assigning or deleting an attribute raises FrozenInstanceError.
    Instances keep a `__dict__`, so `functools.cached_property` works. The
    methods are closures compiled with this module: decorating generates,
    compiles and executes no code, where `dataclasses` does all three.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    count = len(names)
    has_post = "__post_init__" in cls.__dict__
    fields = attrgetter(*names)
    key = fields if count > 1 else lambda self: (fields(self),)
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _arguments(cls, args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if has_post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        spelled = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({spelled})"

    cls._fields = names
    cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    for method in (__init__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def replace(obj, **changes):
    """A new record like obj with the named fields changed; `__post_init__`
    runs again, as it does under `dataclasses.replace`."""
    values = {name: getattr(obj, name) for name in obj._fields}
    return obj.__class__(**{**values, **changes})


DEFAULT_CAP = 1 << 24
# steps of the joint-type kernel, bounded before it starts (`typicality._DegreeKernel.steps`)
KERNEL_STEP_CAP = 1 << 30


class CapExceeded(RuntimeError):
    """Work estimated before it starts (candidate sequences, pairs to scan,
    Monte Carlo pair tests) is over the cap; nothing has been computed."""


def id_typecode(size: int) -> str:
    """The narrowest unsigned `array` typecode that holds every id in
    [0, size): "B" up to 256 rows, "H" up to 65,536, then "I" and "Q"."""
    return next(code for code in "BHIQ" if size <= 1 << 8 * array(code).itemsize)


def _repeats(lefts: array, rights: array, n_left: int) -> bool:
    """Whether some (left, right) pair of the id columns repeats. The right
    ids are counting-sorted by left id into one array of their width, and
    each left id's run is checked with a set of its own."""
    starts = list(accumulate(map(Counter(lefts).get, range(n_left), repeat(0)), initial=0))
    grouped, fill = array(rights.typecode, bytes(len(rights) * rights.itemsize)), starts[:-1]
    for i, j in zip(lefts, rights):
        grouped[fill[i]] = j
        fill[i] += 1
    return any(len(set(grouped[a:b])) != b - a for a, b in zip(starts, islice(starts, 1, None)))


# ---------------------------------------------------------------------------
# alphabets and distributions
# ---------------------------------------------------------------------------


def _freeze_label(label):
    if isinstance(label, list):
        return tuple(_freeze_label(x) for x in label)
    if isinstance(label, (str, int)):
        return label
    if isinstance(label, tuple):
        return tuple(_freeze_label(x) for x in label)
    raise ValueError(f"unsupported alphabet label {label!r}")


def _thaw_label(label):
    if isinstance(label, tuple):
        return [_thaw_label(x) for x in label]
    return label


@record
class Alphabet:
    """Finite ordered alphabet of distinct labels."""

    symbols: tuple

    def __post_init__(self):
        syms = tuple(_freeze_label(s) for s in self.symbols)
        object.__setattr__(self, "symbols", syms)
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet labels must be distinct")
        if not syms:
            raise ValueError("alphabet must be nonempty")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(syms)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, label) -> int:
        return self._index[_freeze_label(label)]

    def label(self, i: int):
        return self.symbols[i]

    def __iter__(self):
        return iter(self.symbols)


def product_alphabet(a: Alphabet, b: Alphabet) -> Alphabet:
    """Row-major product alphabet with tuple labels (la, lb)."""
    return Alphabet(tuple((la, lb) for la in a.symbols for lb in b.symbols))


def _check_probs(probs: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = tuple(Fraction(p) for p in probs)
    for p in out:
        if p < 0 or p > 1:
            raise ValueError(f"probability {p} outside [0, 1]")
    if sum(out) != 1:
        raise ValueError(f"probabilities sum to {sum(out)}, not 1")
    return out


@record
class Pmf:
    """Probability mass function with exact rational entries."""

    alphabet: Alphabet
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        probs = _check_probs(self.probs)
        if len(probs) != self.alphabet.size:
            raise ValueError("pmf length does not match alphabet size")
        object.__setattr__(self, "probs", probs)


@record
class JointPmf:
    """Joint pmf on a product of two alphabets, row variable first."""

    row_alphabet: Alphabet
    col_alphabet: Alphabet
    probs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(p) for p in row) for row in self.probs)
        if len(rows) != self.row_alphabet.size:
            raise ValueError("row count does not match row alphabet")
        for row in rows:
            if len(row) != self.col_alphabet.size:
                raise ValueError("column count does not match column alphabet")
        flat = [p for row in rows for p in row]
        _check_probs(flat)
        object.__setattr__(self, "probs", rows)

    def cell(self, i: int, j: int) -> Fraction:
        return self.probs[i][j]

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(p for row in self.probs for p in row)

    def row_marginal(self) -> Pmf:
        return Pmf(self.row_alphabet, tuple(sum(row) for row in self.probs))

    def col_marginal(self) -> Pmf:
        k = self.col_alphabet.size
        return Pmf(
            self.col_alphabet,
            tuple(sum(row[j] for row in self.probs) for j in range(k)),
        )

    def transpose(self) -> "JointPmf":
        """The same law with the row and column variables swapped."""
        return JointPmf(self.col_alphabet, self.row_alphabet, tuple(zip(*self.probs)))


@record
class CondPmf:
    """Conditional pmf W(out | given).

    Rows may be None: conditioning on a symbol of probability zero is
    undefined and is carried as an explicit marker, never a fabricated row.
    """

    given_alphabet: Alphabet
    out_alphabet: Alphabet
    rows: tuple  # tuple[Pmf | None, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        if len(rows) != self.given_alphabet.size:
            raise ValueError("row count does not match conditioning alphabet")
        for row in rows:
            if row is None:
                continue
            if not isinstance(row, Pmf) or row.alphabet != self.out_alphabet:
                raise ValueError("conditional rows must be Pmfs on the output alphabet")
        object.__setattr__(self, "rows", rows)

    def defined(self, i: int) -> bool:
        return self.rows[i] is not None


# ---------------------------------------------------------------------------
# entropic functionals (floats, bits)
# ---------------------------------------------------------------------------


def float_sum(xs) -> float:
    """The floats xs added left to right from 0.0, as `sum` adds them before
    Python 3.12, which made `sum` compensate for rounding: so every
    version gives the same bits."""
    return reduce(add, xs, 0.0)


def _plog2p(p: Fraction) -> float:
    if p == 0:
        return 0.0
    return float(p) * math.log2(p)


def entropy(p: Pmf) -> float:
    """Shannon entropy in bits."""
    return -float_sum(map(_plog2p, p.probs))


def joint_entropy(p: JointPmf) -> float:
    return -float_sum(map(_plog2p, p.flat()))


def conditional_entropy(p: JointPmf, given: str = "row") -> float:
    """H(col | row) for given="row", H(row | col) for given="col"."""
    if given == "row":
        return joint_entropy(p) - entropy(p.row_marginal())
    if given == "col":
        return joint_entropy(p) - entropy(p.col_marginal())
    raise ValueError("given must be 'row' or 'col'")


def mutual_information(p: JointPmf) -> float:
    return entropy(p.col_marginal()) - conditional_entropy(p, given="row")


def total_variation(p, q) -> Fraction:
    """L1 distance sum |p - q|, exact; operands must share alphabets."""
    if isinstance(p, Pmf) and isinstance(q, Pmf):
        if p.alphabet != q.alphabet:
            raise ValueError("total_variation: mismatched alphabets")
        return sum(abs(a - b) for a, b in zip(p.probs, q.probs))
    if isinstance(p, JointPmf) and isinstance(q, JointPmf):
        if p.row_alphabet != q.row_alphabet or p.col_alphabet != q.col_alphabet:
            raise ValueError("total_variation: mismatched alphabets")
        return sum(abs(a - b) for a, b in zip(p.flat(), q.flat()))
    raise ValueError("total_variation: operands must both be Pmf or both JointPmf")


def entropy_continuity_bound(eps, alphabet_size: int) -> float:
    """Entropy gap bound -eps*log2(eps/k) for TV distance at most eps <= 1/2."""
    e = Fraction(eps)
    if not 0 < e <= Fraction(1, 2):
        raise ValueError("entropy_continuity_bound requires 0 < eps <= 1/2")
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be positive")
    return -float(e) * math.log2(float(e) / alphabet_size)


def is_product(p: JointPmf) -> bool:
    """Exact test: does p equal the product of its marginals?"""
    pr = p.row_marginal().probs
    pc = p.col_marginal().probs
    return all(
        p.cell(i, j) == pr[i] * pc[j]
        for i in range(len(pr))
        for j in range(len(pc))
    )


# ---------------------------------------------------------------------------
# rational approximation (largest remainder)
# ---------------------------------------------------------------------------


@record
class ApproxResult:
    """A denominator-n rationalization of a distribution."""

    approx: object  # Pmf | JointPmf, matching the input shape
    max_error: Fraction
    support_shrunk: bool


def _largest_remainder(flat: _Seq[Fraction], n: int) -> list[int]:
    scaled = [p * n for p in flat]
    base = [int(s) for s in scaled]  # floor: entries are nonnegative
    fracs = [s - b for s, b in zip(scaled, base)]
    remaining = n - sum(base)
    # ties broken by canonical (flattened) symbol order
    order = sorted(range(len(flat)), key=lambda i: (-fracs[i], i))
    for i in order[:remaining]:
        base[i] += 1
    return base


def rational_approximate(p, n: int) -> ApproxResult:
    """Best denominator-n type for p by the largest-remainder method.

    Counts sum to n exactly, each entry moves by less than 1/n, and the
    support never grows. Zero-probability entries stay zero; positive
    entries may round to zero (support_shrunk).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if isinstance(p, Pmf):
        flat = p.probs
    elif isinstance(p, JointPmf):
        flat = p.flat()
    else:
        raise ValueError("rational_approximate expects a Pmf or JointPmf")
    counts = _largest_remainder(flat, n)
    approx_flat = [Fraction(c, n) for c in counts]
    max_error = max(abs(a - b) for a, b in zip(approx_flat, flat))
    if max_error >= Fraction(1, n):
        raise InvariantViolation("largest-remainder error reached 1/n")
    shrunk = any(a == 0 and b > 0 for a, b in zip(approx_flat, flat))
    if any(a > 0 and b == 0 for a, b in zip(approx_flat, flat)):
        raise InvariantViolation("largest-remainder grew the support")
    if isinstance(p, Pmf):
        approx = Pmf(p.alphabet, tuple(approx_flat))
    else:
        k = p.col_alphabet.size
        rows = tuple(
            tuple(approx_flat[i * k : (i + 1) * k]) for i in range(p.row_alphabet.size)
        )
        approx = JointPmf(p.row_alphabet, p.col_alphabet, rows)
    return ApproxResult(approx=approx, max_error=max_error, support_shrunk=shrunk)


# ---------------------------------------------------------------------------
# marginalization and conditioning
# ---------------------------------------------------------------------------


def marginalize(p: JointPmf, keep: str = "row") -> Pmf:
    if keep == "row":
        return p.row_marginal()
    if keep == "col":
        return p.col_marginal()
    raise ValueError("keep must be 'row' or 'col'")


def conditionalize(p: JointPmf, given: str = "row") -> CondPmf:
    """Exact conditional; zero-probability conditioning rows become None.

    given="col" conditions on the column variable: the rows of p's transpose.
    """
    if given == "col":
        p = p.transpose()
    elif given != "row":
        raise ValueError("given must be 'row' or 'col'")
    rows = tuple(
        None if w == 0 else Pmf(p.col_alphabet, tuple(q / w for q in row))
        for w, row in zip(p.row_marginal().probs, p.probs)
    )
    return CondPmf(p.row_alphabet, p.col_alphabet, rows)


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------


def parse_fraction(value) -> Fraction:
    """Exact parse of "num/den" strings, decimal strings, or ints."""
    if isinstance(value, bool):
        raise ValueError(f"not an exact probability: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"not an exact probability: {value!r}") from None
    raise ValueError(
        f"not an exact probability: {value!r} (use \"num/den\" strings or ints)"
    )


_SPELT = 10**512  # str() spells counts below it: 512 digits, under any limit CPython allows


def _decimal(count: int) -> str:
    """The decimal digits of an exact count, however long. CPython refuses
    int-to-str conversion past its digit limit (4,300 by default), which is
    left in place to keep parses of hostile digit strings short; so a long
    count is split by repeatedly squared powers of 10**512 and only chunks
    below 10**512 go through str()."""
    if count < _SPELT:
        return str(count)
    powers = [_SPELT]  # powers[i] = 10 ** (512 * 2**i)
    while powers[-1] <= count:
        powers.append(powers[-1] * powers[-1])

    def spell(v: int, i: int) -> str:  # v < powers[i], zero-padded to 512 * 2**i digits
        if not i:
            return str(v).zfill(512)
        high, low = divmod(v, powers[i - 1])
        return spell(high, i - 1) + spell(low, i - 1)

    return spell(count, len(powers) - 1).lstrip("0")


def format_fraction(f: Fraction) -> str:
    """str(Fraction(f)), spelt by `_decimal`, so of any length."""
    f = Fraction(f)
    text = _decimal(abs(f.numerator))
    if f.denominator != 1:
        text += "/" + _decimal(f.denominator)
    return "-" + text if f < 0 else text


def pmf_to_dict(p: Pmf) -> dict:
    return {
        "type": "pmf",
        "alphabet": [_thaw_label(s) for s in p.alphabet.symbols],
        "probs": [format_fraction(q) for q in p.probs],
    }


def joint_to_dict(p: JointPmf) -> dict:
    return {
        "type": "joint_pmf",
        "row_alphabet": [_thaw_label(s) for s in p.row_alphabet.symbols],
        "col_alphabet": [_thaw_label(s) for s in p.col_alphabet.symbols],
        "probs": [[format_fraction(q) for q in row] for row in p.probs],
    }


def cond_to_dict(w: CondPmf) -> dict:
    return {
        "type": "cond_pmf",
        "given_alphabet": [_thaw_label(s) for s in w.given_alphabet.symbols],
        "out_alphabet": [_thaw_label(s) for s in w.out_alphabet.symbols],
        "rows": [
            None if row is None else [format_fraction(q) for q in row.probs]
            for row in w.rows
        ],
    }


def _key(doc: dict, key: str):
    """doc[key]; ValueError naming the key when doc has none."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"missing key {key!r}")
    return doc[key]


def _list(value, key: str) -> list:
    """value, read under key, when it is a list; ValueError otherwise."""
    if not isinstance(value, list):
        raise ValueError(f"{key!r} should be a list, found {value!r}")
    return value


def pmf_from_dict(doc: dict) -> Pmf:
    alphabet = Alphabet(tuple(_list(_key(doc, "alphabet"), "alphabet")))
    return Pmf(alphabet, tuple(parse_fraction(v) for v in _list(_key(doc, "probs"), "probs")))


def joint_from_dict(doc: dict) -> JointPmf:
    rows = Alphabet(tuple(_list(_key(doc, "row_alphabet"), "row_alphabet")))
    cols = Alphabet(tuple(_list(_key(doc, "col_alphabet"), "col_alphabet")))
    probs = tuple(
        tuple(parse_fraction(v) for v in _list(row, "probs"))
        for row in _list(_key(doc, "probs"), "probs")
    )
    return JointPmf(rows, cols, probs)


def _cond_rows(doc: dict, key: str, out: Alphabet) -> tuple:
    """The channel rows listed under doc[key], each a list of fractions
    over out, or null where the conditioning symbol has no mass."""
    return tuple(
        None if row is None else Pmf(out, tuple(parse_fraction(v) for v in _list(row, key)))
        for row in _list(_key(doc, key), key)
    )


def cond_from_dict(doc: dict) -> CondPmf:
    given = Alphabet(tuple(_list(_key(doc, "given_alphabet"), "given_alphabet")))
    out = Alphabet(tuple(_list(_key(doc, "out_alphabet"), "out_alphabet")))
    return CondPmf(given, out, _cond_rows(doc, "rows", out))


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _load_json(path: str):
    """The JSON document at path, every JSON input's one reader; ValueError
    naming the first key that an object repeats."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def load_distribution(path: str):
    """Load a Pmf, JointPmf, or CondPmf from a JSON document."""
    doc = _load_json(path)
    kind = doc.get("type") if isinstance(doc, dict) else None
    if kind == "pmf":
        return pmf_from_dict(doc)
    if kind == "joint_pmf":
        return joint_from_dict(doc)
    if kind == "cond_pmf":
        return cond_from_dict(doc)
    raise ValueError(f"unknown distribution type {kind!r} in {path}")


def save_distribution(obj, path: str) -> None:
    if isinstance(obj, Pmf):
        doc = pmf_to_dict(obj)
    elif isinstance(obj, JointPmf):
        doc = joint_to_dict(obj)
    elif isinstance(obj, CondPmf):
        doc = cond_to_dict(obj)
    else:
        raise ValueError("save_distribution expects a Pmf, JointPmf, or CondPmf")
    _write_json(path, doc)


def _write_json(path: str, doc: dict) -> None:
    """doc as indented JSON with sorted keys and a final newline: every
    JSON file the package writes is spelled so."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
