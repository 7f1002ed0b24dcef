from fractions import Fraction

import pytest
from hypothesis import settings

from typigraph.core import Alphabet, CondPmf, JointPmf, Pmf, product_alphabet

BIN = Alphabet((0, 1))

# The one profile of the property tests; each property test file applies it
# with settings.get_profile("typigraph").
settings.register_profile("typigraph", max_examples=100, deadline=None, derandomize=True)


@pytest.fixture
def binary_joint():
    """The running example: diagonal-heavy binary joint, I(X;Y) ~ 0.278."""
    return JointPmf(
        BIN,
        BIN,
        (
            (Fraction(2, 5), Fraction(1, 10)),
            (Fraction(1, 10), Fraction(2, 5)),
        ),
    )


@pytest.fixture
def lopsided_joint():
    """A binary joint with no symmetry: neither its transpose nor a letter
    swap keeps its kernels' boxes, so each side gets a kernel of its own."""
    return JointPmf(
        BIN,
        BIN,
        (
            (Fraction(1, 2), Fraction(1, 5)),
            (Fraction(1, 10), Fraction(1, 5)),
        ),
    )


@pytest.fixture(scope="session")
def diagonal_joint():
    """D_k as a function of k: the k x k joint with 3/(4k) on the diagonal
    and 1/(4k(k-1)) off it."""

    def make(k):
        a = Alphabet(tuple(range(k)))
        return JointPmf(a, a, tuple(
            tuple(Fraction(3, 4 * k) if i == j else Fraction(1, 4 * k * (k - 1)) for j in range(k))
            for i in range(k)
        ))

    return make


@pytest.fixture
def asym_pmf():
    return Pmf(BIN, (Fraction(3, 4), Fraction(1, 4)))


@pytest.fixture
def copy_channel(binary_joint):
    """U = X as a channel conditioned on the (x, y) pair alphabet."""
    pairs = product_alphabet(binary_joint.row_alphabet, binary_joint.col_alphabet)
    rows = tuple(
        Pmf(BIN, (Fraction(1) if a == 0 else Fraction(0), Fraction(1) if a == 1 else Fraction(0)))
        for (a, b) in pairs.symbols
    )
    return CondPmf(pairs, BIN, rows)


@pytest.fixture
def const_channel(binary_joint):
    """U constant: one-letter auxiliary alphabet."""
    pairs = product_alphabet(binary_joint.row_alphabet, binary_joint.col_alphabet)
    u = Alphabet(("u",))
    return CondPmf(pairs, u, tuple(Pmf(u, (Fraction(1),)) for _ in pairs.symbols))
