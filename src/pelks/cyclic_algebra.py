"""Cyclic algebras over a nonarchimedean local field, as explicit data.

The algebra is B = (E/F, tau, pi) with F = GF(q)[[pi]], E = GF(q^n)[[pi]]
unramified of degree n, tau the lift of the residue automorphism
x -> x^(q^f) with gcd(f, n) = 1, and a generator u satisfying

    u^n = pi,        u x = tau(x) u   for x in E.

Elements are kept in cyclic coordinates (x_0, ..., x_{n-1}), meaning
sum x_i u^i with each x_i an exact monomial of E.  Products of elements
with one nonzero coordinate each, such as the basis zeta^a u^i of the
maximal order, stay in that class; other sums raise NonMonomial.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .algebra import MAX_FIELD_SIZE, RingMatrix, finite_field, prime_power, smith_normal_form


@dataclass(frozen=True)
class CyclicAlgebraDescriptor:
    """Local data (n, q, f, s) determining B = (E/F, tau, pi)."""

    n: int
    residue_size: int
    frobenius_power: int = 1
    conjugation_power: int = 0
    split: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree n must be positive")
        if self.residue_size > MAX_FIELD_SIZE:  # before factoring q, which trial-divides up to sqrt(q)
            raise ValueError(f"residue size {self.residue_size} exceeds the field cap {MAX_FIELD_SIZE}")
        prime_power(self.residue_size)  # validates q
        if gcd(self.frobenius_power, self.n) != 1:
            raise ValueError(
                f"frobenius power f={self.frobenius_power} must be prime to n={self.n}"
            )
        if (2 * self.conjugation_power) % self.n:
            raise ValueError(
                f"conjugation power s={self.conjugation_power} needs 2s = 0 mod n"
            )
        if self.split and self.n > 1:
            raise ValueError("split places reduce to n = 1; build the reduced descriptor")

    @property
    def is_division(self):
        """B is a division algebra: a nonsplit place with n > 1."""
        return not self.split and self.n > 1

    @cached_property
    def field(self):
        """Residue field GF(q^n) of E."""
        return finite_field(self.residue_size, self.n)

    @cached_property
    def _plog(self):
        # q = p^plog, so x -> x^q is frobenius(plog) at the prime level
        return prime_power(self.residue_size)[1]

    def tau(self, x, power=1):
        """Apply tau^power to an element of E."""
        e = (self._plog * self.frobenius_power * power) % (self._plog * self.n)
        return x.frobenius(e) if e else x


class CyclicAlgebraElement:
    """An element sum x_i u^i of a cyclic algebra, x_i in E."""

    __slots__ = ("descriptor", "coeffs")

    def __init__(self, descriptor, coeffs):
        self.descriptor = descriptor
        self.coeffs = tuple(coeffs)

    def __mul__(self, other):
        """Product using u^n = pi and u x = tau(x) u.

        (x_i u^i)(y_j u^j) = x_i tau^i(y_j) u^(i+j), and u^(i+j) folds
        to pi^((i+j) div n) u^((i+j) mod n).
        """
        d = self.descriptor
        n = d.n
        out = [d.field.zero] * n
        for i, xi in enumerate(self.coeffs):
            if not xi:
                continue
            for j, yj in enumerate(other.coeffs):
                if not yj:
                    continue
                k, wrap = (i + j) % n, (i + j) // n
                term = xi * d.tau(yj, i)
                if wrap:
                    term = term.shift(wrap)
                out[k] = out[k] + term
        return CyclicAlgebraElement(d, out)

    def reduced_trace(self):
        """Reduced trace Tr_{E/F}(x_0), as an element of E."""
        d = self.descriptor
        t = d.field.zero
        for r in range(d.n):
            t = t + d.tau(self.coeffs[0], r)
        return t

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"({c})" + ("" if i == 0 else f"*u^{i}" if i > 1 else "*u"))
        return " + ".join(parts) if parts else "0"


def discriminant_report(descriptor):
    """Discriminant data of B from its reduced trace Gram matrix, as
    (computed, expected).

    The maximal order has O_F-basis {zeta^a u^i} with zeta a residue
    generator.  The Gram matrix of the reduced trace pairing on that
    basis is block antidiagonal in i + j mod n: the (i, j) = (0, 0)
    block is the unit trace form of the residue extension, and each of
    the n - 1 blocks with i + j = n picks up one factor pi per row,
    giving valuation n per block and n(n-1) in total.

    Computed: the Gram exponent (the sum of the Smith exponents) is the
    discriminant exponent, and the image-ideal multiplier n_v is 1
    exactly when it is positive (the place ramifies).  Expected: the
    closed form n(n-1) and multiplier 1 for a division algebra, 0 and 0
    when split.
    """
    d = descriptor
    n = d.n
    field = d.field
    zeta = field.generator
    basis = []
    for i in range(n):
        for a in range(n):
            coeffs = [field.zero] * n
            coeffs[i] = zeta**a
            basis.append(CyclicAlgebraElement(d, coeffs))
    gram = RingMatrix(
        field,
        [[(x * y).reduced_trace() for y in basis] for x in basis],
    )
    gram_exponent = int(sum(smith_normal_form(gram)[1]))
    closed = n * (n - 1) if d.is_division else 0
    computed = {
        "disc_exponent": gram_exponent,
        "gram_exponent": gram_exponent,
        "multiplier": int(gram_exponent > 0),
    }
    expected = {
        "disc_exponent": closed,
        "gram_exponent": closed,
        "multiplier": int(d.is_division),
    }
    return computed, expected
