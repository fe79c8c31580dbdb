"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals,
``int`` residues in ``[0, p)`` over a prime field.  Both are canonical, so
equality of scalars is plain ``==``.  ``normalize`` accepts ints and
Fractions only; a float is rejected rather than read as its binary expansion.

Each field also has an integer view for exact kernels that work on ints:
``modulus`` (0 over the rationals, p over F_p), ``to_ints`` (scalars as
integers over one common denominator) and ``from_int`` (back to a scalar).
"""
from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import lcm

# The largest decimal exponent a rational scalar may have: Python's default
# limit on the digits it reads from an integer string.  Past it the number
# is refused before it is built (10**999999999 alone takes hours).
_MAX_EXPONENT = sys.int_info.default_max_str_digits
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")

# ``_is_prime`` is exact below _MAX_PRIME: the least strong pseudoprime to
# all of the thirteen prime bases 2..41.  (The twelve bases 2..37 have one
# at 318665857834031151167461.)
_MAX_PRIME = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class FieldError(ValueError):
    pass


class NonCanonicalScalar(FieldError):
    """Raised by ``to_ints`` for a value that is not a canonical scalar of
    the field; ``index`` is its position in the values given."""

    def __init__(self, field: "Field", index: int, value):
        super().__init__(f"not a canonical scalar of {field!r}: {value!r}")
        self.index = index


def _is_prime(n: int) -> bool:
    """Whether n < _MAX_PRIME is prime (deterministic Miller-Rabin)."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digits(n: int) -> str:
    """``str(n)`` for an int of any size: ``str`` refuses one of more than
    ``sys.get_int_max_str_digits()`` digits, ``Decimal`` does not."""
    return f"{Decimal(n):f}"


class Field:
    """Common interface of the two scalar fields."""

    modulus: int  # integers are reduced mod this when it is nonzero

    def normalize(self, x):
        raise NotImplementedError

    def to_ints(self, values) -> tuple[list, int]:
        """(ns, d) with each value equal to ns[k] / d; d is 1 over F_p.
        Raises NonCanonicalScalar at the first value that is not canonical:
        over Q anything but an int or a Fraction, over F_p anything but an
        int in [0, p)."""
        raise NotImplementedError

    def from_int(self, n: int, d: int):
        """The scalar n / d."""
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, x) -> str:
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    @property
    def zero(self):
        return self.normalize(0)

    @property
    def one(self):
        return self.normalize(1)

    def spec(self) -> str:
        raise NotImplementedError


class RationalField(Field):
    modulus = 0

    def normalize(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise FieldError(f"not a rational scalar: {x!r}")

    def to_ints(self, values):
        values = list(values)
        for k, v in enumerate(values):
            if type(v) is not Fraction and type(v) is not int:
                raise NonCanonicalScalar(self, k, v)
        d = lcm(*(v.denominator for v in values))
        return [v.numerator * (d // v.denominator) for v in values], d

    def from_int(self, n, d):
        return Fraction(n, d)

    def parse(self, text: str):
        text = text.strip()
        try:
            if "/" in text:
                num, _, den = text.partition("/")
                return Fraction(int(num), int(den))
            exponent = _EXPONENT.search(text)
            if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
                raise ValueError(f"its exponent is beyond {_MAX_EXPONENT} in magnitude")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational scalar {text!r}: {exc}") from None

    def format(self, x) -> str:
        x = Fraction(x)
        try:
            return str(x)
        except ValueError:  # more digits than str() of an int allows
            if x.denominator == 1:
                return _digits(x.numerator)
            return f"{_digits(x.numerator)}/{_digits(x.denominator)}"

    def inv(self, x):
        if x == 0:
            raise FieldError("division by zero")
        return 1 / Fraction(x)

    def spec(self) -> str:
        return "rational"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= _MAX_PRIME:
            raise FieldError(f"modulus {p} is too large: a prime field needs p < {_MAX_PRIME}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = self.modulus = p

    def normalize(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError(f"{x} has no residue mod {self.p}")
            return x.numerator * self.inv(x.denominator) % self.p
        if isinstance(x, int):
            return int(x) % self.p
        raise FieldError(f"not a scalar mod {self.p}: {x!r}")

    def to_ints(self, values):
        values = list(values)
        p = self.p
        for k, v in enumerate(values):
            if type(v) is not int or not 0 <= v < p:
                raise NonCanonicalScalar(self, k, v)
        return values, 1

    def from_int(self, n, d):
        return n % self.p if d == 1 else n * self.inv(d) % self.p

    def parse(self, text: str):
        text = text.strip()
        # Accept a/b and reduce it; the canonical form is a plain residue.
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                n, d = int(num), int(den)
            except ValueError:
                raise FieldError(f"bad scalar {text!r}") from None
            if d % self.p == 0:
                raise FieldError(f"bad scalar {text!r}: denominator not invertible mod {self.p}")
            return self.normalize(n * self.inv(d % self.p))
        try:
            return self.normalize(int(text))
        except ValueError:
            raise FieldError(f"bad scalar {text!r}") from None

    def format(self, x) -> str:
        return str(x % self.p)

    def inv(self, x):
        x = x % self.p
        if x == 0:
            raise FieldError("division by zero")
        return pow(x, self.p - 2, self.p)

    def spec(self) -> str:
        return f"prime:{self.p}"

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_spec(spec: str) -> Field:
    """Parse a field spec string: ``rational`` or ``prime:P``."""
    if not isinstance(spec, str):
        raise FieldError(f"bad field spec {spec!r}")
    spec = spec.strip()
    if spec == "rational":
        return QQ
    if spec.startswith("prime:"):
        try:
            p = int(spec.split(":", 1)[1])
        except ValueError:
            raise FieldError(f"bad field spec {spec!r}") from None
        return GF(p)
    raise FieldError(f"bad field spec {spec!r}")
