"""Exact scalars, sparse linear combinations, tensors and the antipode
recursion shared by the cut and attachment Hopf algebras (the word and
branch-shuffle antipodes have closed forms).

Every algebraic object in this package is a finite formal sum of canonical
basis elements (trees, forests, words, tensors, ...) with exact rational
coefficients: an ``int`` until a division happens, a ``fractions.Fraction``
after one.  Floats are rejected.  Basis elements are
immutable hashable values exposing ``sort_key() -> tuple`` (degree first,
then a canonical structural encoding) so every printed expansion comes out
in a reproducible canonical order.  Maps written on basis elements are
extended to combinations by ``linear_map`` and ``bilinear_map`` alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from typing import Any, Callable, Iterable, Iterator, Mapping

# an exact rational: an int, or a Fraction once a division has produced it
Scalar = int | Fraction


class ParseError(ValueError):
    """Syntax error in an input expression, with the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def _read_positive(s: str, pos: int, what: str, base: int = 0) -> tuple[int, int]:
    """The positive integer in ASCII digits at s[pos] and the position after
    it, for all three text grammars; no digits, too many for int() and 0 are
    ParseErrors at base + pos, the last "<what> must be positive"."""
    start = pos
    while pos < len(s) and s[pos] in "0123456789":
        pos += 1
    if start == pos:
        raise ParseError("expected digits", base + pos)
    try:
        value = int(s[start:pos])
    except ValueError:
        raise ParseError("too many digits", base + start) from None
    if value < 1:
        raise ParseError(f"{what} must be positive", base + start)
    return value, pos


def as_fraction(c: Scalar) -> Scalar:
    """c itself if it is an exact rational (an int or a Fraction; a bool
    becomes its int); a float or any other type raises TypeError."""
    if type(c) is int or isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


class LinComb:
    """A finite formal sum of basis elements with nonzero exact coefficients.

    A coefficient is an int, or a Fraction where a division produced it;
    floats are rejected.  Instances are treated as immutable: all arithmetic
    returns fresh objects and zero coefficients are dropped on construction.
    ``a + b`` copies ``a``, so a sum of many parts is built with
    ``LinComb.sum(parts)`` (or ``LinComb(terms)`` for basis-level terms),
    which fills one dict in place.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple[Any, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = {}
        _accumulate(self._terms, _exact_terms(items))

    @classmethod
    def term(cls, basis: Any, coeff: Scalar = 1) -> "LinComb":
        c = coeff if type(coeff) is int else as_fraction(coeff)
        return _wrap({basis: c} if c else {})

    @classmethod
    def zero(cls) -> "LinComb":
        return _wrap({})

    @classmethod
    def lift(cls, x: Any) -> "LinComb":
        """x itself if it is a LinComb, else the basis element x as one term."""
        return x if isinstance(x, LinComb) else cls.term(x)

    @classmethod
    def sum(cls, parts: Iterable["LinComb | tuple[LinComb, Scalar]"]) -> "LinComb":
        """The sum of the parts, each a LinComb or a (LinComb, coeff) pair
        standing for coeff times it; built in one dict, in one pass."""
        data: dict[Any, Scalar] = {}
        for part in parts:
            if isinstance(part, LinComb):
                _accumulate(data, part._terms.items())
            else:
                x, coeff = part
                c = coeff if type(coeff) is int else as_fraction(coeff)
                if c:
                    _accumulate(data, x._terms.items(), c)
        return _wrap(data)

    def items(self):
        return self._terms.items()

    def sorted_items(self) -> list[tuple[Any, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coeff(self, basis: Any) -> Scalar:
        return self._terms.get(basis, 0)

    def support(self) -> list[Any]:
        return [b for b, _ in self.sorted_items()]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        raise TypeError("LinComb is not hashable")

    def __add__(self, other: "LinComb") -> "LinComb":
        if not other:
            return self
        data = dict(self._terms)
        _accumulate(data, other._terms.items())
        return _wrap(data)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-1) * other

    def __neg__(self) -> "LinComb":
        return (-1) * self

    def scale(self, coeff: Scalar) -> "LinComb":
        c = coeff if type(coeff) is int else as_fraction(coeff)
        return _wrap({b: c * v for b, v in self._terms.items()} if c else {})

    def __mul__(self, coeff: Scalar) -> "LinComb":
        return self.scale(coeff)

    __rmul__ = __mul__

    def combine(self, other: "LinComb", scale: Scalar = 1) -> "LinComb":
        """self + scale * other, in one pass."""
        return self + other.scale(scale)

    def map_basis(self, f: Callable[[Any], Any]) -> "LinComb":
        """Linear extension of f; f may return a basis element or a LinComb."""
        data: dict[Any, Scalar] = {}
        for b, c in self._terms.items():
            _add_image(data, f(b), c)
        return _wrap(data)

    def bilinear(self, other: "LinComb", f: Callable[[Any, Any], Any]) -> "LinComb":
        """Bilinear extension of f over pairs of basis elements."""
        data: dict[Any, Scalar] = {}
        for b1, c1 in self._terms.items():
            for b2, c2 in other._terms.items():
                _add_image(data, f(b1, b2), c1 * c2)
        return _wrap(data)

    def functional(self, f: Callable[[Any], Scalar]) -> Scalar:
        """Linear extension of a scalar-valued functional."""
        total = 0
        for b, c in self._terms.items():
            total += c * as_fraction(f(b))
        return total

    def graded_part(self, degree_of: Callable[[Any], int], max_degree: int) -> "LinComb":
        return _wrap({b: c for b, c in self._terms.items() if degree_of(b) <= max_degree})

    def format(self, fmt: Callable[[Any], str] = str) -> str:
        """The terms as ``c*b`` in basis order, joined by `` + ``; ``0`` if none."""
        if not self._terms:
            return "0"
        return " + ".join([f"{c}*{fmt(b)}" for b, c in self.sorted_items()])

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"LinComb({self.format()})"


def _wrap(data: dict) -> LinComb:
    """A LinComb owning data, whose coefficients must be nonzero exact scalars."""
    out = LinComb.__new__(LinComb)
    out._terms = data
    return out


def _exact_terms(items: Iterable[tuple[Any, Scalar]]) -> Iterator[tuple[Any, Scalar]]:
    for basis, c in items:
        if type(c) is not int:
            c = as_fraction(c)
        if c:
            yield basis, c


def _add_image(data: dict, image: Any, scale: Scalar) -> None:
    """Add scale times a map's value on a basis element (a LinComb, or a
    basis element standing for itself) into data."""
    if isinstance(image, LinComb):
        _accumulate(data, image._terms.items(), scale)
    else:
        _accumulate(data, ((image, scale),))


def _accumulate(data: dict, terms: Iterable[tuple[Any, Scalar]], scale: Scalar = 1) -> None:
    """Add scale * c at each (basis, c) of terms into data, in place.

    The coefficients of terms and scale must be nonzero exact scalars; a basis
    element whose coefficient cancels is removed, so data stays a valid
    LinComb body.
    """
    get = data.get
    scaled = scale != 1
    for b, c in terms:
        if scaled:
            c = scale * c
        old = get(b)
        if old is None:
            data[b] = c
        else:
            acc = old + c
            if acc:
                data[b] = acc
            else:
                del data[b]


def linear_map(f: Callable[..., Any]) -> Callable[..., LinComb]:
    """The linear extension of f, a map on basis elements: a LinComb goes
    through map_basis(f), a basis element b to LinComb.lift(f(b)), f's own
    LinComb and not a copy.  Arguments after the first are passed on to f.
    Decorate a def of the public name in its own module: the extension
    keeps f's name and module."""

    @wraps(f)
    def extended(x, *args, **kwargs):
        if not isinstance(x, LinComb):
            return LinComb.lift(f(x, *args, **kwargs))
        return x.map_basis((lambda b: f(b, *args, **kwargs)) if args or kwargs else f)

    return extended


def bilinear_map(f: Callable[..., Any]) -> Callable[..., LinComb]:
    """The bilinear extension of f, a map on pairs of basis elements: both
    factors lifted, through LinComb.bilinear.  Arguments after the first
    two are passed on to f.  Decorated as linear_map is."""

    @wraps(f)
    def extended(x, y, *args, **kwargs):
        g = (lambda a, b: f(a, b, *args, **kwargs)) if args or kwargs else f
        return LinComb.lift(x).bilinear(LinComb.lift(y), g)

    return extended


class Tensor:
    """An elementary tensor of basis elements, printed ``a (x) b``."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Iterable[Any]):
        self.parts = tuple(parts)
        self._hash = hash(("Tensor", self.parts))

    def sort_key(self) -> tuple:
        return tuple(p.sort_key() for p in self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tensor) and self.parts == other.parts

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return " (x) ".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"Tensor({', '.join(repr(p) for p in self.parts)})"


def lincomb_tensor(*factors: LinComb) -> LinComb:
    """Tensor product of linear combinations, as a LinComb over Tensor."""
    total = LinComb.term(Tensor(()))
    for factor in factors:
        total = total.bilinear(factor, lambda t, b: Tensor(t.parts + (b,)))
    return total


def recursive_antipode(b: Any, coproduct: Callable[[Any], LinComb],
                       product: Callable[[LinComb, Any], LinComb],
                       antipode: Callable[[Any], LinComb], unit: Any) -> LinComb:
    """S(b) = -sum c S(b') b'' over the terms c b' (x) b'' of coproduct(b)
    with b'' != unit: the antipode law S * id = 0 solved for S(b), b != unit.

    The term 1 (x) b contributes -b; antipode is called on the left factors,
    which have lower degree in a connected graded bialgebra, and must give
    the unit on the unit.
    """
    return LinComb.sum((product(antipode(left), right), -c)
                       for t, c in coproduct(b).items()
                       for left, right in (t.parts,) if right != unit)

