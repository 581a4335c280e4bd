"""Affine index expressions over named iteration dimensions.

Operators in the workload IR describe how each tensor dimension is indexed
as a linear combination of iteration dimensions plus a constant, e.g. the
first dimension of a convolution input is ``h + r`` (output row plus filter
row).  :class:`AffineExpr` is an immutable value type supporting the small
amount of arithmetic the analysis needs: addition, scaling, evaluation at a
point, and extent computation over a box of iteration values.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple


class AffineExpr:
    """An immutable linear expression ``sum(coeff_d * d) + const``.

    Instances are hashable and comparable by value.  Construct them with the
    :func:`dim` and :func:`const` helpers or by arithmetic on existing
    expressions::

        h, r = dim("h"), dim("r")
        row = h + r            # conv input row index
        col = 2 * dim("w")     # strided access
    """

    __slots__ = ("_terms", "_const", "_hash")

    def __init__(self, terms: Mapping[str, int] = (), const: int = 0):
        cleaned = {d: int(c) for d, c in dict(terms).items() if int(c) != 0}
        self._terms: Tuple[Tuple[str, int], ...] = tuple(sorted(cleaned.items()))
        self._const = int(const)
        self._hash = hash((self._terms, self._const))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def terms(self) -> Dict[str, int]:
        """Mapping of dimension name to coefficient (non-zero entries only)."""
        return dict(self._terms)

    @property
    def const(self) -> int:
        """The constant offset of the expression."""
        return self._const

    @property
    def dims(self) -> Tuple[str, ...]:
        """Names of the dimensions with non-zero coefficient, sorted."""
        return tuple(d for d, _ in self._terms)

    def coeff(self, name: str) -> int:
        """Coefficient of dimension ``name`` (0 if absent)."""
        for d, c in self._terms:
            if d == name:
                return c
        return 0

    def is_constant(self) -> bool:
        return not self._terms

    def is_single_dim(self) -> bool:
        """True when the expression is exactly ``1 * d + 0`` for some dim."""
        return len(self._terms) == 1 and self._terms[0][1] == 1 and self._const == 0

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "AffineExpr | int") -> "AffineExpr":
        if isinstance(other, int):
            return AffineExpr(dict(self._terms), self._const + other)
        if isinstance(other, AffineExpr):
            merged = dict(self._terms)
            for d, c in other._terms:
                merged[d] = merged.get(d, 0) + c
            return AffineExpr(merged, self._const + other._const)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: "AffineExpr | int") -> "AffineExpr":
        if isinstance(other, int):
            return self + (-other)
        if isinstance(other, AffineExpr):
            return self + (other * -1)
        return NotImplemented

    def __mul__(self, factor: int) -> "AffineExpr":
        if not isinstance(factor, int):
            return NotImplemented
        return AffineExpr({d: c * factor for d, c in self._terms},
                          self._const * factor)

    __rmul__ = __mul__

    def __neg__(self) -> "AffineExpr":
        return self * -1

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, point: Mapping[str, int]) -> int:
        """Value of the expression at a concrete iteration point.

        Dimensions missing from ``point`` are treated as zero, which matches
        the analysis convention of anchoring slices at the loop origin.
        """
        value = self._const
        for d, c in self._terms:
            value += c * point.get(d, 0)
        return value

    def extent_over(self, extents: Mapping[str, int]) -> int:
        """Extent of the expression's value range over a box of iterations.

        ``extents`` maps each dimension to the number of values it takes
        (``d`` in ``[0, extents[d])``); missing dims contribute a single
        value.  The result is ``max - min + 1`` of the expression over the
        box, i.e. the length of the covered tensor-index interval assuming
        density (true for the stride patterns used by DNN operators).
        """
        span = 0
        for d, c in self._terms:
            n = extents.get(d, 1)
            if n > 1:  # dims spanning one value (or none) add nothing
                span += abs(c) * (int(n) - 1)
        return span + 1

    def displacement(self, steps: Mapping[str, int]) -> int:
        """Shift of the expression's value when dims move by ``steps``."""
        shift = 0
        for d, c in self._terms:
            shift += c * steps.get(d, 0)
        return shift

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AffineExpr)
                and self._terms == other._terms
                and self._const == other._const)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for d, c in self._terms:
            if c == 1:
                parts.append(d)
            else:
                parts.append(f"{c}*{d}")
        if self._const or not parts:
            parts.append(str(self._const))
        return " + ".join(parts)


def dim(name: str) -> AffineExpr:
    """Expression consisting of a single dimension with coefficient 1."""
    return AffineExpr({name: 1})


def const(value: int) -> AffineExpr:
    """A constant expression."""
    return AffineExpr({}, value)


def exprs(*names: str) -> Tuple[AffineExpr, ...]:
    """Tuple of single-dim expressions — convenient for plain accesses."""
    return tuple(dim(n) for n in names)


def union_dims(expressions: Iterable[AffineExpr]) -> Tuple[str, ...]:
    """Sorted union of the dims referenced by ``expressions``."""
    seen = set()
    for e in expressions:
        seen.update(e.dims)
    return tuple(sorted(seen))
