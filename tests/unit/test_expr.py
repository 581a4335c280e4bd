"""Unit tests for affine index expressions."""

import pytest

from repro.ir import AffineExpr, const, dim, exprs, union_dims


class TestConstruction:
    def test_dim_helper(self):
        e = dim("i")
        assert e.terms == {"i": 1}
        assert e.const == 0

    def test_const_helper(self):
        assert const(5).const == 5
        assert const(5).terms == {}

    def test_zero_coefficients_dropped(self):
        e = AffineExpr({"i": 0, "j": 2})
        assert e.terms == {"j": 2}
        assert e.dims == ("j",)

    def test_exprs_helper(self):
        es = exprs("a", "b")
        assert len(es) == 2
        assert es[0] == dim("a")


class TestArithmetic:
    def test_add_dims(self):
        e = dim("i") + dim("j")
        assert e.terms == {"i": 1, "j": 1}

    def test_add_same_dim(self):
        e = dim("i") + dim("i")
        assert e.terms == {"i": 2}

    def test_add_int(self):
        assert (dim("i") + 3).const == 3
        assert (3 + dim("i")).const == 3

    def test_sub(self):
        e = dim("i") - dim("j") - 1
        assert e.terms == {"i": 1, "j": -1}
        assert e.const == -1

    def test_sub_cancels(self):
        assert (dim("i") - dim("i")).is_constant()

    def test_scale(self):
        e = 3 * dim("i")
        assert e.coeff("i") == 3
        assert (e * 0).is_constant()

    def test_neg(self):
        assert (-dim("i")).coeff("i") == -1


class TestEvaluation:
    def test_evaluate_point(self):
        e = 2 * dim("i") + dim("j") + 1
        assert e.evaluate({"i": 3, "j": 4}) == 11

    def test_evaluate_missing_dim_is_zero(self):
        assert dim("i").evaluate({}) == 0

    def test_extent_single_dim(self):
        assert dim("i").extent_over({"i": 10}) == 10

    def test_extent_window(self):
        # conv access h + r over h in [0,4), r in [0,3): values 0..5
        e = dim("h") + dim("r")
        assert e.extent_over({"h": 4, "r": 3}) == 6

    def test_extent_strided(self):
        e = 2 * dim("i")
        assert e.extent_over({"i": 4}) == 7  # 0,2,4,6 -> span 6 + 1

    def test_extent_missing_dim(self):
        assert dim("i").extent_over({}) == 1

    def test_extent_clamps_empty_dims(self):
        e = 3 * dim("i") + dim("j")
        assert e.extent_over({"i": 0, "j": 4}) == 4
        assert e.extent_over({"i": -2, "j": 1}) == 1

    def test_displacement(self):
        e = dim("i") + 2 * dim("j")
        assert e.displacement({"i": 3}) == 3
        assert e.displacement({"j": 3}) == 6
        assert e.displacement({"k": 5}) == 0


class TestValueSemantics:
    def test_equality(self):
        assert dim("i") + 1 == AffineExpr({"i": 1}, 1)

    def test_hashable(self):
        assert len({dim("i"), dim("i"), dim("j")}) == 2

    def test_is_single_dim(self):
        assert dim("i").is_single_dim()
        assert not (2 * dim("i")).is_single_dim()
        assert not (dim("i") + 1).is_single_dim()

    def test_union_dims(self):
        assert union_dims([dim("b") + dim("a"), dim("c")]) == \
            ("a", "b", "c")

    def test_repr_readable(self):
        assert "i" in repr(dim("i") + 2 * dim("j"))
