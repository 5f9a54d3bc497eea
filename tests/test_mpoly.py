"""The sparse integer polynomial ring Z[c_1, c_2, ...]."""

import pytest

from coxsums.mpoly import MPoly

c1, c2, c3, c4 = (MPoly.variable(i) for i in range(1, 5))


class TestArithmetic:
    def test_variables_and_trailing_zeros(self):
        assert c1.terms == {(1,): 1}
        assert c3.terms == {(0, 0, 1): 1}
        assert (c1 * c3).terms == {(1, 0, 1): 1}
        assert (c1 * c3 - c3 * c1) == MPoly()
        assert (c4 * c1 + c1**2).terms == {(1, 0, 0, 1): 1, (2,): 1}

    def test_ring_laws(self):
        assert (c1 + c2) ** 2 == c1**2 + 2 * c1 * c2 + c2**2
        assert (c1 - c2) * (c1 + c2) == c1 * c1 - c2 * c2
        assert c2 * 3 == 3 * c2 == c2 + c2 + c2
        assert -(c1 - 2) == -c1 + 2

    def test_int_minus_poly(self):
        # P_1 = 2 - alpha - beta + s, with c1, c2, c3 for alpha, beta, s.
        assert (2 - c1 - c2 + c3).terms == {(): 2, (1,): -1, (0, 1): -1, (0, 0, 1): 1}
        assert 0 - c4 == -c4
        assert not (5 - MPoly({(): 5}))
        with pytest.raises(TypeError):
            0.5 - c1

    def test_sum_starts_from_int_zero(self):
        assert sum([c1, c2, -c1]) == c2
        assert sum([], MPoly()) == MPoly()
        assert not (0 + MPoly())

    def test_power_zero_is_one(self):
        assert c3**0 == MPoly({(): 1})
        assert (c1 + c2) ** 0 * c4 == c4

    def test_zero_coefficients_are_dropped(self):
        assert MPoly({(1,): 0, (): 5}).terms == {(): 5}
        assert not MPoly({(2,): 0})

    def test_variables_start_at_one(self):
        with pytest.raises(ValueError):
            MPoly.variable(0)

    def test_only_ints_mix_in(self):
        with pytest.raises(TypeError):
            c1 + 0.5
        with pytest.raises(TypeError):
            c1 * 0.5


class TestDivmod:
    def test_exact(self):
        q, r = divmod(6 * c1 * c2 - 4 * c3 + 2, 2)
        assert q == 3 * c1 * c2 - 2 * c3 + 1
        assert not r

    def test_remainder_on_a_non_divisible_coefficient(self):
        q, r = divmod(6 * c1 + 7 * c2, 3)
        assert r and r == c2
        assert q == 2 * c1 + 2 * c2

    def test_negative_coefficients_floor(self):
        q, r = divmod(-7 * c1, 2)
        assert q == -4 * c1 and r == c1


class TestStr:
    @pytest.mark.parametrize(
        "poly, text",
        [
            (MPoly(), "0"),
            (MPoly({(): -3}), "-3"),
            (2 * c1 + 1, "2*c1 + 1"),
            (-(c1**4) + 4 * c1**2 * c2 + c1 * c3 + 3 * c2**2 - c4,
             "-c1**4 + 4*c1**2*c2 + c1*c3 + 3*c2**2 - c4"),
            (c2 - c1 * c2, "-c1*c2 + c2"),
        ],
    )
    def test_rendering(self, poly, text):
        assert str(poly) == text


class TestRepr:
    def test_repr_lists_the_terms_in_str_order(self):
        p = c2 - c1**2 + 3
        assert repr(p) == "MPoly({(2,): -1, (0, 1): 1, (): 3})"
        assert eval(repr(p)) == p
        assert repr(MPoly()) == "MPoly({})"

    def test_independent_builds_of_the_todd_polynomials_have_one_repr(self, monkeypatch):
        import coxsums.todd as todd_module

        texts = []
        for _ in range(2):
            monkeypatch.setattr(todd_module, "_TABLE", todd_module._ToddTable([1]))
            texts.append(repr(todd_module.todd_polynomials(12)))
        assert texts[0] == texts[1]
        assert all("object at" not in text for text in texts)
