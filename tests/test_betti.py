import pytest

from quarticmoduli.betti import (
    MODULI_COEFFICIENTS,
    BlowUpSubstitute,
    DimensionError,
    Literal,
    PoincarePoly,
    ProjBundle,
    ProjectiveSpace,
    Product,
    is_palindromic,
    poincare_M,
    poincare_open_stratum_closure,
    poincare_projective,
)


def test_projective_space_polynomials():
    assert poincare_projective(0) == PoincarePoly([1])
    assert poincare_projective(2) == PoincarePoly([1, 1, 1])
    assert poincare_projective(5).evaluate(1) == 6
    with pytest.raises(ValueError):
        poincare_projective(-1)


def test_poly_arithmetic():
    a = PoincarePoly([1, 2, 1])
    b = PoincarePoly([1, 1])
    assert a == b * b
    assert (a - a) == PoincarePoly.zero()
    assert (a + b).coefficients == (2, 3, 1)
    assert a.evaluate(2) == 9
    assert a.serialize() == "1 + 2*q + q^2"
    assert PoincarePoly([0, -1]).serialize() == "-q"
    assert PoincarePoly.zero().serialize() == "0"


def test_poly_trims_trailing_zeros():
    p = PoincarePoly([1, 0, 0])
    assert p.degree == 0
    assert p == PoincarePoly([1])


def test_open_stratum_closure_polynomial():
    n = poincare_open_stratum_closure()
    assert n.coefficients == (1, 1, 3, 3, 3, 1, 1)
    assert n.evaluate(1) == 13


def test_boundary_model_polynomial():
    b = poincare_open_stratum_closure() * poincare_projective(11)
    assert b.coefficients == (
        1, 2, 5, 8, 11, 12, 13, 13, 13, 13, 13, 13, 12, 11, 8, 5, 2, 1,
    )
    assert is_palindromic(b, 17)


def test_moduli_polynomial_frozen_value():
    m = poincare_M()
    assert m.coefficients == MODULI_COEFFICIENTS
    assert m.degree == 17
    assert is_palindromic(m, 17)
    assert m.evaluate(1) == 192


def test_is_palindromic_negative_cases():
    assert not is_palindromic(PoincarePoly([1, 2]), 1)
    assert not is_palindromic(PoincarePoly([1, 2, 3]), 2)
    # a polynomial of too-low degree padded with zeros is not palindromic
    assert not is_palindromic(PoincarePoly([1, 1]), 3)


def test_expression_algebra():
    p2 = ProjectiveSpace(2)
    p3 = ProjectiveSpace(3)
    prod = Product(p2, p3)
    assert prod.dimension() == 5
    assert prod.poincare() == poincare_projective(2) * \
        poincare_projective(3)
    bundle = ProjBundle(p2, 12)
    assert bundle.dimension() == 13
    assert bundle.poincare() == poincare_projective(2) * \
        poincare_projective(11)


def test_proj_bundle_euler_multiplicative():
    base = ProjectiveSpace(4)
    bundle = ProjBundle(base, 3)
    assert bundle.poincare().evaluate(1) == 5 * 3


def test_blow_up_substitute():
    total = Literal("B", poincare_open_stratum_closure()
                    * poincare_projective(11))
    removed = Product(ProjectiveSpace(2), ProjectiveSpace(1))
    inserted = Product(ProjectiveSpace(2), ProjectiveSpace(13))
    m = BlowUpSubstitute(total, removed, inserted)
    assert m.dimension() == 17
    assert m.poincare().coefficients == MODULI_COEFFICIENTS


def test_blow_up_substitute_dimension_checked():
    with pytest.raises(DimensionError):
        BlowUpSubstitute(
            ProjectiveSpace(2), ProjectiveSpace(5), ProjectiveSpace(1)
        )
    with pytest.raises(DimensionError):
        BlowUpSubstitute(
            ProjectiveSpace(2), ProjectiveSpace(1), ProjectiveSpace(5)
        )


def test_proj_bundle_rank_checked():
    with pytest.raises(DimensionError):
        ProjBundle(ProjectiveSpace(1), 0)


def test_literal_defaults_dimension_to_degree():
    lit = Literal("X", PoincarePoly([1, 0, 1]))
    assert lit.dimension() == 2
    assert Literal("Y", PoincarePoly([1]), dim=4).dimension() == 4
