import pytest

from quarticmoduli.betti import (
    MODULI_COEFFICIENTS,
    PoincarePoly,
    expression_poincare,
    is_palindromic,
    poincare_B,
    poincare_M,
    poincare_open_stratum_closure,
    poincare_projective,
)


def projective(n):
    return {"type": "projective", "n": n}


def product(*factors):
    return {"type": "product", "factors": list(factors)}


def projbundle(base, rank):
    return {"type": "projbundle", "base": base, "rank": rank}


def substitute(total, removed, inserted):
    return {"type": "substitute", "total": total, "removed": removed,
            "inserted": inserted}


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


def test_poly_refuses_non_integer_coefficients():
    with pytest.raises(TypeError, match="exact arithmetic only: refusing "
                       "the float 1.7"):
        PoincarePoly([1.7, 2.2])
    with pytest.raises(TypeError, match="integer coefficients, got str"):
        PoincarePoly(["3"])
    with pytest.raises(TypeError, match="integer coefficients, got bool"):
        PoincarePoly([True])


def test_expression_algebra():
    poly, dim = expression_poincare(product(projective(2), projective(3)))
    assert dim == 5
    assert poly == poincare_projective(2) * poincare_projective(3)
    poly, dim = expression_poincare(projbundle(projective(2), 12))
    assert dim == 13
    assert poly == poincare_projective(2) * poincare_projective(11)


def test_proj_bundle_euler_multiplicative():
    poly, _ = expression_poincare(projbundle(projective(4), 3))
    assert poly.evaluate(1) == 5 * 3


def test_blow_up_substitute():
    total = {"type": "literal", "name": "B",
             "coefficients": list(poincare_B().coefficients)}
    removed = product(projective(2), projective(1))
    inserted = product(projective(2), projective(13))
    poly, dim = expression_poincare(substitute(total, removed, inserted))
    assert dim == 17
    assert poly.coefficients == MODULI_COEFFICIENTS


def test_blow_up_substitute_dimension_checked():
    message = "substituted pieces cannot exceed the total's dimension"
    with pytest.raises(ValueError, match=message):
        expression_poincare(
            substitute(projective(2), projective(5), projective(1)))
    with pytest.raises(ValueError, match=message):
        expression_poincare(
            substitute(projective(2), projective(1), projective(5)))


def test_proj_bundle_rank_checked():
    with pytest.raises(ValueError, match="bundle rank must be positive"):
        expression_poincare(projbundle(projective(1), 0))


def test_literal_defaults_dimension_to_degree():
    _, dim = expression_poincare({"type": "literal", "name": "X",
                                  "coefficients": [1, 0, 1]})
    assert dim == 2
