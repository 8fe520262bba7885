import time
from fractions import Fraction

import pytest

from quarticmoduli import field
from quarticmoduli.field import (
    GF,
    QQ,
    FieldMismatchError,
    ParamRing,
    PrimeField,
    evaluate_raw,
)
from quarticmoduli.matrices import make_matrix
from quarticmoduli.poly import MultiPoly


def test_rational_scalars_reduce():
    a = QQ.scalar(Fraction(2, 4))
    assert a.value == Fraction(1, 2)
    assert (a + a).value == 1
    assert (a * QQ.scalar(4)).value == 2
    assert (-a).value == Fraction(-1, 2)


def test_rational_inverse_and_division():
    a = QQ.scalar(Fraction(-3, 7))
    assert (a * a.inverse()).value == 1
    with pytest.raises(ZeroDivisionError):
        QQ.zero.inverse()


def test_prime_field_arithmetic():
    f = GF(101)
    a = f.scalar(45)
    b = f.scalar(77)
    assert (a + b).value == (45 + 77) % 101
    assert (a * b).value == (45 * 77) % 101
    assert (a - b).value == (45 - 77) % 101
    assert (a * a.inverse()).value == 1


def test_prime_field_normalizes_residues():
    f = GF(7)
    assert f.scalar(-1).value == 6
    assert f.scalar(15).value == 1


def test_gf_rejects_composite_and_even():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2)


def test_prime_check_is_fast_and_exact_below_2_62():
    start = time.monotonic()
    assert GF(2**61 - 1).p == 2**61 - 1
    assert time.monotonic() - start < 1
    # a prime square, and a strong pseudoprime to the bases 2, 3, 5 and 7
    for composite in ((2**31 - 1) ** 2, 3215031751):
        start = time.monotonic()
        with pytest.raises(ValueError):
            PrimeField(composite)
        assert time.monotonic() - start < 1
    primes = [n for n in range(3, 2000, 2)
              if all(n % d for d in range(3, int(n ** 0.5) + 1, 2))]
    assert [n for n in range(3, 2000, 2) if _accepts(n)] == primes


def _accepts(p):
    try:
        PrimeField(p)
    except ValueError:
        return False
    return True


def test_gf_caches_instances():
    assert GF(101) is GF(101)


def test_field_mismatch_rejected():
    a = GF(101).scalar(3)
    b = GF(7).scalar(3)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        QQ.scalar(1) + a


@pytest.mark.parametrize("domain, cases", [
    (QQ, [(-1, -1), (Fraction(6, 2), 3), (Fraction(1, 2), Fraction(1, 2)),
          (101, 101)]),
    (GF(101), [(-1, 100), (Fraction(6, 2), 3), (Fraction(1, 2), 51),
               (101, 0)]),
], ids=repr)
def test_unbox_gives_the_canonical_raw_value(domain, cases):
    """unbox is the one conversion of a scalar, int or Fraction to a raw
    value, with the checks; scalar boxes what it gives."""
    for value, raw in cases:
        for given in (value, domain.scalar(value)):
            assert domain.unbox(given) == raw
            assert type(domain.unbox(given)) is type(raw)
        assert domain.scalar(value) == domain.box(raw)
        assert domain.scalar(value).value == raw
    with pytest.raises(FieldMismatchError):
        domain.unbox(GF(7).scalar(3))
    ring = ParamRing(domain, ("t",))
    t = ring.variable("t")
    assert ring.unbox(t) is t  # a ParamScalar is its own raw value
    assert ring.unbox(3) == ring.scalar(3)


def test_a_rational_scalar_holds_its_raw_value():
    """Over QQ a scalar's value is its canonical raw value, whichever
    operation made it: an int when integral, a Fraction with denominator
    > 1 otherwise, and never a float."""
    half = QQ.scalar(Fraction(1, 2))
    cases = [(QQ.scalar(Fraction(6, 3)), 2), (half * 2, 1), (half + half, 1),
             (QQ.scalar(4).inverse(), Fraction(1, 4)),
             (QQ.scalar(-1).inverse(), -1),
             (QQ.scalar(Fraction(-1, 3)).inverse(), -3),
             (QQ.scalar(2) ** -3, Fraction(1, 8)),
             (QQ.scalar(Fraction(-2, 3)) ** -2, Fraction(9, 4)),
             (half ** 0, 1), (QQ.scalar(3) / 3, 1), (1 / half, 2),
             (half - half, 0), (QQ.box(Fraction(4, 2)), 2), (QQ.one, 1)]
    for scalar, raw in cases:
        assert scalar.value == raw and type(scalar.value) is type(raw)
        assert not isinstance(scalar.value, float)
        assert QQ.unbox(scalar) is scalar.value


def test_integral_rationals_build_no_fraction(monkeypatch):
    """Boxing, unboxing, adding and multiplying integral QQ scalars
    builds no Fraction: an integral value stays an int throughout; and
    unboxing a Fraction builds none either."""
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(field, "Fraction", Counted)
    half, whole = Counted(1, 2), Counted(6, 3)
    assert built  # the count sees a construction
    built.clear()
    assert QQ.unbox(half) is half
    a, b = QQ.box(3), QQ.scalar(-5)
    values = [QQ.unbox(a), QQ.unbox(7), QQ.unbox(whole), QQ.scalar(a).value,
              (a + b).value, (a * b).value, (a - b).value,
              (a * 2 + 1).value, (-a).value, (a ** 3).value]
    assert built == []
    assert values == [3, 7, 2, 3, -2, -15, 8, 7, -3, 27]
    assert all(type(v) is int for v in values)


def test_scalar_hashes_agree_with_equality():
    """A scalar hashes as its raw value, as the int or Fraction it equals
    does, so a set holding both keeps one member; a ParamScalar that is
    not constant hashes with its terms."""
    ring = ParamRing(QQ, ("a",))
    for scalar, value in [
            (GF(101).scalar(5), 5), (QQ.scalar(3), 3),
            (QQ.scalar(Fraction(1, 2)), Fraction(1, 2)), (ring.zero, 0),
            (ring.scalar(Fraction(-2, 3)), Fraction(-2, 3)),
            (ParamRing(GF(101), ("a", "b")).scalar(-1), 100)]:
        assert scalar == value and hash(scalar) == hash(value)
        assert len({scalar, value}) == 1
    a = ring.variable("a")
    assert len({a, ring.variable("a"), a + 1, 1}) == 3


def test_parse_scalars():
    assert QQ.parse("-2/5").value == Fraction(-2, 5)
    assert GF(101).parse("3").value == 3


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_parse_names_a_zero_denominator(domain):
    for text in ("1/0", " -3/00 ", "0/0"):
        with pytest.raises(ValueError) as info:
            domain.parse(text)
        assert str(info.value) == f"{text.strip()!r} has a zero denominator"
    with pytest.raises(ValueError, match=r"^entry \(0,0\): bad number '1/0': "
                       r"'1/0' has a zero denominator$"):
        make_matrix((1,), (0,), [["1/0*x0"]], domain)


def test_param_ring_arithmetic_and_substitution():
    ring = ParamRing(QQ, ("a", "b"))
    a = ring.variable("a")
    b = ring.variable("b")
    expr = (a + b) * (a - b)
    direct = a * a - b * b
    assert expr == direct
    assert evaluate_raw(expr.raw.items(), [Fraction(3), Fraction(2)]) == 5


@pytest.mark.parametrize("base", [QQ, GF(101)], ids=repr)
def test_param_scalar_fast_paths_keep_the_semantics(base):
    ring = ParamRing(base, ("a", "b"))
    s = ring.variable("a") * 3 + ring.variable("b") * ring.variable("a") - 2
    # adding the int 0 returns the operand itself, from either side
    assert s + 0 is s
    assert 0 + s == s and 0 + s is s
    assert s + 1 - 1 == s and s + 1 != s
    # ParamRing is not interned: an equal ring of its own still adds, by
    # the equality check behind the identity check
    twin = ParamRing(base, ("a", "b"))
    assert twin is not ring and twin == ring
    u = twin.variable("a")
    assert s + u == u + s == s + ring.variable("a")
    assert s * u == s * ring.variable("a")
    for other in (ParamRing(base, ("b", "a")),
                  ParamRing(GF(7) if base == QQ else QQ, ("a", "b"))):
        v = other.variable("a")
        with pytest.raises(FieldMismatchError):
            s + v
        with pytest.raises(FieldMismatchError):
            s * v
        with pytest.raises(FieldMismatchError):
            s - v
    # a product of two-parameter terms, checked at a point
    assert base.box(evaluate_raw((s * s).raw.items(), [2, 5])) == base.scalar(
        (3 * 2 + 5 * 2 - 2) ** 2)


def test_param_ring_refuses_negative_powers():
    ring = ParamRing(QQ, ("a",))
    a = ring.variable("a")
    assert a ** 0 == ring.one and a ** 2 == a * a
    for base, n in ((a, -1), (a + a, -2), (ring.one, -1)):
        with pytest.raises(ValueError, match="negative exponent"):
            base ** n
        with pytest.raises(ValueError, match="negative exponent"):
            pow(base, n, None)


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_floats_refused_at_the_scalar_edge(domain):
    for value in (2.5, 0.1, 3.0, float("nan")):
        with pytest.raises(TypeError, match="float"):
            domain.scalar(value)
        with pytest.raises(TypeError, match="float"):
            MultiPoly(domain, {(1, 0, 0): value})
        with pytest.raises(TypeError, match="float"):
            MultiPoly.constant(domain, value)
        with pytest.raises(TypeError, match="float"):
            ParamRing(domain, ("a",)).scalar(value)
        with pytest.raises(TypeError):
            domain.one + value
    # exact values are still accepted
    assert domain.scalar(3) == domain.scalar(Fraction(6, 2))
    assert MultiPoly(domain, {(1, 0, 0): 3}) == MultiPoly(
        domain, {(1, 0, 0): Fraction(3)})


def test_param_ring_is_not_a_field():
    ring = ParamRing(GF(101), ("t",))
    assert not ring.is_field
    assert bool(ring.variable("t"))
    assert not bool(ring.scalar(0))


def test_scalar_as_text():
    assert QQ.scalar(Fraction(-1, 3)).as_text() == "-1/3"
    assert GF(101).scalar(45).as_text() == "45"


def test_parse_reads_an_exponent_before_expanding_it():
    # a value of up to 4,300 digits above and below the line parses, one
    # of more is refused by its literal, and an exponent of 10^5 or more,
    # which would take seconds to expand, is never expanded
    start = time.monotonic()
    assert QQ.parse("1e4299").value == 10**4299
    assert QQ.parse(" -25E-2 ").value == Fraction(-1, 4)
    assert QQ.parse("1_0e1_0").value == 10**11
    assert QQ.parse("0e99999999") == 0
    assert GF(101).parse("-0.0E-99999999") == 0
    for text in ("1e4300", "1e-4300", "1e99999999", "1e-99999999",
                 "2.5E+1_000_000", "1e" + "1" * 4301):
        with pytest.raises(ValueError) as refused:
            QQ.parse(text)
        assert str(refused.value) == f"{text!r} has over 4300 digits"
    for text in ("1/2e99999999", "1e9999999x", "e99999999"):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            QQ.parse(text)
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("domain", [QQ, GF(101)], ids=repr)
def test_parse_bounds_every_literal_by_its_value(domain):
    # a literal whose parts each have at most 4,300 digits is still refused
    # when its value's numerator or denominator has more, exponent or not,
    # so that every value parsed can be printed
    zeros = "0" * 4299
    assert QQ.parse(f"0.{zeros[1:]}1").value == Fraction(1, 10**4299)
    assert QQ.parse("9" * 4300 + "/7").value == Fraction(10**4300 - 1, 7)
    for text in (f"0.{zeros}1", f"-0.{zeros}1", f"5{zeros}.5",
                 "9" * 4300 + ".5"):
        with pytest.raises(ValueError) as refused:
            domain.parse(text)
        assert str(refused.value) == f"{text!r} has over 4300 digits"
    assert domain.parse(f"0.{zeros}") == 0
