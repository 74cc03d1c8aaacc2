import json
import random
from fractions import Fraction

import pytest

from membercover import (
    Halfplane,
    Point,
    UnitSquare,
    generate,
    parse_instance,
    serialize_instance,
)
from membercover.geometry import MAX_DIGITS, frac, integer
from membercover.instances import InstanceParseError


MINIMAL_SQUARES = '{"kind":"squares","S":[["1/2","1/2"]],"Sprime":[],"ranges":[[1,1]]}'


def test_parse_minimal():
    doc = parse_instance(MINIMAL_SQUARES)
    assert doc.kind == "squares"
    assert doc.s == (Point.of("1/2", "1/2"),)
    assert doc.ranges[0] == UnitSquare(0, Point.of(1, 1))


def test_rational_is_exact():
    doc = parse_instance('{"kind":"squares","S":[["1/3",0]],"Sprime":[],"ranges":[]}')
    assert doc.s[0].x == Fraction(1, 3)


def test_float_rejected():
    with pytest.raises(InstanceParseError):
        parse_instance('{"kind":"squares","S":[[0.5,0]],"Sprime":[],"ranges":[]}')


def test_zero_normal_names_range():
    with pytest.raises(InstanceParseError) as err:
        parse_instance('{"kind":"halfplanes","S":[],"Sprime":[],"ranges":[[1,1,0],[0,0,3]]}')
    assert "1" in str(err.value)


def test_bad_json_reports_line():
    with pytest.raises(InstanceParseError) as err:
        parse_instance('{"kind": "squares",\n broken')
    assert err.value.line == 2


def test_roundtrip_canonical():
    doc = parse_instance(MINIMAL_SQUARES)
    text = serialize_instance(doc)
    again = parse_instance(text)
    assert again == doc
    assert serialize_instance(again) == text


def test_roundtrip_halfplanes():
    doc = generate("halfplanes", n_points=4, n_ranges=5, seed=3)
    text = serialize_instance(doc)
    assert parse_instance(text) == doc


def test_generator_deterministic():
    a = generate("squares", n_points=5, n_ranges=6, seed=7)
    b = generate("squares", n_points=5, n_ranges=6, seed=7)
    assert serialize_instance(a) == serialize_instance(b)
    c = generate("squares", n_points=5, n_ranges=6, seed=8)
    assert serialize_instance(a) != serialize_instance(c)


def test_generator_zero_ranges():
    doc = generate("squares", n_points=2, n_ranges=0, seed=1)
    assert doc.ranges == ()


def test_generator_sweep_valid():
    for seed in range(500):
        kind = "squares" if seed % 2 else "halfplanes"
        doc = generate(kind, n_points=3, n_ranges=4, extent=3, seed=seed)
        again = parse_instance(serialize_instance(doc))
        assert again == doc
        assert all(isinstance(r, (UnitSquare, Halfplane)) for r in doc.ranges)
        if kind == "halfplanes":
            corners = [(0, 0), (3, 0), (0, 3), (3, 3)]
            for h in doc.ranges:
                values = [h.a * cx + h.b * cy + h.c for cx, cy in corners]
                # boundary line meets the extent box
                assert min(values) <= 0 <= max(values)


def test_digest_stable():
    doc = parse_instance(MINIMAL_SQUARES)
    assert doc.digest() == parse_instance(serialize_instance(doc)).digest()


def test_reader_accepts_what_the_writer_writes():
    # frac reads exactly the grammar of str(Fraction), up to the digit cap
    rng = random.Random(20)
    for _ in range(2000):
        num_digits, den_digits = rng.randint(1, MAX_DIGITS), rng.randint(1, MAX_DIGITS)
        num = rng.randrange(10 ** num_digits) * rng.choice((1, -1))
        q = Fraction(num, rng.randrange(1, 10 ** den_digits))
        assert frac(str(q)) == q
        assert frac(q.numerator) == q.numerator
    assert frac("-" + "9" * MAX_DIGITS + "/" + "9" * MAX_DIGITS) == -1
    assert frac(10 ** MAX_DIGITS - 1) == 10 ** MAX_DIGITS - 1


@pytest.mark.parametrize(
    "value",
    ["1e3", "0.5", ".5", "1.", " 1", "1 ", " 1_0 ", "1_0", "+1", "1/-2", "-1/-2", "1/0",
     "1/00", "", "-", "/2", "1/", "inf", "nan", "١", "1\n", "1" * (MAX_DIGITS + 1),
     "1/" + "1" * (MAX_DIGITS + 1), 10 ** MAX_DIGITS, -(10 ** MAX_DIGITS), 0.5, True,
     None, [1]],
    ids=lambda value: repr(value)[:16],
)
def test_reader_refuses_other_forms(value):
    # forms that only Fraction(str) accepts, and numbers past the cap
    with pytest.raises(ValueError):
        frac(value)
    text = serialize_instance(generate("squares", n_points=1, n_ranges=1, seed=1))
    doc = json.loads(text)
    doc["S"][0][0] = value
    with pytest.raises(InstanceParseError):
        parse_instance(json.dumps(doc))


def test_integer_reader():
    # `integer` reads the integer half of frac's grammar and nothing more
    for text in ("0", "-0", "7", "-12", "007", "9" * MAX_DIGITS, "-" + "9" * MAX_DIGITS):
        assert integer(text) == int(text)
    for value in (" 1", "1 ", " 1_0 ", "1_0", "+1", "1/2", "1.0", "1e3", "", "-", "٣",
                  "١٠", "1\n", "1" * (MAX_DIGITS + 1), 5, True, None):
        with pytest.raises(ValueError):
            integer(value)


def test_json_int_past_the_int_limit_is_a_parse_error():
    with pytest.raises(InstanceParseError):
        parse_instance('{"kind":"squares","S":[[%s,0]],"Sprime":[],"ranges":[]}' % ("1" * 5000))


def test_halfplane_coefficients_under_the_digit_cap():
    ok = '{"kind":"halfplanes","S":[],"Sprime":[],"ranges":[[1,0,%s]]}' % ("9" * MAX_DIGITS)
    assert parse_instance(ok).ranges[0].c == 10 ** MAX_DIGITS - 1
    with pytest.raises(InstanceParseError):
        parse_instance(ok.replace("9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1)))


@pytest.mark.parametrize("seed", ["true", "1.0", '"1"'])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(InstanceParseError):
        parse_instance('{"kind":"squares","S":[],"Sprime":[],"ranges":[],"seed":%s}' % seed)
