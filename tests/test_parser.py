"""Grammar round-trip and rejection tests."""

import numpy as np
import pytest

from smallgain.errors import ParseError, RejectedNotClassK
from smallgain.gains import (
    Atan,
    Compose,
    Linear,
    Max,
    OuterSum,
    PlusId,
    Power,
    Saturating,
    Sum,
    Zero,
)
from smallgain.parser import format_gain, parse_gain
from smallgain.simulate import cg_demo, linear_demo

from gen import random_tree


def test_parse_leaf_forms():
    assert parse_gain("0") == Zero()
    assert parse_gain("2*s") == Linear(2.0)
    assert parse_gain("0.5*s^2") == Power(0.5, 2.0)
    assert parse_gain("3*sqrt(s)") == Power(3.0, 0.5)
    assert parse_gain("1*s/(1+s)") == Saturating(1.0)
    assert parse_gain("2*atan(s)") == Atan(2.0)


def test_parse_structured_forms():
    assert parse_gain("1*s+2*s^2") == Sum((Linear(1.0), Power(2.0, 2.0)))
    assert parse_gain("1*s+2*s+3*s") == Sum((Linear(1.0), Linear(2.0), Linear(3.0)))
    assert parse_gain("max(1*s,0)") == Max((Linear(1.0), Zero()))
    assert parse_gain("(1*s)o(2*s)") == Compose(Linear(1.0), Linear(2.0))
    assert parse_gain("id+(1*s)") == PlusId(Linear(1.0))
    assert parse_gain("((1*s)o(2*s))o(3*s)") == Compose(
        Compose(Linear(1.0), Linear(2.0)), Linear(3.0)
    )
    assert parse_gain("(1*s)o((2*s)o(3*s))") == Compose(
        Linear(1.0), Compose(Linear(2.0), Linear(3.0))
    )
    assert parse_gain("1*s+id+(2*s)") == Sum((Linear(1.0), PlusId(Linear(2.0))))
    assert parse_gain("max( 1*s , 0 )") == Max((Linear(1.0), Zero()))


def test_parse_evaluates():
    g = parse_gain("0.25*s")
    assert g(4.0) == 1.0
    h = parse_gain("max(1*s,2*s/(1+s))")
    assert h(0.5) == pytest.approx(2.0 / 3.0)


def test_parse_errors_carry_position():
    for text, pos in [("1*x", 2), ("s", 0), ("1*s+", 4), ("(1*s", 4), ("", 0)]:
        with pytest.raises(ParseError) as exc:
            parse_gain(text)
        assert exc.value.pos == pos
    with pytest.raises(ParseError):
        parse_gain("max(1*s)")
    with pytest.raises(ParseError):
        parse_gain("3")
    with pytest.raises(ParseError):
        parse_gain("1*s 2*s")


def test_rejects_degenerate_maps():
    with pytest.raises(RejectedNotClassK) as exc:
        parse_gain("0*s")
    assert exc.value.pos == 0
    with pytest.raises(RejectedNotClassK) as exc:
        parse_gain("2*s^0")
    assert exc.value.pos == 4
    with pytest.raises(RejectedNotClassK):
        parse_gain("0*atan(s)")
    with pytest.raises(RejectedNotClassK):
        parse_gain("1*s+0*s")


def test_format_frozen_examples():
    assert format_gain(Zero()) == "0"
    assert format_gain(Power(2.0, 0.5)) == "2*sqrt(s)"
    assert format_gain(Power(2.0, 1.5)) == "2*s^1.5"
    assert format_gain(Saturating(0.9)) == "0.9*s/(1+s)"
    assert format_gain(Sum((Linear(1.0), PlusId(Linear(2.0))))) == "1*s+id+(2*s)"
    assert (
        format_gain(Compose(Compose(Linear(1.0), Linear(2.0)), Atan(3.0)))
        == "((1*s)o(2*s))o(3*atan(s))"
    )
    assert format_gain(Max((Zero(), Saturating(1.0)))) == "max(0,1*s/(1+s))"


def test_roundtrip_fuzz_1000_trees():
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        tree = random_tree(rng, allow_zero=True)
        text = format_gain(tree)
        back = parse_gain(text)
        assert back == tree
        assert format_gain(back) == text


@pytest.mark.parametrize("demo", [linear_demo, cg_demo])
def test_design_gains_roundtrip(demo):
    # the designs build their coefficients with numpy, so format_gain sees
    # numpy scalars; every internal gain, external gain and outer map must
    # still parse back to itself
    net = demo()[1].net
    gains = [g for row in net.gamma for g in row] + list(net.gamma_u)
    gains += [mu.rho for mu in net.mu if isinstance(mu, OuterSum)]
    assert any(isinstance(mu, OuterSum) for mu in net.mu)
    for g in gains:
        text = format_gain(g)
        assert parse_gain(text) == g, text
