"""Grammar round-trip and rejection tests."""

import importlib.util
import pathlib
import re
import sys

import numpy as np
import pytest

from smallgain.errors import ParseError, RejectedNotClassK
from smallgain.gains import (
    Atan,
    Compose,
    GainExpr,
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

from gen import random_leaf, random_tree


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


# ---------------------------------------------------------------------------
# the leaf match against the token parser

_REF_NUM = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_REF_WORD = re.compile(r"[a-z]+")


def reference_parse(text):
    """The token parser alone, as it read every gain before the leaf match:
    same trees, same errors at the same positions."""
    tokens, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
        elif m := _REF_NUM.match(text, i):
            tokens.append(("num", float(m.group()), i))
            i = m.end()
        elif m := _REF_WORD.match(text, i):
            if m.group() not in {"s", "sqrt", "atan", "max", "id", "o"}:
                raise ParseError(f"unknown name {m.group()!r}", pos=i)
            tokens.append(("word", m.group(), i))
            i = m.end()
        elif text[i] in "*^+(),/":
            tokens.append(("sym", text[i], i))
            i += 1
        else:
            raise ParseError(f"unexpected character {text[i]!r}", pos=i)
    tokens.append(("end", None, len(text)))
    k = 0

    def peek():
        return tokens[k]

    def take():
        nonlocal k
        k += 1
        return tokens[k - 1]

    def expect(ch):
        kind, val, pos = take()
        if kind != "sym" or val != ch:
            raise ParseError(f"expected {ch!r}", pos=pos)

    def expr():
        terms = [term()]
        while peek()[:2] == ("sym", "+"):
            take()
            terms.append(term())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term():
        if peek()[:2] != ("sym", "("):
            return atom()
        take()
        out = expr()
        expect(")")
        while peek()[:2] == ("word", "o"):
            take()
            expect("(")
            inner = expr()
            expect(")")
            out = Compose(out, inner)
        return out

    def atom():
        kind, val, pos = take()
        if kind == "num":
            if peek()[:2] == ("sym", "*"):
                take()
                return scaled(val, pos)
            if val == 0.0:
                return Zero()
            raise ParseError("a bare number other than 0 is not a gain", pos=pos)
        if (kind, val) == ("word", "max"):
            expect("(")
            args = [expr()]
            while True:
                k2, v2, p2 = take()
                if (k2, v2) == ("sym", ","):
                    args.append(expr())
                elif (k2, v2) == ("sym", ")"):
                    break
                else:
                    raise ParseError("expected ',' or ')' in max", pos=p2)
            if len(args) < 2:
                raise ParseError("max needs at least two arguments", pos=pos)
            return Max(tuple(args))
        if (kind, val) == ("word", "id"):
            expect("+")
            expect("(")
            inner = expr()
            expect(")")
            return PlusId(inner)
        raise ParseError("expected a gain", pos=pos)

    def scaled(coeff, coeff_pos):
        if coeff == 0.0:
            raise RejectedNotClassK("zero coefficient", pos=coeff_pos)
        kind, val, pos = take()
        if (kind, val) == ("word", "s"):
            if peek()[:2] == ("sym", "^"):
                take()
                ek, ev, epos = take()
                if ek != "num":
                    raise ParseError("expected an exponent", pos=epos)
                if ev == 0.0:
                    raise RejectedNotClassK("zero exponent", pos=epos)
                return Power(coeff, ev)
            if peek()[:2] == ("sym", "/"):
                take()
                expect("(")
                dk, dv, dpos = take()
                if dk != "num" or dv != 1.0:
                    raise ParseError("denominator must be (1+s)", pos=dpos)
                expect("+")
                sk, sv, spos = take()
                if (sk, sv) != ("word", "s"):
                    raise ParseError("denominator must be (1+s)", pos=spos)
                expect(")")
                return Saturating(coeff)
            return Linear(coeff)
        if kind == "word" and val in ("sqrt", "atan"):
            expect("(")
            sk, sv, spos = take()
            if (sk, sv) != ("word", "s"):
                raise ParseError(f"{val} takes the bare argument s", pos=spos)
            expect(")")
            return Power(coeff, 0.5) if val == "sqrt" else Atan(coeff)
        raise ParseError("expected s, sqrt(s) or atan(s) after '*'", pos=pos)

    out = expr()
    if peek()[0] != "end":
        raise ParseError("trailing input", pos=peek()[2])
    return out


def outcome(parse, text):
    """A tree with its repr (types and coefficient digits), or an error's
    type, message and position."""
    try:
        tree = parse(text)
    except (ParseError, RejectedNotClassK) as exc:
        return type(exc), str(exc), exc.pos
    return tree, repr(tree)


def config_gain_texts(doc):
    texts = [g for row in doc.get("gains", []) for g in row]
    texts += list(doc.get("external_gains", []))
    for tag in doc.get("mu", []):
        if isinstance(tag, dict) and "outer_sum" in tag:
            spec = tag["outer_sum"]
            texts.append(spec["rho"] if isinstance(spec, dict) else spec)
    return texts


def test_leaf_match_parses_as_the_token_parser(monkeypatch):
    root = pathlib.Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    docs = list(workloads.demo_configs(root).values())
    docs += [job.doc for make in workloads.WORKLOADS.values()
             for seed in (0, 1) for job in make(seed, root)]
    texts = {t for doc in docs for t in config_gain_texts(doc)}
    rng = np.random.default_rng(2027)
    texts |= {format_gain(random_tree(rng, allow_zero=True)) for _ in range(500)}
    texts |= {format_gain(random_leaf(rng)) for _ in range(200)}
    assert len(texts) > 2000
    # mutants: one character dropped, doubled, replaced or inserted, a
    # space inserted, or the text cut short
    alphabet = "0123456789.eE+-*^/()s, qatn"
    base = sorted(texts)
    mutants = set()
    for text in base[::3]:
        i = int(rng.integers(0, len(text)))
        ch = alphabet[rng.integers(0, len(alphabet))]
        mutants |= {text[:i] + text[i + 1:], text[:i] + text[i] + text[i:],
                    text[:i] + ch + text[i + 1:], text[:i] + ch + text[i:],
                    text[:i] + " " + text[i:], text[:i]}
    mutants |= {"0*s", "0.0*atan(s)", "1e-999*s", "2*s^0", "2*s^0e5", "2*s^1e-999",
                "2*s^1e999", "1e999*s", "2*s^1", "1*s/(1.0+s)", "1*s/(10e-1+s)",
                "1*s/(2+s)", "1*s/(1+s", "2*sqrt(s", "2*atan(x)", "2.*s", ".5*s",
                "2*ss", "2*s^-1", "2*s^2^2", "2e*s", "2*S", " 2*s", "2*s ", "2 * s",
                "2*s^ 2", "", "2", "0", "0.0", "s", "*s", "2**s", "2*s2", "2*sqrt",
                "2*atan(s)o(1*s)", "2*s+1*s", "max(2*s,1*s)"}
    errors = 0
    for text in sorted(texts | mutants):
        want = outcome(reference_parse, text)
        assert outcome(parse_gain, text) == want, text
        errors += not isinstance(want[0], GainExpr)
    assert errors > 500
