"""Text grammar for gain expressions.

The concrete syntax mirrors how the gains are written on paper:

    0                   the zero map
    2*s                 linear
    0.5*s^2             power
    3*sqrt(s)           power with exponent 1/2
    1*s/(1+s)           bounded saturation
    2*atan(s)           bounded arctangent
    e1+e2+...           sum (n-ary, flat)
    max(e1,e2,...)      pointwise maximum
    (e1)o(e2)           composition, left associative
    id+(e)              identity plus a class-K summand

``parse_gain`` and ``format_gain`` are exact inverses on expression trees:
formatting any tree and parsing the result reproduces the tree, coefficient
bits included.
"""

from __future__ import annotations

import re

from .errors import ParseError, RejectedNotClassK
from .gains import (
    Atan,
    Compose,
    GainExpr,
    Linear,
    Max,
    PlusId,
    Power,
    Saturating,
    Sum,
    Zero,
)

_NUM = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_NUM_RE = re.compile(_NUM)
# a whole text that is one leaf gain, written without spaces
_LEAF_RE = re.compile(rf"(?P<coeff>{_NUM})\*"
                      rf"(?P<form>s\^(?P<exp>{_NUM})|s/\(1\+s\)|sqrt\(s\)|atan\(s\)|s)")
_WORD_RE = re.compile(r"[a-z]+")
_WORDS = {"s", "sqrt", "atan", "max", "id", "o"}
_SYMBOLS = set("*^+(),/")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            tokens.append(("num", float(m.group()), i))
            i = m.end()
            continue
        m = _WORD_RE.match(text, i)
        if m:
            word = m.group()
            if word not in _WORDS:
                raise ParseError(f"unknown name {word!r}", pos=i)
            tokens.append(("word", word, i))
            i = m.end()
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos=i)
    tokens.append(("end", None, n))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_sym(self, ch):
        kind, val, pos = self.next()
        if kind != "sym" or val != ch:
            raise ParseError(f"expected {ch!r}", pos=pos)
        return pos


def parse_gain(text: str) -> GainExpr:
    """Parse the textual form of a gain into an expression tree.

    Raises :class:`ParseError` on malformed input and
    :class:`RejectedNotClassK` when the text is syntactically fine but
    denotes a map outside the admissible class (zero coefficient or zero
    exponent).
    """
    m = _LEAF_RE.fullmatch(text)
    # a zero coefficient or exponent takes the token path, which rejects it
    if m and float(m["coeff"]) and float(m["exp"] or 1):
        return _leaf(float(m["coeff"]), m["form"], m["exp"] and float(m["exp"]))
    cur = _Cursor(_tokenize(text))
    expr = _parse_expr(cur)
    kind, _, pos = cur.peek()
    if kind != "end":
        raise ParseError("trailing input", pos=pos)
    return expr


def _parse_expr(cur: _Cursor) -> GainExpr:
    terms = [_parse_term(cur)]
    while True:
        kind, val, _ = cur.peek()
        if kind == "sym" and val == "+":
            cur.next()
            terms.append(_parse_term(cur))
        else:
            break
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _parse_term(cur: _Cursor) -> GainExpr:
    kind, val, pos = cur.peek()
    if kind == "sym" and val == "(":
        cur.next()
        expr = _parse_expr(cur)
        cur.expect_sym(")")
        while True:
            kind, val, _ = cur.peek()
            if kind == "word" and val == "o":
                cur.next()
                cur.expect_sym("(")
                inner = _parse_expr(cur)
                cur.expect_sym(")")
                expr = Compose(expr, inner)
            else:
                return expr
    return _parse_atom(cur)


def _parse_atom(cur: _Cursor) -> GainExpr:
    kind, val, pos = cur.next()
    if kind == "num":
        nk, nv, _ = cur.peek()
        if nk == "sym" and nv == "*":
            cur.next()
            return _parse_scaled(cur, val, pos)
        if val == 0.0:
            return Zero()
        raise ParseError("a bare number other than 0 is not a gain", pos=pos)
    if kind == "word" and val == "max":
        cur.expect_sym("(")
        args = [_parse_expr(cur)]
        while True:
            k2, v2, p2 = cur.next()
            if k2 == "sym" and v2 == ",":
                args.append(_parse_expr(cur))
            elif k2 == "sym" and v2 == ")":
                break
            else:
                raise ParseError("expected ',' or ')' in max", pos=p2)
        if len(args) < 2:
            raise ParseError("max needs at least two arguments", pos=pos)
        return Max(tuple(args))
    if kind == "word" and val == "id":
        cur.expect_sym("+")
        cur.expect_sym("(")
        inner = _parse_expr(cur)
        cur.expect_sym(")")
        return PlusId(inner)
    raise ParseError("expected a gain", pos=pos)


# the leaf trees by their text after "c*", but for c*s^q, which is Power(c, q)
_LEAVES = {"s": Linear, "sqrt(s)": lambda c: Power(c, 0.5), "s/(1+s)": Saturating,
           "atan(s)": Atan}


def _leaf(coeff: float, form: str, exponent: float | None = None) -> GainExpr:
    """The tree of the leaf gain ``coeff*form``: ``form`` is ``s``,
    ``s^q`` (given ``exponent``), ``sqrt(s)``, ``s/(1+s)`` or ``atan(s)``."""
    return _LEAVES[form](coeff) if exponent is None else Power(coeff, exponent)


def _parse_scaled(cur: _Cursor, coeff: float, coeff_pos: int) -> GainExpr:
    if coeff == 0.0:
        raise RejectedNotClassK("zero coefficient", pos=coeff_pos)
    kind, val, pos = cur.next()
    if kind == "word" and val == "s":
        nk, nv, npos = cur.peek()
        if nk == "sym" and nv == "^":
            cur.next()
            ek, ev, epos = cur.next()
            if ek != "num":
                raise ParseError("expected an exponent", pos=epos)
            if ev == 0.0:
                raise RejectedNotClassK("zero exponent", pos=epos)
            return _leaf(coeff, "s^", ev)
        if nk == "sym" and nv == "/":
            cur.next()
            cur.expect_sym("(")
            dk, dv, dpos = cur.next()
            if dk != "num" or dv != 1.0:
                raise ParseError("denominator must be (1+s)", pos=dpos)
            cur.expect_sym("+")
            sk, sv, spos = cur.next()
            if sk != "word" or sv != "s":
                raise ParseError("denominator must be (1+s)", pos=spos)
            cur.expect_sym(")")
            return _leaf(coeff, "s/(1+s)")
        return _leaf(coeff, "s")
    if kind == "word" and val in ("sqrt", "atan"):
        cur.expect_sym("(")
        sk, sv, spos = cur.next()
        if sk != "word" or sv != "s":
            raise ParseError(f"{val} takes the bare argument s", pos=spos)
        cur.expect_sym(")")
        return _leaf(coeff, f"{val}(s)")
    raise ParseError("expected s, sqrt(s) or atan(s) after '*'", pos=pos)


def _fmt_num(x: float) -> str:
    # shortest digits that round-trip through float(); numpy scalars
    # would print their type around the digits
    x = float(x)
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def format_gain(g: GainExpr) -> str:
    """Render an expression tree in the textual grammar.

    Trees are assumed flat in the parser's normal form (no Sum directly
    under Sum); parsing never produces anything else.
    """
    if isinstance(g, Zero):
        return "0"
    if isinstance(g, Linear):
        return f"{_fmt_num(g.slope)}*s"
    if isinstance(g, Power):
        if g.exponent == 0.5:
            return f"{_fmt_num(g.coeff)}*sqrt(s)"
        return f"{_fmt_num(g.coeff)}*s^{_fmt_num(g.exponent)}"
    if isinstance(g, Saturating):
        return f"{_fmt_num(g.coeff)}*s/(1+s)"
    if isinstance(g, Atan):
        return f"{_fmt_num(g.coeff)}*atan(s)"
    if isinstance(g, Sum):
        return "+".join(format_gain(c) for c in g.children)
    if isinstance(g, Max):
        return "max(" + ",".join(format_gain(c) for c in g.children) + ")"
    if isinstance(g, Compose):
        return f"({format_gain(g.outer)})o({format_gain(g.inner)})"
    if isinstance(g, PlusId):
        return f"id+({format_gain(g.inner)})"
    raise TypeError(f"cannot format {type(g).__name__}")
