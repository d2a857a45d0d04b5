"""Word-level operator tests: expression results vs integer arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synth.expr import And, Const, Expr, Mux, Not, Or, Sig, Xor
from repro.synth import wordlib


def evaluate(expr: Expr, env: dict) -> int:
    """Directly interpret an expression tree over an environment."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sig):
        return env[expr.name]
    if isinstance(expr, Not):
        return 1 - evaluate(expr.operand, env)
    if isinstance(expr, And):
        return int(all(evaluate(a, env) for a in expr.args))
    if isinstance(expr, Or):
        return int(any(evaluate(a, env) for a in expr.args))
    if isinstance(expr, Xor):
        value = 0
        for a in expr.args:
            value ^= evaluate(a, env)
        return value
    if isinstance(expr, Mux):
        if evaluate(expr.sel, env):
            return evaluate(expr.if_one, env)
        return evaluate(expr.if_zero, env)
    raise TypeError(expr)


def word_value(word, env) -> int:
    return sum(evaluate(bit, env) << i for i, bit in enumerate(word))


def make_word(prefix: str, width: int, value: int):
    word = [Sig(f"{prefix}{i}") for i in range(width)]
    env = {f"{prefix}{i}": (value >> i) & 1 for i in range(width)}
    return word, env


WIDTH = 5
MASK = (1 << WIDTH) - 1


@given(a=st.integers(0, MASK), b=st.integers(0, MASK), cin=st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_add_matches_integers(a, b, cin):
    wa, env_a = make_word("a", WIDTH, a)
    wb, env_b = make_word("b", WIDTH, b)
    env = {**env_a, **env_b}
    total, carry = wordlib.add(wa, wb, Const(cin))
    assert word_value(total, env) == (a + b + cin) & MASK
    assert evaluate(carry, env) == ((a + b + cin) >> WIDTH) & 1


@given(a=st.integers(0, MASK), b=st.integers(0, MASK))
@settings(max_examples=60, deadline=None)
def test_sub_matches_integers(a, b):
    wa, env_a = make_word("a", WIDTH, a)
    wb, env_b = make_word("b", WIDTH, b)
    env = {**env_a, **env_b}
    diff, no_borrow = wordlib.sub(wa, wb)
    assert word_value(diff, env) == (a - b) & MASK
    assert evaluate(no_borrow, env) == int(a >= b)


@given(a=st.integers(0, MASK), en=st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_inc_matches_integers(a, en):
    wa, env = make_word("a", WIDTH, a)
    result = wordlib.inc(wa, Const(en))
    assert word_value(result, env) == (a + en) & MASK


@given(a=st.integers(0, MASK), b=st.integers(0, MASK))
@settings(max_examples=60, deadline=None)
def test_comparisons(a, b):
    wa, env_a = make_word("a", WIDTH, a)
    wb, env_b = make_word("b", WIDTH, b)
    env = {**env_a, **env_b}
    assert evaluate(wordlib.eq(wa, wb), env) == int(a == b)
    assert evaluate(wordlib.ne(wa, wb), env) == int(a != b)
    assert evaluate(wordlib.lt(wa, wb), env) == int(a < b)


@given(a=st.integers(0, MASK), k=st.integers(0, MASK))
@settings(max_examples=40, deadline=None)
def test_eq_const(a, k):
    wa, env = make_word("a", WIDTH, a)
    assert evaluate(wordlib.eq_const(wa, k), env) == int(a == k)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_decode_is_exact_onehot(width):
    sel, _ = make_word("s", width, 0)
    outputs = wordlib.decode(sel)
    assert len(outputs) == 1 << width
    for value in range(1 << width):
        env = {f"s{i}": (value >> i) & 1 for i in range(width)}
        pattern = [evaluate(o, env) for o in outputs]
        assert pattern == [int(i == value) for i in range(1 << width)]


def test_onehot_mux_selects_word():
    words = [wordlib.const_word(v, 4) for v in (3, 9, 12)]
    selects = [Sig("s0"), Sig("s1"), Sig("s2")]
    out = wordlib.onehot_mux(selects, words)
    for hot, expected in [(0, 3), (1, 9), (2, 12)]:
        env = {f"s{i}": int(i == hot) for i in range(3)}
        assert word_value(out, env) == expected


def test_mux_word_and_bitops():
    a, env_a = make_word("a", 4, 0b1010)
    b, env_b = make_word("b", 4, 0b0110)
    env = {**env_a, **env_b, "s": 1}
    sel = Sig("s")
    assert word_value(wordlib.mux_word(sel, a, b), env) == 0b1010
    env["s"] = 0
    assert word_value(wordlib.mux_word(sel, a, b), env) == 0b0110
    assert word_value(wordlib.and_word(a, b), env) == 0b0010
    assert word_value(wordlib.or_word(a, b), env) == 0b1110
    assert word_value(wordlib.xor_word(a, b), env) == 0b1100
    assert word_value(wordlib.not_word(a), env) == 0b0101


def test_resize():
    word = wordlib.const_word(0b101, 3)
    assert len(wordlib.resize(word, 6)) == 6
    assert len(wordlib.resize(word, 2)) == 2


def test_reduce_helpers():
    bits, env = make_word("a", 3, 0b000)
    assert evaluate(wordlib.reduce_or(bits), env) == 0
    assert evaluate(wordlib.reduce_and(bits), env) == 0
    env = {f"a{i}": 1 for i in range(3)}
    assert evaluate(wordlib.reduce_or(bits), env) == 1
    assert evaluate(wordlib.reduce_and(bits), env) == 1


def test_width_mismatch_errors():
    a = [Sig("x")]
    b = [Sig("y"), Sig("z")]
    with pytest.raises(ValueError):
        wordlib.add(a, b)
    with pytest.raises(ValueError):
        wordlib.eq(a, b)
    with pytest.raises(ValueError):
        wordlib.mux_word(Sig("s"), a, b)
