"""High-precision oracle."""

import mpmath as mp
import pytest

from foxwright import (
    DivergentSeriesError,
    DomainError,
    FoxWrightParams,
    evaluate,
    hp_eval,
    hp_pfq,
)

P1 = FoxWrightParams(upper=((1.3, 0.7), (2.1, 1.4)),
                     lower=((0.9, 1.1), (1.7, 0.8)))


def test_hp_eval_exp_digits():
    value, tail = hp_eval(FoxWrightParams(), 1.0)
    assert value.startswith("2.7182818284590452353602874713")
    assert float(tail) < 1e-29


def test_hp_eval_matches_independent_summation():
    value, _ = hp_eval(P1, 3.5, digits=40)
    assert abs(float(value) - 2268.331703814246509501) <= 1e-12 * 2268.0


def test_hp_eval_digit_bounds():
    with pytest.raises(DomainError):
        hp_eval(FoxWrightParams(), 1.0, digits=10)
    with pytest.raises(DomainError):
        hp_eval(FoxWrightParams(), 1.0, digits=500)


def test_hp_eval_agrees_with_fast_path():
    for z in (0.1, 1.0, 4.4, 9.7):
        fast = evaluate(P1, z)
        slow = float(hp_eval(P1, z)[0])
        assert abs(fast.value - slow) <= fast.tail_bound + 1e-13 * abs(slow)


def test_hp_eval_divergent():
    with pytest.raises(DivergentSeriesError):
        hp_eval(FoxWrightParams(upper=((1.0, 2.0),)), 1.0)


def test_hp_pfq_values_and_gates():
    ref = float(mp.hyper([0.7], [1.9, 2.4], 3.0))
    assert abs(float(hp_pfq((0.7,), (1.9, 2.4), 3.0)[0]) - ref) <= 1e-12 * ref
    with pytest.raises(DivergentSeriesError):
        hp_pfq((1.0, 1.0, 1.0), (2.0,), 0.5)
    with pytest.raises(DivergentSeriesError):
        hp_pfq((1.0, 1.0), (2.0,), 1.5)
