"""Central finite differences: directional derivatives against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import linear_constraint, reference_directional, same_bits
from ldkit.numdiff import central_directional, central_jacobian, gradient_step


def quadratic_constraint(rng, n: int, k: int):
    g, q = linear_constraint(rng, n, k)
    return g, q, (lambda x: g.T @ (q @ x))


class Counting:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


@given(seed=st.integers(0, 5_000), k=st.integers(1, 3),
       cols=st.integers(1, 4))
@settings(max_examples=40)
def test_directional_derivatives_of_the_linear_constraint(seed, k, cols):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 7))
    g, q, c = quadratic_constraint(rng, n, k)
    x = rng.standard_normal(n)
    v = rng.standard_normal((n, cols)) * rng.uniform(1e-3, 1e3, size=cols)
    out = central_directional(c, x, v.T, k)
    exact = g.T @ q @ v
    assert out.shape == (k, cols)
    scale = np.abs(g).max() * np.abs(q).max() * np.abs(v).max(axis=0) * n
    assert np.all(np.abs(out - exact).max(axis=0) <= 1e-8 * scale)


def test_directional_and_coordinate_jacobians_match_the_closed_form():
    fn = Counting(lambda x: np.array([x[0] * x[1], np.sin(x[2]) + x[0] ** 3]))
    x = np.array([0.3, -1.2, 0.7])
    exact = np.array([[x[1], x[0], 0.0],
                      [3.0 * x[0] ** 2, 0.0, np.cos(x[2])]])
    v = np.array([[1.0, 0.5], [-2.0, 0.0], [0.25, 3.0]])
    assert np.allclose(central_directional(fn, x, v.T, 2), exact @ v,
                       rtol=0.0, atol=1e-8)
    fn.calls = 0
    jac = central_jacobian(fn, x)
    assert fn.calls == 1 + 2 * 3
    assert jac.shape == (2, 3)
    assert np.allclose(jac, exact, rtol=0.0, atol=1e-8)


def test_every_probe_lies_one_gradient_step_from_x():
    x = np.array([3.0, 4.0])            # |x| = 5: step 5e-6
    probes = []

    def fn(y):
        probes.append(y.copy())
        return y[:1]

    central_directional(fn, x, np.array([[1e4, 0.0], [0.0, 1e-4]]), 1)
    assert len(probes) == 4
    for p in probes:
        assert np.linalg.norm(p - x) == pytest.approx(5e-6, rel=1e-6)


def test_a_zero_column_is_exactly_zero_and_costs_no_evaluation():
    rng = np.random.default_rng(5)
    g, q, c = quadratic_constraint(rng, 4, 2)
    fn = Counting(c)
    v = np.column_stack([rng.standard_normal(4), np.zeros(4),
                         rng.standard_normal(4)])
    out = central_directional(fn, rng.standard_normal(4), v.T, 2)
    assert fn.calls == 4
    assert np.all(out[:, 1] == 0.0)
    assert np.allclose(out[:, [0, 2]], g.T @ q @ v[:, [0, 2]], atol=1e-7)


def test_all_zero_columns_cost_no_evaluation():
    fn = Counting(lambda x: np.array([x[0], x[1], 1.0]))
    out = central_directional(fn, np.ones(2), np.zeros((2, 2)), 3)
    assert fn.calls == 0
    assert out.shape == (3, 2)
    assert np.all(out == 0.0)


def test_short_columns_down_to_the_shortest_with_a_finite_step():
    # |v| = 1e-300 has a square that underflows to 0, yet a finite step
    # s = 1e294; at |v| = 5e-324, s = 2e317 overflows and the column is 0
    fn = Counting(lambda y: np.array([2.0 * y[0] - y[1], 3.0 * y[1]]))
    v = np.array([[1e-300, 5e-324], [0.0, 0.0]])
    with np.errstate(all="raise"):
        out = central_directional(fn, np.zeros(2), v.T, 2)
    assert fn.calls == 2
    assert same_bits(out, [[2e-300, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("result", [0.5, np.ones(3), np.ones((2, 1))],
                         ids=["scalar", "too-long", "matrix"])
def test_a_result_of_the_wrong_shape_raises_value_error(result):
    with pytest.raises(ValueError, match="expected 2 values"):
        central_directional(lambda x: result, np.ones(2), np.eye(2), 2)


def test_gradient_step_accepts_a_sequence():
    assert gradient_step([3.0, 4.0]) == gradient_step(np.array([3.0, 4.0]))
    assert gradient_step((3, 4)) == pytest.approx(5e-6, rel=1e-15)
    assert gradient_step([0.1, 0.2]) == 1e-6


@given(x=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                            st.sampled_from([0.0, -0.0, 5e-324, -1e-310,
                                             1e300, -1.7e308])),
                  min_size=1, max_size=8))
@settings(max_examples=300)
def test_gradient_step_is_the_plain_formula(x):
    assert gradient_step(np.array(x)) == 1e-6 * max(1.0, math.hypot(*x))


@pytest.mark.parametrize("x, norm", [
    ([1e200, 1e200], math.sqrt(2.0) * 1e200),
    ([3e160, 0.0, -4e160], 5e160),
    ([1.2e154, 1.0, 1e-300], 1.2e154),
    ([1.7e308, 1.7e308], math.inf)])
def test_gradient_step_of_a_state_whose_squares_overflow(x, norm):
    # x.dot(x) would overflow; |x| itself overflows only in the last case
    with np.errstate(all="raise"):
        h = gradient_step(x)
    assert h == pytest.approx(1e-6 * norm, rel=1e-15)


@pytest.mark.parametrize("x", [[1e-200, 1.0], [1e-200, 1e-90],
                               [1.0, 1e-200], [5e-324, -2.0, 3.0]])
def test_gradient_step_of_a_state_whose_squares_underflow(x):
    # a square below the smallest normal raises no error under
    # np.errstate(all="raise"), whatever the order of the entries
    with np.errstate(all="raise"):
        h = gradient_step(x)
    assert h == gradient_step(x) == 1e-6 * max(1.0, math.hypot(*x))


def test_central_directional_along_a_column_whose_squares_underflow():
    v = np.array([[1e-200, 1.0], [1.0, 0.0], [1.0, 1e-200]])

    def fn(y):
        return np.array([y[0] + 2.0 * y[1] - y[2], y[1] * y[2]])

    x = np.array([0.5, -1.0, 2.0])
    with np.errstate(all="raise"):
        strict = central_directional(fn, x, v.T, 2)
    assert strict.tobytes() == central_directional(fn, x, v.T, 2).tobytes()


def test_central_directional_along_a_direction_whose_offset_underflows():
    # s = 1e-206 at x = 0, so s * 1e-200 underflows to 0; the public
    # functions that reach this path ignore the underflow flag, as the
    # default errstate does
    def fn(y):
        return np.array([y[0] - 3.0 * y[1], y[0] * y[1] + y[1]])

    directions = (np.array([1e200, 1e-200]), np.array([1e-200, 1.0]))
    with np.errstate(all="ignore"):
        out = central_directional(fn, np.zeros(2), directions, 2)
    assert out.tobytes() == central_directional(
        fn, np.zeros(2), directions, 2).tobytes()
    assert same_bits(out[:, 0], [1e200, 0.0])


def test_a_direction_whose_norm_overflows_gives_nan_for_any_m():
    # |v| = inf, so s = 0: both probes sit at x, and (hi - lo) / 2s is
    # 0 / 0 in Python floats (m = 1) as in numpy
    v = np.array([1.5e308, 1.5e308])
    with np.errstate(all="ignore"):
        one = central_directional(lambda y: y[:1], np.ones(2), (v,), 1)
        two = central_directional(lambda y: y, np.ones(2), (v,), 2)
    assert one.shape == (1, 1) and two.shape == (2, 1)
    assert np.isnan(one).all() and np.isnan(two).all()


@given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 3),
       cols=st.integers(1, 4), stacked=st.booleans())
@settings(max_examples=300)
def test_central_directional_matches_the_reference_loop_bit_for_bit(
        data, n, m, cols, stacked):
    def vector(size, bound):
        return np.array(data.draw(st.lists(st.floats(-bound, bound),
                                           min_size=size, max_size=size)))

    x = vector(n, 1e3)
    weights = vector(m * n, 2.0).reshape(m, n)
    columns = [np.zeros(n) if data.draw(st.booleans()) else vector(n, 1e3)
               for _ in range(cols)]
    # column-stacked directions are C-ordered, so each column is a strided
    # view; the transpose of stacked rows gives contiguous columns
    v = np.column_stack(columns) if stacked else np.array(columns).T

    def fn(y):
        return np.tanh(weights @ y) + y[:1] * y[-1:]

    out = central_directional(fn, x, v.T, m)
    assert out.tobytes() == reference_directional(fn, x, v, m).tobytes()


def test_central_directional_along_a_column_whose_square_overflows():
    # |v|² = 1e400 overflows; |v| = 1e200 does not, and the probes lie
    # one gradient step from x as for any other column
    def fn(y):
        return np.array([2.0 * y[0] - y[1], 3.0 * y[1]])

    v = np.array([[1e200], [0.0]])
    with np.errstate(all="raise"):
        out = central_directional(fn, np.zeros(2), v.T, 2)
    assert same_bits(out, [[2e200], [0.0]])


@given(data=st.data(), n=st.integers(2, 6), m=st.integers(1, 3),
       cols=st.integers(1, 4))
@settings(max_examples=300)
def test_central_directional_is_the_same_for_either_memory_order(
        data, n, m, cols):
    def vector(size, bound):
        return np.array(data.draw(st.lists(st.floats(-bound, bound),
                                           min_size=size, max_size=size)))

    x = vector(n, 1e3)
    weights = vector(m * n, 2.0).reshape(m, n)
    v = vector(n * cols, 1e3).reshape(n, cols)

    def fn(y):
        return np.tanh(weights @ y) + y[:1] * y[-1:]

    c_order = central_directional(fn, x, np.ascontiguousarray(v).T, m)
    f_order = central_directional(fn, x, np.asfortranarray(v).T, m)
    assert c_order.tobytes() == f_order.tobytes()


def test_only_the_one_output_quotient_ignores_a_raising_errstate():
    # 0 / 0 along a direction whose norm overflows, and a jump of 2e305
    # over 2s = 2e-6, which overflows: numpy raises under the errstate,
    # Python floats give nan and inf
    huge, unit = np.array([1.5e308, 1.5e308]), np.array([1.0, 0.0])

    def jump(y):
        return 1e305 * np.sign(y - 1.0)

    with np.errstate(all="raise"):
        nan = central_directional(lambda y: y[:1], np.ones(2), (huge,), 1)
        inf = central_directional(lambda y: jump(y)[:1], np.ones(2),
                                  (unit,), 1)
        with pytest.raises(FloatingPointError):
            central_directional(lambda y: y, np.ones(2), (huge,), 2)
        with pytest.raises(FloatingPointError):
            central_directional(jump, np.ones(2), (unit,), 2)
    assert np.isnan(nan).all() and same_bits(inf, [[math.inf]])
