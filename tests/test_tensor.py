"""Autodiff core: op semantics, backward rules, finite-difference checks.

Expected values marked "oracle" were computed independently with mpmath at
50 decimal digits and frozen here.
"""

import numpy as np
import pytest

from m2dan import tensor as T
from m2dan.errors import (
    DomainError,
    InvalidAxis,
    InvalidShape,
    NonFiniteInput,
    NotScalar,
    ShapeMismatch,
)
from m2dan.tensor import Tensor, build_tensor, constant

# oracle: mpmath, 50 dps
SOFTMAX_123 = [0.090030573170380457998, 0.24472847105479765247, 0.66524095577482188953]


def t(values, shape=None, rg=False):
    arr = np.asarray(values, dtype=np.float64)
    if shape is not None:
        arr = arr.reshape(shape)
    return Tensor(arr, requires_grad=rg)


def setup_function(_):
    T.reset_tape()


# ---------------------------------------------------------------- build


def test_build_tensor_row_major():
    x = build_tensor([2, 2], [1, 2, 3, 4])
    assert x.shape == (2, 2)
    assert x.data.ravel().tolist() == [1, 2, 3, 4]
    assert x.data[0, 1] == 2
    assert x.grad is None


def test_build_tensor_zero_vector_has_no_grad_buffer():
    x = build_tensor([3], [0, 0, 0], requires_grad=True)
    assert x.requires_grad and x.grad is None


def test_build_tensor_value_count_mismatch():
    with pytest.raises(ShapeMismatch):
        build_tensor([2, 2], [1, 2, 3])


def test_build_tensor_bad_dims():
    with pytest.raises(InvalidShape):
        build_tensor([0, 2], [])
    with pytest.raises(InvalidShape):
        build_tensor([-1], [1])


# ---------------------------------------------------------------- elementwise


def test_add_sub_mul_forward():
    a, b = t([5.0, 5.0]), t([2.0, 3.0])
    assert T.add(a, b).data.tolist() == [7, 8]
    assert T.sub(a, b).data.tolist() == [3, 2]
    assert T.mul(a, b).data.tolist() == [10, 15]


def test_sub_backward_negates_for_b():
    a = t([5.0, 5.0], rg=True)
    b = t([2.0, 3.0], rg=True)
    T.sub(a, b).sum().backward()  # upstream gradient [1, 1]
    assert a.grad.tolist() == [1, 1]
    assert b.grad.tolist() == [-1, -1]


def test_scalar_broadcast():
    a = t([[1.0, 2.0], [3.0, 4.0]], rg=True)
    c = t([2.0], rg=True)
    out = T.mul(a, c)
    assert out.data.tolist() == [[2, 4], [6, 8]]
    out.sum().backward()
    assert a.grad.tolist() == [[2, 2], [2, 2]]
    assert c.grad.tolist() == [10.0]  # sum of a


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        T.add(t([1.0, 2.0]), t([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeMismatch):
        T.mul(t([1.0]), t([1.0, 2.0]))  # only b may be the broadcast scalar


# ---------------------------------------------------------------- matmul


def test_matmul_examples():
    out = T.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]
    eye = t(np.eye(3))
    x = t(np.arange(9.0).reshape(3, 3))
    assert np.array_equal(T.matmul(x, eye).data, x.data)


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatch):
        T.matmul(t([[1.0, 2.0]]), t([[1.0, 2.0]]))
    with pytest.raises(ShapeMismatch):
        T.matmul(t([1.0, 2.0]), t([[1.0], [2.0]]))


def test_matmul_backward():
    a = t([[1.0, 2.0], [3.0, 4.0]], rg=True)
    b = t([[5.0, 6.0], [7.0, 8.0]], rg=True)
    T.matmul(a, b).sum().backward()
    assert a.grad.tolist() == [[11, 15], [11, 15]]  # ones @ b.T
    assert b.grad.tolist() == [[4, 4], [6, 6]]  # a.T @ ones


# ---------------------------------------------------------------- unary


def test_exp_forward_backward():
    x = t([0.0, 1.0], rg=True)
    y = T.exp(x)
    assert np.allclose(y.data, [1.0, np.e], atol=0, rtol=1e-15)
    y.sum().backward()
    assert np.allclose(x.grad, [1.0, np.e], rtol=1e-15)


def test_log_basics_and_clamp():
    assert T.log(t([1.0])).data.tolist() == [0.0]
    clamped = T.log(t([0.0]))
    assert np.isclose(clamped.data[0], np.log(1e-12))
    with pytest.raises(DomainError):
        T.log(t([0.0]), clamp=False)
    with pytest.raises(DomainError):
        T.log(t([-1.0]), clamp=False)


def test_log_clamped_entries_get_zero_grad():
    x = t([0.0, 0.5, 2.0], rg=True)
    T.log(x).sum().backward()
    assert x.grad.tolist() == [0.0, 2.0, 0.0]  # below min and above max are flat


def test_relu_zero_subgradient():
    x = t([-1.0, 0.0, 2.0], rg=True)
    y = T.relu(x)
    assert y.data.tolist() == [0, 0, 2]
    y.sum().backward()
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_pow_scalar_zero_exponent_is_flat():
    x = t([0.0, 0.3, 1.0], rg=True)
    y = T.pow_scalar(x, 0.0)
    assert y.data.tolist() == [1.0, 1.0, 1.0]
    y.sum().backward()
    assert x.grad.tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------- reductions


def test_sum_and_axis_reduce():
    x = t([1.0, 2.0, 3.0])
    assert T.tensor_sum(x).data.tolist() == [6.0]
    m = t([[1.0, 2.0], [3.0, 4.0]])
    assert T.tensor_sum(m, axes=0).data.tolist() == [4.0, 6.0]
    assert T.tensor_sum(m, axes=1).data.tolist() == [3.0, 7.0]
    assert T.tensor_mean(m).data.tolist() == [2.5]


def test_mean_backward_spreads_uniformly():
    x = t([2.0, 4.0], rg=True)
    T.tensor_mean(x).backward()
    assert x.grad.tolist() == [0.5, 0.5]


def test_reduce_invalid_axis():
    m = t([[1.0, 2.0]])
    with pytest.raises(InvalidAxis):
        T.tensor_sum(m, axes=2)
    with pytest.raises(InvalidAxis):
        T.tensor_sum(m, axes=(0, 0))


# ---------------------------------------------------------------- structural


def test_concat_axis1():
    out = T.concat([t([[1.0], [2.0]]), t([[3.0], [4.0]])], axis=1)
    assert out.data.tolist() == [[1, 3], [2, 4]]


def test_concat_width_adds_up():
    parts = [t(np.ones((4, 32))) for _ in range(3)]
    assert T.concat(parts, axis=1).shape == (4, 96)


def test_concat_mismatch():
    with pytest.raises(ShapeMismatch):
        T.concat([t([[1.0, 2.0]]), t([[1.0], [2.0]])], axis=1)


def test_concat_backward_splits():
    a = t([[1.0], [2.0]], rg=True)
    b = t([[3.0, 4.0], [5.0, 6.0]], rg=True)
    out = T.concat([a, b], axis=1)
    T.mul(out, constant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])).sum().backward()
    assert a.grad.tolist() == [[1], [4]]
    assert b.grad.tolist() == [[2, 3], [5, 6]]


def test_take_rows_backward_scatters():
    x = t([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], rg=True)
    T.take_rows(x, [0, 2]).sum().backward()
    assert x.grad.tolist() == [[1, 1], [0, 0], [1, 1]]


# ---------------------------------------------------------------- softmax


def test_softmax_against_high_precision_oracle():
    y = T.softmax(t([1.0, 2.0, 3.0]), axis=0)
    assert np.max(np.abs(y.data - np.array(SOFTMAX_123))) < 1e-12


def test_softmax_large_inputs_no_overflow():
    y = T.softmax(t([1000.0, 1000.0]), axis=0)
    assert y.data.tolist() == [0.5, 0.5]


def test_softmax_shift_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 5))
    a = T.softmax(t(x), axis=1).data
    b = T.softmax(t(x + 1000.0), axis=1).data
    assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NonFiniteInput):
        T.softmax(t([np.nan, 1.0]), axis=0)
    with pytest.raises(NonFiniteInput):
        T.log_softmax(t([np.inf, 1.0]), axis=0)


def test_log_softmax_consistent_with_softmax():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4)) * 5
    ls = T.log_softmax(t(x), axis=1).data
    sm = T.softmax(t(x), axis=1).data
    assert np.allclose(np.exp(ls), sm, atol=1e-12)


# ---------------------------------------------------------------- backward


def test_backward_of_sum_is_ones():
    x = t([1.0, 2.0, 3.0], rg=True)
    x.sum().backward()
    assert x.grad.tolist() == [1, 1, 1]


def test_backward_square_chain():
    x = t([1.0, 2.0], rg=True)
    T.mul(x, x).sum().backward()
    assert x.grad.tolist() == [2.0, 4.0]


def test_backward_mean_relu():
    x = t([-1.0, 1.0], rg=True)
    T.relu(x).mean().backward()
    assert x.grad.tolist() == [0.0, 0.5]


def test_fanout_accumulates():
    x = t([3.0], rg=True)
    T.add(x, x).backward()
    assert x.grad.tolist() == [2.0]


def test_backward_requires_scalar():
    x = t([1.0, 2.0], rg=True)
    y = T.mul(x, x)
    with pytest.raises(NotScalar):
        y.backward()


def test_no_grad_for_frozen_tensors():
    x = t([1.0, 2.0], rg=True)
    c = t([3.0, 4.0], rg=False)
    T.mul(x, c).sum().backward()
    assert c.grad is None
    assert x.grad.tolist() == [3, 4]


def test_grads_accumulate_until_cleared():
    x = t([1.0, 2.0], rg=True)
    x.sum().backward()
    T.reset_tape()
    x.sum().backward()
    assert x.grad.tolist() == [2.0, 2.0]


def test_fan_out_through_add_accumulates_per_input():
    # add hands one array to both inputs; accumulating into it in place
    # would leak a's second contribution into b
    a = t([1.0], rg=True)
    b = t([5.0], rg=True)
    ((a + b) + a).backward()
    assert a.grad.tolist() == [2.0]
    assert b.grad.tolist() == [1.0]


def test_fan_out_through_concat_sums_the_views():
    x = t([[1.0], [2.0]], rg=True)
    both = T.concat([x, x], axis=1)
    T.mul(both, constant([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
    assert x.grad.tolist() == [[3.0], [7.0]]


def test_backward_keeps_leaf_grads_and_drops_the_rest():
    x = t([1.0, 2.0], rg=True)
    w = t([3.0, 4.0], rg=True)
    loss = T.mul(T.relu(x), w).sum()
    ops = len(T.active_tape())
    loss.backward()
    assert len(T.active_tape()) == ops
    assert all(op.output.grad is None for op in T.active_tape().ops)
    assert x.grad.tolist() == [3.0, 4.0]
    assert w.grad.tolist() == [1.0, 2.0]
    # with the outputs' gradients gone, a second replay adds exactly once more
    loss.backward()
    assert x.grad.tolist() == [6.0, 8.0]


def test_no_grad_context_skips_recording():
    x = t([1.0, 2.0], rg=True)
    with T.no_grad():
        y = T.mul(x, x).sum()
    assert not y.requires_grad
    assert len(T.active_tape()) == 0


# ---------------------------------------------------------------- grad_check


def test_grad_check_exact_for_sum():
    x = t([1.0, -2.0, 3.0], rg=True)
    report = T.grad_check(lambda v: v.sum(), x, h=1e-4, tol=1e-4)
    assert report.passed
    assert report.max_rel_error < 1e-10


def test_grad_check_deterministic():
    x = t([0.3, -0.7, 1.1], rg=True)
    f = lambda v: T.mul(v, v).mean()
    r1 = T.grad_check(f, x)
    r2 = T.grad_check(f, x)
    assert r1.max_rel_error == r2.max_rel_error


def _weighted_scalar(out, rng):
    w = constant(rng.normal(size=out.shape))
    return T.mul(out, w).sum()


def test_every_op_matches_finite_differences():
    # randomized FD sweep over all differentiable ops, >= 100 trials total
    rng = np.random.default_rng(20240817)
    trials = 0
    for _ in range(8):
        a_np = rng.normal(size=(2, 3))
        b_np = rng.normal(size=(2, 3))
        # keep relu/log inputs away from kinks and clamp edges
        pos = rng.uniform(0.1, 0.9, size=(2, 3))
        far = np.where(np.abs(a_np) < 0.05, a_np + 0.2, a_np)
        cases = [
            (lambda x, b=t(b_np): T.add(x, b), t(a_np, rg=True)),
            (lambda x, b=t(b_np): T.sub(x, b), t(a_np, rg=True)),
            (lambda x, b=t(b_np): T.mul(x, b), t(a_np, rg=True)),
            (lambda x, a=t(a_np): T.mul(a, x), t([0.7], rg=True)),  # scalar side
            (lambda x, b=t(b_np.T): T.matmul(x, b), t(a_np, rg=True)),
            (lambda x, a=t(a_np): T.matmul(a, x), t(b_np.T, rg=True)),
            (T.exp, t(a_np, rg=True)),
            (T.log, t(pos, rg=True)),
            (T.relu, t(far, rg=True)),
            (T.neg, t(a_np, rg=True)),
            (T.square, t(a_np, rg=True)),
            (lambda x: T.pow_scalar(x, 1.7), t(pos, rg=True)),
            (lambda x: T.pow_scalar(x, 2.0), t(a_np, rg=True)),
            (lambda x: T.tensor_sum(x, axes=0), t(a_np, rg=True)),
            (lambda x: T.tensor_mean(x, axes=1), t(a_np, rg=True)),
            (lambda x, b=t(b_np): T.concat([x, b], axis=1), t(a_np, rg=True)),
            (lambda x: T.take_rows(x, [1, 0, 1]), t(a_np, rg=True)),
            (lambda x: T.softmax(x, axis=1), t(a_np * 2, rg=True)),
            (lambda x: T.log_softmax(x, axis=1), t(a_np * 2, rg=True)),
        ]
        for op, x in cases:
            f = lambda v, op=op: _weighted_scalar(op(v), np.random.default_rng(trials))
            report = T.grad_check(f, x, h=1e-4, tol=1e-4)
            assert report.passed, f"op {op} max_rel_error={report.max_rel_error:.3e}"
            trials += 1
    assert trials >= 100
