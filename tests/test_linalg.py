import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsep import (
    GeometryError,
    LocalOperator,
    embed,
    herm_exp,
    herm_fn,
    identity,
    kron,
    min_eig,
    op_norm,
    partial_trace,
    partial_transpose,
    trace_norm,
)
from chainsep.linalg import HERMITICITY_RTOL, are_hermitian
from helpers import (
    embed_oracle,
    expm_oracle,
    partial_trace_oracle,
    partial_transpose_oracle,
    random_hermitian,
    random_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

BELL = np.zeros((4, 4), dtype=complex)
for i in (0, 3):
    for j in (0, 3):
        BELL[i, j] = 0.5


def test_embed_identity_padding():
    op = LocalOperator((2,), SZ)
    out = embed(op, (1, 2))
    assert np.allclose(out.matrix, np.kron(np.eye(2), SZ))


def test_embed_full_identity():
    out = embed(identity((1,)), (1, 2, 3))
    assert np.allclose(out.matrix, np.eye(8))


def test_embed_noncontiguous_vs_oracle():
    op = LocalOperator((1, 3), np.kron(SX, SX))
    out = embed(op, (1, 2, 3))
    expect = embed_oracle(np.kron(SX, SX), (1, 3), (1, 2, 3))
    assert np.abs(out.matrix - expect).max() < 1e-14


def test_embed_trace_scaling():
    rng = np.random.default_rng(3)
    op = LocalOperator((0, 2), random_state(rng, 4))
    out = embed(op, (0, 1, 2, 5))
    assert out.trace().real == pytest.approx(op.trace().real * 4, rel=1e-13)


def test_embed_requires_subset():
    with pytest.raises(GeometryError):
        embed(LocalOperator((0,), SZ), (1, 2))


@pytest.mark.parametrize("x_complex, y_complex", [(False, False), (False, True), (True, False), (True, True)])
def test_kron_is_the_product_of_embeddings(x_complex, y_complex):
    rng = np.random.default_rng(4)

    def op(support, is_complex):
        m = random_hermitian(rng, 2 ** len(support))
        return LocalOperator(support, m if is_complex else m.real)

    x, y = op((0, 2), x_complex), op((3, 5), y_complex)
    got = kron(x, y)
    want = embed(x, got.support) @ embed(y, got.support)
    assert got.support == (0, 2, 3, 5)
    assert got.matrix.dtype == want.matrix.dtype
    if x_complex and y_complex:  # complex products round differently in a matmul
        assert np.abs(got.matrix - want.matrix).max() <= 1e-15 * np.abs(want.matrix).max()
    else:
        assert np.array_equal(got.matrix, want.matrix)


def test_kron_needs_x_left_of_y_and_one_local_dim():
    x, y = LocalOperator((0, 2), np.eye(4)), LocalOperator((2, 3), np.eye(4))
    for left, right in ((x, y), (y, x), (LocalOperator((4,), SZ), x)):
        with pytest.raises(GeometryError):
            kron(left, right)
    with pytest.raises(GeometryError):
        kron(LocalOperator((0,), np.eye(3), local_dim=3), LocalOperator((1,), SZ))


def test_partial_trace_identity():
    out = partial_trace(identity((1, 2)), (2,))
    assert np.allclose(out.matrix, 2 * np.eye(2))


def test_partial_trace_product_state():
    ket00 = np.zeros((4, 4))
    ket00[0, 0] = 1.0
    out = partial_trace(LocalOperator((1, 2), ket00), (2,))
    assert np.allclose(out.matrix, np.diag([1.0, 0.0]))


def test_partial_trace_vs_oracle():
    rng = np.random.default_rng(7)
    rho = random_state(rng, 8)
    out = partial_trace(LocalOperator((0, 1, 2), rho), (1,))
    expect = partial_trace_oracle(rho, (0, 1, 2), (1,))
    assert np.abs(out.matrix - expect).max() < 1e-13


def test_partial_trace_requires_subset():
    with pytest.raises(GeometryError):
        partial_trace(identity((0, 1)), (5,))


def test_partial_transpose_product():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    out = partial_transpose(LocalOperator((0, 1), np.kron(a, b)), (1,))
    assert np.allclose(out.matrix, np.kron(a, b.T))


def test_partial_transpose_involution():
    rng = np.random.default_rng(13)
    rho = random_state(rng, 8)
    op = LocalOperator((0, 1, 2), rho)
    twice = partial_transpose(partial_transpose(op, (0, 2)), (0, 2))
    assert np.array_equal(twice.matrix, op.matrix)


def test_partial_transpose_bell_spectrum():
    out = partial_transpose(LocalOperator((0, 1), BELL), (1,))
    w = np.sort(np.linalg.eigvalsh(out.matrix))
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_vs_oracle():
    rng = np.random.default_rng(17)
    rho = random_state(rng, 8)
    out = partial_transpose(LocalOperator((0, 1, 2), rho), (1, 2))
    expect = partial_transpose_oracle(rho, (0, 1, 2), (1, 2))
    assert np.abs(out.matrix - expect).max() < 1e-14


def test_herm_fn_zero_matrix():
    out = herm_fn(LocalOperator((0,), np.zeros((2, 2))), np.exp)
    assert np.allclose(out.matrix, np.eye(2))


def test_herm_fn_pauli_z():
    out = herm_fn(LocalOperator((0,), SZ), lambda x: np.exp(-x))
    assert np.allclose(out.matrix, np.diag([np.exp(-1), np.exp(1)]))


def test_herm_exp_vs_series_oracle():
    rng = np.random.default_rng(19)
    h = random_hermitian(rng, 8)
    out = herm_exp(LocalOperator((0, 1, 2), h))
    expect = expm_oracle(h)
    rel = np.linalg.norm(out.matrix - expect) / np.linalg.norm(expect)
    assert rel < 1e-12


def test_herm_exp_keeps_real_operators_real():
    h = LocalOperator((0,), SX.real)
    assert h.matrix.dtype == np.float64
    real = herm_exp(h, -0.7)
    assert real.matrix.dtype == np.float64
    assert np.abs(real.matrix - expm_oracle(-0.7 * SX)).max() < 1e-14
    # a complex scale on a real operator must not lose its imaginary part
    rotated = herm_exp(h, 0.3j)
    assert rotated.matrix.dtype == np.complex128
    expect = np.cos(0.3) * np.eye(2) + 1j * np.sin(0.3) * SX
    assert np.abs(rotated.matrix - expect).max() < 1e-14
    assert np.abs(rotated.matrix - expm_oracle(0.3j * SX)).max() < 1e-14


def test_herm_fn_rejects_nonhermitian():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        herm_fn(LocalOperator((0,), m), np.exp)


def test_norms_identity():
    eye = identity((0, 1))
    assert op_norm(eye) == pytest.approx(1.0)
    assert trace_norm(eye) == pytest.approx(4.0)
    assert np.linalg.norm(eye.matrix) == pytest.approx(2.0)


def test_norms_diagonal():
    op = LocalOperator((0,), np.diag([3.0, -4.0]))
    assert op_norm(op) == pytest.approx(4.0)
    assert trace_norm(op) == pytest.approx(7.0)
    assert min_eig(op) == pytest.approx(-4.0)


def test_norm_ordering_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = random_hermitian(rng, 8)
        op = LocalOperator((0, 1, 2), m)
        assert min_eig(op) <= op_norm(op) <= np.linalg.norm(m) + 1e-12
        assert np.linalg.norm(m) <= trace_norm(op) + 1e-12
    # the spectrum, and every norm read from it, is defined for Hermitian operators only
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for read in (op_norm, trace_norm, min_eig):
        with pytest.raises(ValueError):
            read(LocalOperator((0, 1, 2), g))


# -- invariants ------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**10 - 1), st.integers(1, 3))
def test_ptrace_of_embed_recovers_scaled_op(seed, pad):
    rng = np.random.default_rng(seed)
    op = LocalOperator((0, 1), random_hermitian(rng, 4))
    target = (0, 1) + tuple(range(2, 2 + pad))
    out = partial_trace(embed(op, target), tuple(range(2, 2 + pad)))
    assert np.abs(out.matrix - 2**pad * op.matrix).max() < 1e-13


def test_partial_transpose_trace_norm_on_products():
    rng = np.random.default_rng(29)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 4)
    op = LocalOperator((0, 1, 2), np.kron(a, b))
    before = trace_norm(op)
    after = trace_norm(partial_transpose(op, (1, 2)))
    assert after == pytest.approx(before, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**10 - 1))
def test_herm_exp_inverse_pair(seed):
    rng = np.random.default_rng(seed)
    h = LocalOperator((0, 1), random_hermitian(rng, 4))
    prod = herm_exp(h, 1.0) @ herm_exp(h, -1.0)
    assert np.abs(prod.matrix - np.eye(4)).max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**10 - 1))
def test_partial_trace_preserves_psd(seed):
    rng = np.random.default_rng(seed)
    rho = LocalOperator((0, 1, 2), random_state(rng, 8))
    out = partial_trace(rho, (1,))
    assert min_eig(out) >= -1e-12 * max(1, op_norm(out))
    assert out.trace().real == pytest.approx(1.0, abs=1e-12)


def test_support_must_be_sorted():
    with pytest.raises(GeometryError):
        LocalOperator((2, 1), np.eye(4))


@pytest.mark.parametrize("side", [4, 200, 256, 300])
def test_is_hermitian_matches_the_whole_matrix_check(side):
    """The check decides as max |M - M^dag| <= rtol max(1, ||M||) does, for a
    defect anywhere in the matrix, above and below the tolerance."""
    rng = np.random.default_rng(side)
    h = random_hermitian(rng, side)
    tol = HERMITICITY_RTOL * np.linalg.norm(h)
    for i, j in ((0, side - 1), (side - 1, side // 2), (side // 2, 1), (2, 2)):
        for size in (0.4 * tol, 3.0 * tol):
            m = h.copy()
            m[i, j] += size if i != j else 1j * size
            want = np.abs(m - m.conj().T).max() <= HERMITICITY_RTOL * np.linalg.norm(m)
            assert want == (size < tol)
            assert LocalOperator((0,), m, local_dim=side).is_hermitian() == want, (i, j, size)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [float, complex])
def test_is_hermitian_reads_the_norm_of_large_entries_without_overflow(dtype):
    """Squared, entries past about 1e154 overflow ||M||_F to inf, and then any
    asymmetry would pass: the check reads it as s ||M / s||_F, s the largest
    |entry|.  A zero matrix passes, with no warning, alone and in a stack."""
    skew = np.array([[0, 1e200], [0, 0]], dtype)
    herm = np.array([[1e200, -3e200], [-3e200, 2e199]], dtype)
    zero = np.zeros((2, 2), dtype)
    cases = ((skew, False), (herm, True), (zero, True))
    for m, want in cases:
        assert bool(are_hermitian(m)) is want
        assert LocalOperator((0,), m).is_hermitian() is want
    assert are_hermitian(np.stack([m for m, _ in cases])).tolist() == [w for _, w in cases]
    assert are_hermitian(np.zeros((3, 2, 2), dtype)).tolist() == [True] * 3
