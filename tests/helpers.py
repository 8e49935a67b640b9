"""Independent brute-force oracles used to pin expected values.

Everything here works at the level of explicit index loops or series
expansions, on purpose: these implementations share no code path with the
library routines they check.  `conjugated_marginals_oracle` takes only the
Hamiltonian assembly and a whole-matrix exponential from the library, to
check the spectral route of the certificate's core.  `record_solver` and
`record_eigh` count the library's dense eigensolves instead.
"""
import hashlib
import itertools

import numpy as np


def embed_oracle(matrix, support, target, d=2):
    """Element-wise identity padding: big[I, J] = m[i_sub, j_sub] * prod of
    deltas over the padded sites."""
    support = list(support)
    target = list(target)
    n = len(target)
    m = len(support)
    pos = [target.index(s) for s in support]
    big = np.zeros((d**n, d**n), dtype=complex)
    for row in range(d**n):
        ridx = np.unravel_index(row, (d,) * n)
        for col in range(d**n):
            cidx = np.unravel_index(col, (d,) * n)
            if any(
                ridx[i] != cidx[i] for i in range(n) if i not in pos
            ):
                continue
            sub_r = np.ravel_multi_index([ridx[p] for p in pos], (d,) * m) if m else 0
            sub_c = np.ravel_multi_index([cidx[p] for p in pos], (d,) * m) if m else 0
            big[row, col] = matrix[sub_r, sub_c]
    return big


def partial_trace_oracle(matrix, support, drop, d=2):
    """Explicit sum over the dropped indices, one entry of the result at a
    time, in row-major order of the dropped legs."""
    support = list(support)
    n = len(support)
    drop_pos = [i for i, s in enumerate(support) if s in set(drop)]
    keep_pos = [i for i in range(n) if i not in drop_pos]
    k = len(keep_pos)

    def flat(kept, dropped):  # row-major index of the full tensor's legs
        legs = [0] * n
        for p, v in zip(keep_pos + drop_pos, kept + dropped):
            legs[p] = v
        out = 0
        for v in legs:
            out = out * d + v
        return out

    out = np.zeros((d**k, d**k), dtype=complex)
    for r_out, r_kept in enumerate(itertools.product(range(d), repeat=k)):
        for c_out, c_kept in enumerate(itertools.product(range(d), repeat=k)):
            for b in itertools.product(range(d), repeat=n - k):
                out[r_out, c_out] += matrix[flat(r_kept, b), flat(c_kept, b)]
    return out


def conjugated_marginals_oracle(ia, regions, k):
    """(rho~_A, rho~_C, rho~_AC), each e^{H_X/2} rho_X e^{H_X/2}, for A and C
    clipped to the k-neighbourhood of B and its Gibbs state, from freshly
    assembled Hamiltonians exponentiated whole and partial_trace_oracle."""
    from chainsep import hamiltonian, herm_exp, k_neighborhood

    d = ia.local_dim
    hood = k_neighborhood(regions, k)
    a = [s for s in regions.a if s in hood]
    c = [s for s in regions.c if s in hood]
    g = herm_exp(hamiltonian(ia, hood), -1.0).matrix
    rho_ac = partial_trace_oracle(g / np.trace(g).real, hood, set(hood) - set(a + c), d)
    rho_a = partial_trace_oracle(rho_ac, a + c, c, d)
    rho_c = partial_trace_oracle(rho_ac, a + c, a, d)

    def conjugate(m, region):
        e = herm_exp(hamiltonian(ia, region), 0.5).matrix
        return e @ m @ e

    return conjugate(rho_a, a), conjugate(rho_c, c), conjugate(rho_ac, a + c)


def core_split_rel_err(core, tilde_a, tilde_c, tilde_ac):
    """Largest relative Frobenius error of the core split against the oracle's
    conjugated marginals: of `tilde_ac`, of `delta`, and of the rebuilt
    F_A (x) F_C + a 1 (x) F_C + c F_A (x) 1 + 2 gamma 1 + Delta.  Asserts
    that the shifted factors F_A and F_C are PSD."""
    a, c = core.min_eig_a, core.min_eig_c
    fa = tilde_a - a * np.eye(len(tilde_a))
    fc = tilde_c - c * np.eye(len(tilde_c))
    for f in (fa, fc):
        assert np.linalg.eigvalsh(f)[0] >= -1e-10 * max(1.0, np.linalg.norm(f))
    one_a, one_c = np.eye(len(fa)), np.eye(len(fc))
    rebuilt = (
        np.kron(fa, fc) + a * np.kron(one_a, fc) + c * np.kron(fa, one_c)
        + 2 * core.gamma * np.eye(len(tilde_ac)) + core.delta.matrix
    )
    scale = np.linalg.norm(tilde_ac)
    delta = tilde_ac - np.kron(tilde_a, tilde_c)
    return max(
        np.linalg.norm(m - want) / scale
        for m, want in (
            (core.tilde_ac.matrix, tilde_ac), (core.delta.matrix, delta), (rebuilt, tilde_ac)
        )
    )


def partial_transpose_oracle(matrix, support, subset, d=2):
    """Index-level transposition of the chosen legs."""
    support = list(support)
    n = len(support)
    sub_pos = [i for i, s in enumerate(support) if s in set(subset)]
    out = np.zeros_like(np.asarray(matrix, dtype=complex))
    for row in range(d**n):
        ridx = list(np.unravel_index(row, (d,) * n))
        for col in range(d**n):
            cidx = list(np.unravel_index(col, (d,) * n))
            nr, nc = list(ridx), list(cidx)
            for p in sub_pos:
                nr[p], nc[p] = cidx[p], ridx[p]
            out[np.ravel_multi_index(nr, (d,) * n), np.ravel_multi_index(nc, (d,) * n)] = matrix[row, col]
    return out


def expm_oracle(matrix, terms=30):
    """Taylor series with scaling and squaring."""
    m = np.asarray(matrix, dtype=complex)
    nrm = np.linalg.norm(m)
    squarings = max(0, int(np.ceil(np.log2(max(nrm, 1e-16))))+ 2)
    x = m / (2**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2


def random_state(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def matrix_digest(m):
    m = np.ascontiguousarray(m)
    return m.shape, m.dtype.str, hashlib.sha256(m.tobytes()).hexdigest()


def record_solver(monkeypatch, name):
    """List that collects the digest of every matrix passed to np.linalg.<name>
    from now until the end of the test."""
    inputs = []
    solver = getattr(np.linalg, name)

    def recording_solver(a, *args, **kwargs):
        inputs.append(matrix_digest(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording_solver)
    return inputs


def record_eigh(monkeypatch):
    return record_solver(monkeypatch, "eigh")
