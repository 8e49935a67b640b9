"""Independent brute-force oracles used to pin expected values.

Everything here works at the level of explicit index loops or series
expansions, on purpose: these implementations share no code path with the
library routines they check.  `record_solver` and `record_eigh` count the
library's dense eigensolves instead.
"""
import hashlib

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
    """Explicit double sum over the dropped indices."""
    support = list(support)
    keep = [s for s in support if s not in set(drop)]
    n, k = len(support), len(keep)
    keep_pos = [support.index(s) for s in keep]
    drop_pos = [support.index(s) for s in support if s in set(drop)]
    out = np.zeros((d**k, d**k), dtype=complex)
    for row in range(d**n):
        ridx = np.unravel_index(row, (d,) * n)
        for col in range(d**n):
            cidx = np.unravel_index(col, (d,) * n)
            if any(ridx[p] != cidx[p] for p in drop_pos):
                continue
            r_out = (
                np.ravel_multi_index([ridx[p] for p in keep_pos], (d,) * k)
                if k
                else 0
            )
            c_out = (
                np.ravel_multi_index([cidx[p] for p in keep_pos], (d,) * k)
                if k
                else 0
            )
            out[r_out, c_out] += matrix[row, col]
    return out


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
