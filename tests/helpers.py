"""Independent brute-force oracles used to pin expected values.

Everything here works at the level of explicit index loops or series
expansions, on purpose: these implementations share no code path with the
library routines they check.  `gibbs_state_oracle` is the one whole Gibbs
state, which the library never forms: a dense eigh of the freshly assembled
Hamiltonian.  `conjugated_marginals_oracle` takes only the
Hamiltonian assembly and a whole-matrix exponential from the library, to
check the spectral route of the certificate's core.  `interface_operator` is
the one oracle for the interface operator E (and, as E(-conj s)^dag, for
E^{-1}): freshly assembled Hamiltonians exponentiated whole, where the library
reads ||E|| and ||E^{-1}|| from E formed of `Chain.exp`'s factors.
`traced_interface_product` and `telescope_verify` form the traced products of
the telescope from it, with (rho^B)^{1/2} from a dense eigh of H_B, to check
the closed forms the library reads instead.
`relative_entropy` forms both matrix logarithms whole, to check the library's
I(A:C), a sum of entropies, against D(rho_AC || rho_A x rho_C).
`record_solver` and `record_eigh` count the library's dense eigensolves, and
`feed_hamiltonian` hands `Chain.spectrum` a matrix of a test's own.
"""
import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

# a negativity at most this is PPT up to eigensolver noise, which on a 2x2 or
# 2x3 cut means separable
NEGATIVITY_ZERO_TOL = 1e-12


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


def gibbs_state_oracle(ia, region):
    """e^{-(H_R - w_min)} / sum e^{-(w - w_min)} on `region`, from the assembled
    H_R and np.linalg.eigh: each weight is in (0, 1], so it cannot overflow."""
    from chainsep import LocalOperator
    from chainsep.model import hamiltonian

    w, v = np.linalg.eigh(hamiltonian(ia, region).matrix)
    p = np.exp(w[0] - w)
    return LocalOperator(region, (v * (p / p.sum())) @ v.conj().T, ia.local_dim)


def conjugated_marginals_oracle(ia, regions, k):
    """(rho~_A, rho~_C, rho~_AC), each e^{H_X/2} rho_X e^{H_X/2}, for A and C
    clipped to the k-neighbourhood of B and its Gibbs state, from freshly
    assembled Hamiltonians exponentiated whole and partial_trace_oracle."""
    from chainsep import herm_exp, k_neighborhood
    from chainsep.model import hamiltonian

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


def interface_operator(ia, x, y, s):
    """E(s) = e^{-sH_XY} e^{s(H_X (x) 1 + 1 (x) H_Y)} on X + Y.  Since
    (e^{cH})^dag = e^{conj(c) H}, E(s)^{-1} = interface_operator(ia, x, y, -conj(s))^dag."""
    from chainsep import embed, herm_exp
    from chainsep.model import hamiltonian

    xy = tuple(x) + tuple(y)
    h_split = embed(hamiltonian(ia, x), xy) + embed(hamiltonian(ia, y), xy)
    return herm_exp(hamiltonian(ia, xy), -s) @ herm_exp(h_split, s)


def traced_interface_product(chain, regions, kk):
    """tr_B[rho^B F_kk], where F_kk = M^dag M, M = E_C E_A, is the four-factor
    product of kk-truncated interface operators at s = 1/2.

    F_kk acts on the kk-neighbourhood of B only, so the product is computed
    there (at least one site beyond B on each side) and callers embed it.
    Under tr_B, rho^B splits into (rho^B)^{1/2} on each side, so the product
    is the Gram tr_B[N^dag N] of N = M (1 (x) (rho^B)^{1/2} (x) 1): Hermitian
    PSD by construction, from one matmul of neighbourhood size.
    """
    from chainsep import LocalOperator, embed, identity
    from chainsep.model import hamiltonian
    from chainsep.separability import TELESCOPE_S

    def build():
        d, b = chain.ia.local_dim, regions.b
        left, right = regions.clip(max(kk, 1))
        d_l, d_b, d_r = (d ** len(part) for part in (left, b, right))
        if kk:
            ea = interface_operator(chain.ia, left, b, TELESCOPE_S)
            ec = interface_operator(chain.ia, left + b, right, TELESCOPE_S)
        else:  # A and C clip to nothing: no cross terms, so E_A = E_C = 1
            ea = ec = identity(b, d)
        ea = embed(ea, left + b).matrix
        ec = embed(ec, left + b + right).matrix
        # (rho^B)^{1/2} from a dense eigh of the freshly assembled H_B
        w, v = np.linalg.eigh(hamiltonian(chain.ia, b).matrix)
        root_b = (v * np.sqrt(np.exp(w[0] - w) / np.exp(w[0] - w).sum())) @ v.conj().T
        # E_A (1 (x) (rho^B)^{1/2}); the B legs are the last of E_A's columns
        ea_root = (ea.reshape(-1, d_b) @ root_b).reshape(ea.shape)
        # N = E_C (ea_root (x) 1), computed with rows (row of E_C, right leg)
        # and columns (left, B), so N comes out with legs (row, right, left, B)
        dim, d_lb = ec.shape[0], d_l * d_b
        n = ec.reshape(dim, d_lb, d_r).transpose(0, 2, 1).reshape(-1, d_lb) @ ea_root
        # contract rows and B: the Gram of the rows (left, right)
        k = n.reshape(dim, d_r, d_l, d_b).transpose(2, 1, 0, 3).reshape(d_l * d_r, -1)
        return LocalOperator(left + right, k.conj() @ k.T, d)

    return chain.cached(("traced", regions, kk), build)


@dataclass(frozen=True)
class TelescopeReport:
    k0: int
    identity_rel_err: float
    k0_term_rel_err: float
    tail_norms: tuple


def telescope_verify(system, regions, k0):
    """Check the library's telescope at radius k0 against the interface route.

    With P_kk the traced products of `traced_interface_product`, verifies
    (a) that P_k0 plus the tails P_{k+1} - P_k, k = k0..max(|A|,|C|)-1, which
    telescope to P_kmax, equals the library's closed form at kmax, the
    sandwiched marginal (Z_ABC / Z_B) e^{H_AC/2} rho_AC e^{H_AC/2}, and
    (b) that P_k0 equals the library's closed form at k0.
    """
    from chainsep import Chain, GeometryError, embed, op_norm
    from chainsep.separability import _closed_form, _rel_err

    chain = Chain.of(system)
    if len(regions.b) < chain.ia.interaction_range:
        raise GeometryError("|B| must be at least the interaction range")
    if k0 < 1:
        raise GeometryError("k0 must be >= 1")
    kmax = max(len(regions.a), len(regions.c))
    (ratio, f_k0, _), (scale, top, _) = (_closed_form(chain, regions, k) for k in (k0, kmax))
    products = [embed(traced_interface_product(chain, regions, kk), regions.ac)
                for kk in range(k0, max(kmax, k0) + 1)]
    tails = [upper - lower for lower, upper in zip(products, products[1:])]
    return TelescopeReport(
        k0,
        _rel_err(products[-1], scale * top),
        _rel_err(products[0], ratio * f_k0),
        tuple(op_norm(t) for t in tails),
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


def relative_entropy(rho, sigma):
    """D(rho || sigma) = tr rho (log rho - log sigma) of two density matrices,
    each logarithm formed whole from its own eigh."""
    def log(m):
        w, v = np.linalg.eigh(m)
        return (v * np.log(np.clip(w, 1e-300, None))) @ v.conj().T

    return float(np.trace(rho @ (log(rho) - log(sigma))).real)


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


def entries_of(m):
    """A dense matrix as its nonzero entries, in the library's `Entries` form."""
    from chainsep.model import Entries

    keys = np.flatnonzero(m)
    return Entries(keys, m.ravel()[keys], len(m))


def feed_hamiltonian(monkeypatch, build):
    """From now until the end of the test, `Chain.spectrum` reads the entries of
    build(region) as the Hamiltonian of each region it solves."""
    import importlib

    gibbs_module = importlib.import_module("chainsep.gibbs")  # not chainsep.gibbs, a function
    monkeypatch.setattr(gibbs_module, "hamiltonian_entries", lambda ia, r: entries_of(build(r)))
