"""Brute-force full-Hilbert-space evolution for small baths.

Ground truth for the analytic dynamics. The Hamiltonian is one Heisenberg
star, sum_s (k_a[s] S_A + k_b[s] S_B) . I_s + j S_A . S_B, over per-nucleus
couplings: a shared bath, two private baths and an inhomogeneous dot are
choices of k_a and k_b. Being a sum of isotropic pair terms c S_i . S_j, it
conserves the total F_z: it is assembled as real blocks, one per number of
down spins, straight from bit operations on the (n + 2)-bit basis index (no
Kronecker products, no complex 4 * 2^n square array). It also commutes with
the global spin flip, which maps block k onto block n + 2 - k: one block of
each mirror pair is diagonalised and the other reads its eigenvectors in
reverse, and the middle block (even n) splits into flip-even and flip-odd
halves. The reduced pair state at any time is an exact partial trace
evaluated block pair by block pair. No time stepping, so there is no
integrator error to disentangle from formula errors.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .states import TwoQubitState, density_to_state, state_to_density

MAX_BATH_SPINS = 12


class DimensionCapError(ValueError):
    pass


class EigenBlock(NamedTuple):
    """Eigenvalues and real eigenvectors of one Hamiltonian block.

    ``rows[a]`` is ``(lo, hi, m)``: eigenvector rows ``lo:hi`` are pair index
    a times the environment states of group m, in that group's order; it is
    None when pair index a has no rows in the block.
    """

    vals: np.ndarray
    vecs: np.ndarray
    rows: tuple


@dataclass
class FullSystem:
    """Qubit-pair + bath Hamiltonian as real total-F_z blocks.

    Basis index bits from the top: qubit A, qubit B, bath spins 0 .. n-1
    (1 = down), i.e. |pair index a> (x) |bath index>. The blocks are built
    from the pair ``terms`` (site, site, c) when read and are not kept.
    """

    n_bath: int
    terms: list[tuple[int, int, float]]
    _eig: list[EigenBlock] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return 4 << self.n_bath

    @property
    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``blocks[k]``: the ascending indices with k down spins and the real H on them."""
        n_sites = self.n_bath + 2
        low = list(_heisenberg_blocks(n_sites, self.terms))
        mirrors = [(_flipped(idx, n_sites), h[::-1, ::-1]) for idx, h in reversed(low[: (n_sites + 1) // 2])]
        return low + mirrors

    @property
    def hamiltonian(self) -> np.ndarray:
        """The dense real Hamiltonian, assembled from the term list on each call."""
        h = np.zeros((self.dim, self.dim))
        for idx, block in self.blocks:
            h[np.ix_(idx, idx)] = block
        return h

    def eigensystem(self) -> list[EigenBlock]:
        """Every block's eigensystem (see ``_flip_paired_eigh``), with its pair-index row segments.

        Block k's rows for pair index a are that pair state times the bath
        states with k - popcount(a) down spins, the segment's group.
        """
        if self._eig is None:
            self._eig = []
            for k, (idx, vals, vecs) in enumerate(_flip_paired_eigh(self.n_bath + 2, self.terms)):
                ends = np.searchsorted(idx, np.arange(5) << self.n_bath)
                rows = tuple((lo, hi, k - bin(a).count("1")) if hi > lo else None
                             for a, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])))
                self._eig.append(EigenBlock(vals, vecs, rows))
        return self._eig


def _flipped(idx: np.ndarray, n_sites: int) -> np.ndarray:
    """Block n_sites - k's ascending indices from block k's: every bit complemented."""
    return (idx ^ ((1 << n_sites) - 1))[::-1]


def _heisenberg_blocks(n_sites: int, terms):
    """Yields (indices, real block) of sum c S_i . S_j over ``terms`` (i, j, c) for
    k = 0 .. n_sites // 2 down spins; the other blocks are their mirrors under the flip.

    Site s is bit n_sites - 1 - s of the basis index. A term adds c/4 to the
    diagonal where the two bits agree and -c/4 where they differ, and c/2
    between the two states that swap differing bits.
    """
    index = np.arange(1 << n_sites)
    downs = sum((index >> bit) & 1 for bit in range(n_sites))
    bit_i, bit_j = (n_sites - 1 - np.array([t[:2] for t in terms], dtype=int).reshape(-1, 2)).T
    c = np.array([t[2] for t in terms], dtype=float)
    for k in range(n_sites // 2 + 1):
        idx = index[downs == k]
        differ = ((idx >> bit_i[:, None]) ^ (idx >> bit_j[:, None])) & 1  # (term, state)
        h = np.diag((0.25 * c) @ (1 - 2 * differ))
        t, rows = np.nonzero(differ)
        cols = np.searchsorted(idx, idx[rows] ^ ((1 << bit_i[t]) | (1 << bit_j[t])))
        np.add.at(h, (rows, cols), 0.5 * c[t])
        yield idx, h


def _flip_paired_eigh(n_sites: int, terms) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(indices, eigenvalues, eigenvectors) of every block of sum c S_i . S_j, k = 0 .. n_sites.

    The flip C (every bit of the index complemented) is a permutation without
    phases that commutes with each S_i . S_j and maps block k onto block
    n_sites - k reversed: that block has block k's eigenvalues, and its rows
    reversed as eigenvectors (a view). On the middle block (even n_sites), C
    reverses the order without a fixed point: with A its upper-left quarter
    and B the upper-right one with the columns reversed, the flip-even and
    flip-odd eigenvectors u of A + B and A - B give [u; +-u reversed] / sqrt(2).
    """
    out = [None] * (n_sites + 1)
    for k, (idx, h) in enumerate(_heisenberg_blocks(n_sites, terms)):
        if 2 * k < n_sites:
            vals, vecs = np.linalg.eigh(h)
            out[k], out[n_sites - k] = (idx, vals, vecs), (_flipped(idx, n_sites), vals, vecs[::-1])
        else:
            half = idx.size // 2
            a, b = h[:half, :half], h[:half, half:][:, ::-1]
            (v_even, u_even), (v_odd, u_odd) = np.linalg.eigh(a + b), np.linalg.eigh(a - b)
            vecs = np.block([[u_even, u_odd], [u_even[::-1], -u_odd[::-1]]])
            vecs *= np.sqrt(0.5)  # in place: at n = 12 a second copy would set the peak
            out[k] = idx, np.concatenate([v_even, v_odd]), vecs
    return out


def eigh_cost(n_bath: int) -> tuple[int, int]:
    """(largest ``eigh`` dimension, bytes of the kept eigenvectors) of ``_flip_paired_eigh``."""
    n_sites = n_bath + 2
    low = [math.comb(n_sites, k) for k in range((n_sites + 1) // 2)]
    middle = math.comb(n_sites, n_sites // 2) if n_sites % 2 == 0 else 0
    return max(low + [middle // 2]), 8 * sum(d * d for d in low + [middle])


def build(k_a, k_b, j: float = 0.0) -> FullSystem:
    """The Heisenberg pair terms of sum_s (k_a[s] S_A + k_b[s] S_B) . I_s + j S_A . S_B.

    ``k_a`` and ``k_b`` are matching 1-d arrays of per-nucleus couplings, one
    entry per bath spin. Sites are qubit A (0), qubit B (1) and bath spin s
    (s + 2); the terms are the exchange, then qubit A's, then qubit B's, and
    zero terms are dropped.
    """
    k_a, k_b = np.asarray(k_a, dtype=float), np.asarray(k_b, dtype=float)
    if k_a.ndim != 1 or k_a.shape != k_b.shape:
        raise DimensionCapError(f"need matching 1-d coupling arrays, got shapes {k_a.shape}, {k_b.shape}")
    n_bath = k_a.size
    if n_bath > MAX_BATH_SPINS:
        raise DimensionCapError(f"n_bath = {n_bath} exceeds the dense-oracle cap of {MAX_BATH_SPINS}")
    if n_bath < 1:
        raise DimensionCapError("need at least one bath spin")
    pair_terms = [(q, s + 2, k[s]) for q, k in enumerate((k_a, k_b)) for s in range(n_bath)]
    terms = [t for t in [(0, 1, j)] + pair_terms if t[2] != 0.0]
    return FullSystem(n_bath, terms)


def evolve_reduced(system: FullSystem, state: TwoQubitState, times) -> TwoQubitState:
    """Reduced pair states at the requested times on the fully mixed bath (identity / 2^n),
    one batch over the grid.

    The bath state commutes with the bath I_z, so the initial state couples
    block p to block q only where p - q = popcount(a) - popcount(b) for some
    rho_ab[a, b] != 0; the kernel forms just those block pairs, exactly,
    whatever the state. Other bath states that commute with I_z go to
    ``reduced_trajectory`` as its environment.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    env = dict.fromkeys(range(system.n_bath + 1), 0.5**system.n_bath)
    red = reduced_trajectory(system.eigensystem(), state_to_density(state), env, times)
    return density_to_state(red)


# Reduced pair dynamics from eigen-blocks. A block's rows with pair index a are
# one segment |a> (x) |environment states of group m>; two segments meet in the
# partial trace, or through the environment state, only when their groups agree.

_PHASE_CHUNK = 1 << 20
_MAX_COLUMNS = 2048


def reduced_trajectory(
    blocks: list[EigenBlock], rho_ab: np.ndarray, env: dict, times: np.ndarray
) -> np.ndarray:
    """Reduced pair density (T, 4, 4) of rho_ab (x) env, evolved to every time.

    ``env[m]`` is the environment state on group m: a number for that multiple
    of the identity, else a real matrix. With W_pa the segment of block p for
    pair index a, R_pq = sum_ab rho_ab[a, b] W_pa^T env[m] W_qb (segments of one
    group m) is the initial state in the eigenbases of blocks p and q, and

        red[t, b, a] = sum_pq sum_jk R_pq[j, k] e^{-i(E_pj - E_qk) t} (W_pb^T W_qa)[j, k]

    Any set of a block's eigenvectors is a block too: blocks wider than
    _MAX_COLUMNS are cut into even column slices, which bounds a block pair's
    arrays (at most 32 MB each at n = 12). Only block pairs that rho_ab couples are
    formed, only the lower triangle b >= a is contracted (the upper one is its
    conjugate), and time chunks bound the phase and product arrays to ~16 MB each.
    """
    parts = []
    for block in blocks:
        size, cuts = block.vals.size, -(-block.vals.size // _MAX_COLUMNS)
        edges = [size * i // cuts for i in range(cuts + 1)]
        parts += [EigenBlock(block.vals[lo:hi], block.vecs[:, lo:hi], block.rows)
                  for lo, hi in zip(edges[:-1], edges[1:])]
    red = np.zeros((times.size, 4, 4), dtype=complex)
    rho_ab = rho_ab if rho_ab.imag.any() else rho_ab.real  # real states stay real below
    coupled = list(zip(*np.nonzero(rho_ab)))  # named states leave most elements zero
    for bp in parts:
        for bq in parts:
            _add_block_pair(red, bp, bq, rho_ab, coupled, env, times)
    upper = np.triu_indices(4, 1)
    red[:, upper[0], upper[1]] = red[:, upper[1], upper[0]].conj()
    return red


def _add_block_pair(red, bp: EigenBlock, bq: EigenBlock, rho_ab, coupled, env, times) -> None:
    """Adds block pair (p, q)'s terms to ``red``; each overlap is dropped after its last use."""
    # pair indices (a, b) whose segments in blocks p and q share a group
    shared = {(a, b): ra[2] for a, ra in enumerate(bp.rows) for b, rb in enumerate(bq.rows)
              if ra and rb and ra[2] == rb[2]}
    sources = [ab for ab in coupled if ab in shared]
    targets = [ab for ab in shared if ab[0] >= ab[1]]
    if not sources or not targets:
        return
    w_p = [r and bp.vecs[r[0] : r[1]] for r in bp.rows]
    w_q = [r and bq.vecs[r[0] : r[1]] for r in bq.rows]
    step = max(1, _PHASE_CHUNK // max(bp.vals.size, bq.vals.size))

    def key(a, b):  # within one block, W_pb^T W_pa is the transpose of W_pa^T W_pb
        return (b, a) if bp is bq and b < a else (a, b)

    uses = Counter(key(a, b) for a, b in sources if np.isscalar(env[shared[a, b]]))
    uses.update(key(b, a) for b, a in targets for _ in range(0, times.size, step))
    cache = {}

    def overlap(a, b):  # W_pa^T W_qb
        ab = key(a, b)
        o = cache.pop(ab) if ab in cache else _gram(w_p[ab[0]], w_q[ab[1]])
        uses[ab] -= 1
        if uses[ab]:
            cache[ab] = o
        return o if ab == (a, b) else o.T

    rho_eig = np.zeros((bp.vals.size, bq.vals.size), dtype=rho_ab.dtype)
    weighted = np.empty_like(rho_eig)
    for a, b in sources:
        e = env[shared[a, b]]
        if np.isscalar(e):
            rho_eig += np.multiply(overlap(a, b), rho_ab[a, b] * e, out=weighted)
        else:
            rho_eig += rho_ab[a, b] * (w_p[a].T @ (e @ w_q[b]))
    for lo in range(0, times.size, step):
        chunk = times[lo : lo + step]
        phases_p = np.exp(-1j * np.outer(chunk, bp.vals))
        phases_q = phases_p if bq is bp else np.exp(-1j * np.outer(chunk, bq.vals))
        for b, a in targets:
            np.multiply(rho_eig, overlap(b, a), out=weighted)
            red[lo : lo + step, b, a] += np.einsum(
                "tk,tk->t", _phase_product(phases_p, weighted), phases_q.conj()
            )


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x.T @ y``; the rows of mirror blocks run backwards, and reversing both spares BLAS a copy."""
    return x[::-1].T @ y[::-1] if x.strides[0] < 0 else x.T @ y


def _phase_product(phases: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``phases @ w`` without a complex copy of a real ``w``."""
    if np.iscomplexobj(w):
        return phases @ w
    both = np.concatenate([phases.real, phases.imag]) @ w
    return both[: phases.shape[0]] + 1j * both[phases.shape[0] :]
