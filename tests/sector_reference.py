"""Reference implementations of the shared-bath channel that work from
Clebsch-Gordan coefficients, O(2I+1) per sector, instead of 6j symbols.

- ``cg_tables``: <1 mu; I m-mu | F m> over all sectors, O(2I+1) per sector.
- ``RankOneSectorEvolver``: rank-one level projectors in every total-m block
  and Gram matrices over the bath m; exact for any state, and cheap enough
  for single sectors up to I ~ 10^5, where no dense reference reaches.
- ``moment_map``: the equal-coupling polarization map from Clebsch-Gordan
  moment tensors on the integer comb, and ``comb_map``, the same readout of
  the channel functions under test.
- ``sector_spectrum``: the four levels and the mixing of one sector, from
  ``common._sector_levels``, in named fields.
"""

from dataclasses import dataclass

import numpy as np

from spinbath import common
from spinbath.common import AssumptionError, evaluate_lines
from spinbath.states import KET_SINGLET, KET_TRIPLET0, density_to_state, state_to_density


@dataclass(frozen=True)
class SectorCoefficients:
    """Spectral data of one bath sector, phases relative to the singlet level.

    ``level_f_plus`` / ``level_f_minus`` are the F = I+1 and F = I-1 triplet
    levels; ``level_mix_upper`` / ``level_mix_lower`` the two levels of the
    F = I singlet-triplet block. ``phase_mean`` and ``phase_gap`` are half the
    sum and half the difference of the mixed levels, and (``mixing_cos``,
    ``mixing_sin``) parametrize the block rotation with cos^2 + sin^2 = 1.
    """

    sector_spin: float
    level_f_plus: float
    level_f_minus: float
    level_mix_upper: float
    level_mix_lower: float
    phase_mean: float
    phase_gap: float
    mixing_cos: float
    mixing_sin: float


def sector_spectrum(system, i: float) -> SectorCoefficients:
    """Eigenvalues and mixing parameters of the bath sector with spin i."""
    if i < 0:
        raise AssumptionError(f"sector spin must be >= 0, got {i}")
    (lam1, lam2, mix3, mix4), phi = common._sector_levels(system, i)
    # mixing_cos = h / |g| and mixing_sin = |off| / |g|: the angle 2 phi, measured from the upper level
    flip = -1.0 if mix3 < mix4 else 1.0
    return SectorCoefficients(float(i), *(float(x) for x in (
        lam1, lam2, max(mix3, mix4), min(mix3, mix4), 0.5 * (mix3 + mix4), 0.5 * abs(mix3 - mix4),
        flip * np.cos(2.0 * phi), abs(np.sin(2.0 * phi)))))


@dataclass(frozen=True)
class CGTables:
    """The tables of the consecutive sectors ``spins``, from index ``lo`` on.

    c[f, mu, s, k] = <mu, m - mu | F, m> of sector s: F rows (I+1, I, I-1),
    mu rows (+1, 0, -1), m = m_tot[s, k] = I + 1 - k. Every sector has the
    columns of the widest one; entries outside |m - mu| <= I, |m| <= F and
    the triangle F >= |I - 1| are zero.
    """

    lo: int
    spins: np.ndarray
    c: np.ndarray
    m_tot: np.ndarray


def cg_tables(spins):
    """Closed-form <1 mu; I m-mu | F m> for F = I+1, I, I-1 over the ascending
    sectors ``spins``, vectorised over sectors and m, yielded in chunks of at
    most ``common._PHASE_BLOCK // 8`` entries (one sector at least).

    The coefficients are the textbook ones for coupling spin I to spin 1
    (Edmonds, *Angular Momentum in Quantum Mechanics*, Table 2), with the
    spin-1 factor written first: the swap factor (-1)^(I+1-F) negates the F = I
    row. Condon-Shortley signs; a spin-0 sector has only its F = 1 row.
    """
    two_i, lo, limit = np.rint(2.0 * np.asarray(spins, dtype=float)).astype(int), 0, common._PHASE_BLOCK // 8
    while lo < two_i.size:
        width = two_i[lo : lo + max(1, limit // (9 * (two_i[lo] + 3)))] + 3
        n = max(1, int(np.searchsorted(9 * np.arange(1, width.size + 1) * width, limit, "right")))
        yield _cg_chunk(lo, 0.5 * two_i[lo : lo + n, None], width[n - 1])
        lo += n


def _cg_chunk(lo, i, width):
    """The tables of the sectors i, shape (S, 1), on ``width`` m columns."""
    m_tot = (i + 1.0) - np.arange(width)
    a, b, a1, b1 = i + m_tot, i - m_tot, i + m_tot + 1.0, i - m_tot + 1.0
    # radicands first; they vanish or turn negative wherever a coefficient
    # must be zero, except past m = -(I+1) (padding) and on the edges of
    # F = I, I-1, which the masks below zero
    c = np.empty((3, 3) + m_tot.shape)
    for (f, mu), x, y in (((0, 0), a, a1), ((0, 1), a1, b1), ((0, 2), b, b1),
                          ((1, 0), a, b1), ((1, 2), b, a1), ((2, 1), a, b)):
        np.multiply(x, y, out=c[f, mu])
    c[::2, 1] *= 2.0
    c[1, 1], c[2, 0], c[2, 2] = 2.0, c[0, 2], c[0, 0]
    np.sqrt(np.maximum(c, 0.0, out=c), out=c)
    # F = I+1, I, I-1 normalizations; a spin-0 sector's F = I and F = I-1
    # rows divide by 1 here, they vanish anyway
    c /= np.sqrt(np.maximum([2.0 * (i + 1.0) * (2.0 * i + 1.0), 2.0 * i * (i + 1.0),
                             2.0 * i * (2.0 * i + 1.0)], 1.0))[:, None]
    c[1, 1] *= -m_tot * (np.abs(m_tot) <= i)
    c[[1, 2], [2, 1]] *= -1.0
    c[0, ::2] *= m_tot >= -(i + 1.0)
    c[2, ::2] *= np.abs(m_tot) <= i - 1.0
    return CGTables(lo=lo, spins=i[:, 0], c=c, m_tot=m_tot)


def level_pair_lines(amp, levels, times):
    """sum_{l,l',s} amp[:, l, l', s] exp(-i (levels[l, s] - levels[l', s]) t), 6 pairs per s."""
    up, lo = np.triu_indices(4, 1)
    const = np.einsum("xlls->x", amp)[:, None]
    return evaluate_lines(
        np.hstack([const, amp[:, up, lo].reshape(amp.shape[0], -1)]),
        np.hstack([np.zeros_like(const), amp[:, lo, up].reshape(amp.shape[0], -1)]),
        np.append(0.0, (levels[up] - levels[lo]).ravel()),
        times,
    )


def rank_one_terms(rho):
    """rho = sum_k w_k v_k v_k^H to 4 ulp of max|rho| per element, by pivoted
    LDL^H: one term per nonzero eigenvalue of a density matrix, each v_k a
    column of the remainder, so it keeps rho's zero rows. A remainder with a
    vanishing diagonal (left only by an indefinite rho) first gets a pivot
    s = max|r| on the row of its largest element, and the term -s e_p e_p^H."""
    r, terms = rho.copy(), []
    tol = 4.0 * np.finfo(float).eps * np.abs(rho).max()
    while np.abs(r).max() > tol:
        p = np.abs(r.diagonal()).argmax()
        if abs(r[p, p]) <= tol:
            p, s = np.abs(r).max(axis=1).argmax(), np.abs(r).max()
            terms.append((-s, np.eye(4, dtype=r.dtype)[p]))
            r[p, p] += s
        terms.append((r[p, p].real, r[:, p] / r[p, p].real))
        r -= terms[-1][0] * np.outer(terms[-1][1], terms[-1][1].conj())
    return terms


# rows: the pair states T+, T0, T-, S over the basis {uu, ud, du, dd}, and their m;
# T_mu is row 1 - mu, as on the mu axis of the tables
_TS = np.array([[1.0, 0.0, 0.0, 0.0], KET_TRIPLET0.real, [0.0, 0.0, 0.0, 1.0], KET_SINGLET.real])
_M_TS = np.array([1, 0, -1, 0])
# the table F row of each level: F = I+1, F = I-1, and F = I twice
_F_ROW = np.array([0, 2, 1, 1])


class RankOneSectorEvolver:
    """Sector-by-sector evolution from rank-one level projectors.

    In sector I and total-m block m each level projector has rank one,
    P_l(m) = e_l e_l^T over {T+, T0, T-, S} (x) bath m: F = I+1 and F = I-1
    are the ``cg_tables`` rows, and the F = I pair rotates {|F=I,m>_T,
    |S>|m>} by the eigenvector angle phi of that block. The line amplitudes
    are (w/(2I+1)) sum_m P_l(m) rho_s P_l'(m+s), with rho_s the part of rho
    that shifts the pair m by s. With rho = sum_k w_k |k><k| (``rank_one_terms``)
    and Y_d[(beta, l), m_b] = <beta, m_b + d| P_l |k, m_b>, that sum is
    w_k sum_d Y_d Y_d^H: one batched GEMM per shift d over the bath m.
    """

    def __init__(self, system):
        self.system = system
        self._spins, self._weights, _ = system.bath.significant_sectors()
        # levels F = I+1, F = I-1, and the upper and lower level of the F = I
        # block [[J - K, off], [off, 0]], whose upper eigenvector is at angle phi
        kbar, j, spins = system.k_mean, system.j, self._spins
        half = 0.5 * (j - kbar)
        off = -system.k_half_diff * np.sqrt(spins * (spins + 1.0))
        gap = np.hypot(half, off)
        self._levels = np.array([j + spins * kbar, j - (spins + 1.0) * kbar, half + gap, half - gap])
        phi = 0.5 * np.arctan2(off, half)
        self._rot = np.cos(phi)[:, None], np.sin(phi)[:, None]

    def evolve(self, state, times):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        rho = _TS @ state_to_density(state) @ _TS.T
        # entries within 4 ulp of the unit trace are rounding noise of the conversion
        rho[np.abs(rho) <= 4.0 * np.finfo(float).eps] = 0.0
        amp, obs = self._amplitudes(rho.real if not rho.imag.any() else rho)
        red = level_pair_lines(amp, self._levels, times)
        out = np.zeros((times.size, 4, 4), dtype=complex)
        out[(slice(None),) + tuple(np.array(obs).T)] = red.T
        out += np.triu(out, 1).conj().swapaxes(1, 2)
        return density_to_state(_TS.T @ out @ _TS)

    def _amplitudes(self, rho):
        """amp[x, l, l', sector] of the elements obs[x] = (beta, gamma), beta <= gamma,
        of the state rho over {T+, T0, T-, S}; only the elements whose pair-m
        shift rho carries, and only the kets' pair-m parts mu that rho holds."""
        shift = _M_TS[None, :] - _M_TS[:, None]
        obs = [(b, g) for b in range(4) for g in range(b, 4) if rho[shift == shift[b, g]].any()]
        slot = np.full((4, 4), -1)
        slot[tuple(np.array(obs).T)] = np.arange(len(obs))
        mus = [mu for mu in (1, 0, -1) if rho[_M_TS == mu].any()]
        terms = rank_one_terms(rho)
        # Y_d rows (beta, l, mu = d + m_beta): T states reach every level, S the
        # F = I pair; of each Gram only the (beta, gamma) output elements are kept
        grams = []
        for d in range(-2, 3):
            rows = [(b, l, d + _M_TS[b]) for b in range(4) if d + _M_TS[b] in mus
                    for l in (range(4) if b < 3 else (2, 3))]
            if rows:
                b, l, _ = np.array(rows).T
                o = slot[b[:, None], b[None, :]]
                r1, r2 = np.nonzero(o >= 0)
                grams.append((rows, r1, r2, o[r1, r2], l[r1], l[r2], np.where(b < 3, l, 4 + l)))
        amp = np.zeros((len(obs), 4, 4, self._spins.size), dtype=rho.dtype)
        for t in cg_tables(self._spins):
            part = slice(t.lo, t.lo + t.spins.size)
            cos, sin = (x[part] for x in self._rot)
            zero, one = np.zeros_like(cos), np.ones_like(cos)
            # e_l(m) = scale[l] c[_F_ROW[l]] on T+, T0, T-, and scale[4 + l] on S (x) |m>
            scale = np.array([one, one, cos, -sin, zero, zero, sin, cos])
            singlet = np.abs(t.m_tot) <= t.spins[:, None]
            k = t.m_tot.shape[1] - 2
            for weight, ket in terms:
                # z[mu][l] = e_l(m) . |ket, m - mu>; column j + 1 - mu of block m holds bath m_b = I - j
                z = {mu: t.c[_F_ROW, 1 - mu] * (scale[:4] * ket[1 - mu]) for mu in mus}
                if 0 in mus:
                    z[0] += singlet * (scale[4:] * ket[3])
                for rows, r1, r2, o, l1, l2, row_scale in grams:
                    y = np.empty((t.spins.size, len(rows), k), dtype=rho.dtype)
                    for r, (b, l, mu) in enumerate(rows):
                        zl = z[mu][l, :, 1 - mu : 1 - mu + k]
                        if b < 3:  # the scale of e_l moves onto the Gram
                            np.multiply(t.c[_F_ROW[l], b, :, 1 - mu : 1 - mu + k], zl, out=y[:, r])
                        else:
                            y[:, r] = zl
                    g = weight * (y @ y.conj().swapaxes(1, 2))
                    sc = scale[row_scale, :, 0].T
                    amp[o, l1, l2, part] += (g[:, r1, r2] * sc[:, r1] * sc[:, r2]).T
        return amp * (self._weights / (2.0 * self._spins + 1.0)), obs


# the equal-coupling readout of the channel functions; the paper's map in
# these terms is in the docstring of common._apply_channel
MAP_FUNCTIONS = ("a", "c", "d", "g", "f0", "f2")


def comb_map(system, times):
    """{name: function} of ``MAP_FUNCTIONS`` from the channel under test."""
    a, _, c, d, _, g, f0, f2 = common._channel_functions(common._channel_lines(system), times)
    return dict(zip(MAP_FUNCTIONS, (a, c, d, g, f0, f2)))


def moment_map(system, times):
    """The equal-coupling map from the per-sector Clebsch-Gordan moment tensors
    sum_m (p_F q_F)(p_G q_G), binned on the integer comb: column n is the line
    exp(-i k n t / 2), the coherence rows carrying exp(-i J t) on top. Returns
    ``MAP_FUNCTIONS`` as ``comb_map`` does."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    spins, weights, _ = system.bath.significant_sectors()
    two_i = np.rint(2.0 * spins).astype(int)
    # rows: cosine amplitudes of eta and of phi_q (-1/8 per sector), st_coherence on +n and on -n
    amp = np.zeros((4, 2 * two_i.max() + 3))
    amp[1, 0] = -0.125 * weights.sum()
    for t in cg_tables(spins):
        part = slice(t.lo, t.lo + t.spins.size)
        w, n = weights[part] / (2.0 * t.spins + 1.0), two_i[part]
        x, y, z = (np.moveaxis(t.c[:, mu], 0, 1) for mu in range(3))  # (sector, F, m)
        pqs = (p * q for p, q in ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z)))
        xx, yy, zz, xy, xz, yz = (pq @ pq.swapaxes(1, 2) for pq in pqs)
        a = w[:, None, None] * np.array([0.5 * (xx - 2.0 * xz + zz),
                                         0.375 * (xx + yy + zz - 2.0 * xy + 2.0 * xz - 2.0 * yz)])
        amp[:2, 0] += a.trace(axis1=2, axis2=3).sum(-1)
        # level pairs (I, I-1), (I+1, I), (I+1, I-1) beat at these bins
        np.add.at(amp[:2], (slice(None), np.array([n, n + 2, 2 * n + 2])),
                  2.0 * a[:, :, [1, 0, 0], [2, 1, 2]].swapaxes(1, 2))
        np.add.at(amp, ([[2], [3], [3]], np.array([n, np.full_like(n, 2), n + 2])),
                  w * (t.c[:, 1] ** 2).sum(-1))
    lines = np.flatnonzero(amp.any(axis=0))
    half = 0.5 * amp[:2, lines]
    eta, phi_q, coh = evaluate_lines(np.vstack([half, amp[2, lines]]), np.vstack([half, amp[3, lines]]),
                                     0.5 * system.k_mean * lines, times)
    eta, phi_q = eta.real, phi_q.real
    coh = coh * np.exp(-1j * system.j * times)
    return dict(zip(MAP_FUNCTIONS, (0.5 * (eta + coh.real), 0.5 * (eta - coh.real), coh.imag, coh.real,
                                    np.full_like(times, weights.sum()), phi_q)))
