import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from spinbath import common
from spinbath.bath import delta_distribution, gaussian_approx, unpolarized_exact
from spinbath.common import (
    AssumptionError,
    CommonBathSystem,
    SectorExactEvolver,
    decoherence_rate_sq,
    short_time_decoherence_time,
    singlet_mixedness,
    singlet_survival,
    singlet_survival_large_j,
    tensor_invariant_r,
    transverse_longitudinal_rates,
)
from spinbath.states import (
    SPIN_HALF,
    InvalidStateError,
    KET_SINGLET,
    KET_T1,
    KET_TRIPLET0,
    TwoQubitState,
    decoherence_measure,
    density_to_state,
    make_named_state,
    state_to_density,
    validate_state,
)

from sector_reference import (
    RankOneSectorEvolver,
    cg_tables,
    comb_map,
    level_pair_lines,
    rank_one_terms,
    sector_spectrum,
)
from test_states import same_bits, same_states


def qubit_pair_ops() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cartesian spin components (S_A, S_B) on the 4-dim pair space |q_A q_B>."""
    eye = np.eye(2, dtype=complex)
    return [np.kron(s, eye) for s in SPIN_HALF], [np.kron(eye, s) for s in SPIN_HALF]


_S_A, _S_B = qubit_pair_ops()


def spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) in the standard |j, m> basis with m descending from +j."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.conj().T
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, jz


def system(k_a=1.0, k_b=1.0, j=0.0, n=4) -> CommonBathSystem:
    return CommonBathSystem(k_a, k_b, j, unpolarized_exact(n))


def sector_hamiltonian(system: CommonBathSystem, i: float) -> np.ndarray:
    """Dense H on the (4 (2i+1))-dim sector, basis |pair> (x) |i, m>."""
    ib = spin_matrices(i) if i > 0 else (np.zeros((1, 1), complex),) * 3
    h = np.kron(system.j * sum(a @ b for a, b in zip(_S_A, _S_B)), np.eye(ib[0].shape[0]))
    for a, b, m in zip(_S_A, _S_B, ib):
        h += np.kron(system.k_a * a + system.k_b * b, m)
    return h


class DenseSectorEvolver:
    """Reference: dense sector-by-sector evolution, every sector of the bath.

    One ``eigh`` per sector, whose eigenvalues must match the four levels of
    ``sector_spectrum``, gives the level projectors P_l; the line amplitudes
    (w/(2I+1)) Tr_bath[P_l (rho (x) 1) P_l'] are linear in rho.
    """

    def __init__(self, system: CommonBathSystem):
        maps, levels = [], []
        for i, w in zip(system.bath.spins, system.bath.weights):
            h = sector_hamiltonian(system, i)
            assert np.abs(h - h.conj().T).max() < 1e-12
            vals, vecs = np.linalg.eigh(h.real)
            s = sector_spectrum(system, i)
            # absolute energies: sector_spectrum counts from the singlet, -3j/4
            level = np.array([s.level_f_plus, s.level_f_minus, s.level_mix_upper,
                              s.level_mix_lower]) - 0.75 * system.j
            label = np.abs(vals[:, None] - level).argmin(axis=1)
            assert np.abs(vals - level[label]).max() <= 1e-9 * (1.0 + np.abs(vals).max())
            d = vals.size // 4
            # p[l, a, m, b, n]: P_l on |pair a> (x) |I, m>. sum_mn p[l, c, m, a, n]
            # p[l', b, n, e, m] takes rho[a, b] to the (c, e) element of (l, l')
            p = np.stack([v @ v.T for v in (vecs[:, label == l] for l in range(4))])
            p = p.reshape(4, 4, d, 4, d)
            pair = np.tensordot(p, p, axes=([2, 4], [4, 2])).transpose(1, 5, 0, 3, 2, 4)
            maps.append(pair.reshape(4, 4, 4, 4, 16) * (float(w) / d))
            levels.append(level)
        self._map = np.stack(maps, axis=-2)  # (c, e, l, l', sector, (a, b))
        self._levels = np.array(levels).T

    def evolve(self, state, times):
        amp = (self._map @ state_to_density(state).ravel()).reshape((16,) + self._map.shape[2:-1])
        red = level_pair_lines(amp, self._levels, np.atleast_1d(times))
        return density_to_state(red.reshape(4, 4, -1).transpose(2, 0, 1))


def random_state(rng, rank):
    """A random complex density matrix of the given rank, as a state."""
    psi = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
    rho = np.einsum("ka,kb->ab", psi, psi.conj())
    return density_to_state(rho / np.trace(rho).real)


def bell_elements(states):
    """(singlet_pop, triplet0_pop, st_coherence, t1t2_pop) of a batch."""
    rho = state_to_density(states)

    def element(bra, ket):
        return np.einsum("i,tij,j->t", bra.conj(), rho, ket)

    return (element(KET_SINGLET, KET_SINGLET).real, element(KET_TRIPLET0, KET_TRIPLET0).real,
            element(KET_TRIPLET0, KET_SINGLET), element(KET_T1, KET_T1).real)


def sector_table(i):
    """(c[f, mu, m], m) of the single sector i, m from I+1 down to -(I+1)."""
    t = next(cg_tables([i]))
    return t.c[:, :, 0], t.m_tot[0]


class TestSectorSpectrum:
    def test_symmetric_mixed_levels(self):
        spec = sector_spectrum(system(1.0, 1.0, 3.0), 1.5)
        # ordered pair {J - K, 0} with no mixing
        assert spec.level_mix_upper == pytest.approx(2.0)
        assert spec.level_mix_lower == pytest.approx(0.0)
        assert spec.mixing_sin == 0.0

    def test_symmetric_below_exchange(self):
        spec = sector_spectrum(system(1.0, 1.0, 0.2), 1.0)
        assert spec.level_mix_upper == pytest.approx(0.0)
        assert spec.level_mix_lower == pytest.approx(-0.8)

    def test_triplet_levels_no_exchange(self):
        spec = sector_spectrum(system(1.0, 1.0, 0.0), 1.0)
        assert spec.level_f_plus == pytest.approx(1.0)
        assert spec.level_f_minus == pytest.approx(-2.0)

    def test_mixed_block_against_dense_diagonalization(self):
        sys = system(1.0, 0.5, 2.0)
        i = 1.0
        spec = sector_spectrum(sys, i)
        diag = sys.j - sys.k_mean
        off = math.sqrt(i * (i + 1)) * (sys.k_a - sys.k_b) / 2
        block = np.array([[diag, off], [off, 0.0]])
        vals = np.sort(np.linalg.eigvalsh(block))
        assert vals[0] == pytest.approx(spec.level_mix_lower, abs=1e-12)
        assert vals[1] == pytest.approx(spec.level_mix_upper, abs=1e-12)

    def test_mixing_normalization(self):
        for i in (0.5, 1.0, 3.5):
            spec = sector_spectrum(system(1.3, 0.2, 0.7), i)
            assert spec.mixing_cos**2 + spec.mixing_sin**2 == pytest.approx(1.0, abs=1e-12)

    def test_full_sector_spectrum_matches_levels(self):
        # dense sector eigenvalues (shifted to the singlet reference) are the
        # four analytic levels with the right multiplicities
        sys = system(1.0, 0.4, 1.5)
        i = 1.5
        spec = sector_spectrum(sys, i)
        h = sector_hamiltonian(sys, i).real
        vals = np.linalg.eigvalsh(h) + 0.75 * sys.j
        expect = np.concatenate(
            [
                np.full(int(2 * (i + 1) + 1), spec.level_f_plus),
                np.full(int(2 * (i - 1) + 1), spec.level_f_minus),
                np.full(int(2 * i + 1), spec.level_mix_upper),
                np.full(int(2 * i + 1), spec.level_mix_lower),
            ]
        )
        assert np.allclose(np.sort(vals), np.sort(expect), atol=1e-12)


@dataclass(frozen=True)
class PropagatorCoefficients:
    """Reference expansion of one sector's U = exp(-i(H - E_singlet)t):

        (amp_singlet + mix_from_singlet * Y) P_singlet
        + (trip_const + trip_linear * X + trip_quadratic * X^2
           + mix_from_triplet * Y) P_triplet

    with X = (S_A+S_B).I, Y = (S_A-S_B).I. The Y term saturates the
    triplet-to-singlet transition, so no (S_A x S_B).I term is needed.
    """

    amp_singlet: complex
    mix_from_singlet: complex
    trip_const: complex
    trip_linear: complex
    trip_quadratic: complex
    mix_from_triplet: complex


def sector_a_coefficients(system: CommonBathSystem, i: float, t: float) -> PropagatorCoefficients:
    """Propagator coefficients of one sector at time t, from sector_spectrum."""
    if i == 0.0:
        # no triplet of total spin F = I exists: pure phases, no mixing
        return PropagatorCoefficients(1.0 + 0j, 0j, complex(np.exp(-1j * system.j * t)), 0j, 0j, 0j)
    spec = sector_spectrum(system, i)
    lp, lm = spec.phase_mean, spec.phase_gap
    c, s = math.cos(lm * t), math.sin(lm * t)
    phase = np.exp(-1j * lp * t)
    a1 = phase * (c + 1j * spec.mixing_cos * s)
    b_tt = phase * (c - 1j * spec.mixing_cos * s)
    # transition coefficient: multiplies Y, whose singlet-triplet matrix
    # element is -sqrt(I(I+1)) in the ladder-consistent basis used here
    sin_over = t * np.sinc(lm * t / np.pi)
    a2 = -1j * phase * system.k_half_diff * sin_over
    u1 = np.exp(-1j * spec.level_f_plus * t)
    u2 = np.exp(-1j * spec.level_f_minus * t)
    # quadratic in X through the triplet nodes X = {i, -1, -(i+1)}
    nodes = np.array([i, -1.0, -(i + 1.0)])
    vals = np.array([u1, b_tt, u2])
    a3, a4, a5 = np.linalg.solve(np.vander(nodes, 3, increasing=True), vals)
    return PropagatorCoefficients(*(complex(a) for a in (a1, a2, a3, a4, a5, a2)))


def sector_operators(i: float) -> dict[str, np.ndarray]:
    """Dense X, Y and the pair's total S^2 on the (4 (2i+1))-dim sector."""
    s_a, s_b = qubit_pair_ops()
    ib = spin_matrices(i) if i > 0 else (np.zeros((1, 1), complex),) * 3
    eye_b = np.eye(ib[0].shape[0], dtype=complex)
    return {
        "x": sum(np.kron(a + b, m) for a, b, m in zip(s_a, s_b, ib)),
        "y": sum(np.kron(a - b, m) for a, b, m in zip(s_a, s_b, ib)),
        "s_sq": sum(np.kron((a + b) @ (a + b), eye_b) for a, b in zip(s_a, s_b)),
    }


def rebuild_sector_propagator(system: CommonBathSystem, i: float, t: float) -> np.ndarray:
    """Assemble U = exp(-i(H - E_singlet)t) from the sector coefficients."""
    coeffs = sector_a_coefficients(system, i, t)
    ops = sector_operators(i)
    dim = ops["x"].shape[0]
    p_t = ops["s_sq"] / 2.0
    p_s = np.eye(dim, dtype=complex) - p_t
    u = (coeffs.amp_singlet * np.eye(dim) + coeffs.mix_from_singlet * ops["y"]) @ p_s
    u += (
        coeffs.trip_const * np.eye(dim)
        + coeffs.trip_linear * ops["x"]
        + coeffs.trip_quadratic * (ops["x"] @ ops["x"])
        + coeffs.mix_from_triplet * ops["y"]
    ) @ p_t
    return u


class TestSectorPropagatorCoefficients:
    def test_time_zero(self):
        c = sector_a_coefficients(system(1.0, 0.3, 2.0), 1.5, 0.0)
        assert c.amp_singlet == pytest.approx(1.0)
        assert c.trip_const == pytest.approx(1.0)
        for val in (c.mix_from_singlet, c.trip_linear, c.trip_quadratic, c.mix_from_triplet):
            assert abs(val) < 1e-12

    def test_symmetric_case_no_mixing(self):
        for t in (0.4, 1.9):
            c = sector_a_coefficients(system(1.0, 1.0, 5.0), 2.0, t)
            assert c.amp_singlet == pytest.approx(1.0, abs=1e-12)
            assert abs(c.mix_from_singlet) < 1e-14
            assert abs(c.mix_from_triplet) < 1e-14

    @pytest.mark.parametrize("i", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("t", [0.7, 2.3])
    def test_rebuild_matches_dense_exponential(self, i, t):
        sys = system(1.0, 0.5, 2.0)
        u = rebuild_sector_propagator(sys, i, t)
        h = sector_hamiltonian(sys, i).real
        dim = h.shape[0]
        shifted = h + 0.75 * sys.j * np.eye(dim)  # relative to the singlet level
        vals, vecs = np.linalg.eigh(shifted)
        u_dense = (vecs * np.exp(-1j * vals * t)) @ vecs.T
        assert np.abs(u - u_dense).max() < 1e-10
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-10

    def test_spin_zero_sector_is_pure_phase(self):
        c = sector_a_coefficients(system(1.0, 0.2, 3.0), 0.0, 1.1)
        assert c.amp_singlet == pytest.approx(1.0)
        assert abs(c.trip_const - np.exp(-3.0j * 1.1)) < 1e-12
        assert abs(c.mix_from_singlet) == 0.0


class TestCGTables:
    @pytest.mark.parametrize("i", [0.5, 1.0, 2.5, 7.0])
    def test_completeness(self, i):
        c, m_tot = sector_table(i)
        # for each (mu, m_tot) with a valid bath projection the F-sum of
        # squared coefficients is 1
        for mu_row, mu in enumerate((1.0, 0.0, -1.0)):
            for k, mt in enumerate(m_tot):
                if abs(mt - mu) <= i + 1e-9:
                    total = float(np.sum(c[:, mu_row, k] ** 2))
                    assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("i", [0.5, 1.0, 3.5])
    def test_singlet_triplet_matrix_element(self, i):
        # <T, F=I, m|(S_A - S_B).I|singlet, m> = -sqrt(I(I+1)) for every m in
        # the ladder-consistent basis; the closed forms rely on it
        ops = sector_operators(i)
        c, _ = sector_table(i)
        d = int(round(2 * i)) + 1
        y_op = ops["y"]
        for m in (i, 0.5 * (int(2 * i) % 2), -i + 1 if i >= 1 else i):
            col = int(round(i - m))
            singlet = np.zeros(4 * d, dtype=complex)
            singlet[1 * d + col] = 1 / math.sqrt(2)
            singlet[2 * d + col] = -1 / math.sqrt(2)
            k = int(round((i + 1.0) - m))
            triplet = np.zeros(4 * d, dtype=complex)
            # assemble |T, F=I, m> from the mu components
            for mu_row, mu in enumerate((1.0, 0.0, -1.0)):
                mi = m - mu
                if abs(mi) > i + 1e-9:
                    continue
                coeff = c[1, mu_row, k]
                bcol = int(round(i - mi))
                if mu == 1.0:
                    triplet[0 * d + bcol] += coeff
                elif mu == 0.0:
                    triplet[1 * d + bcol] += coeff / math.sqrt(2)
                    triplet[2 * d + bcol] += coeff / math.sqrt(2)
                else:
                    triplet[3 * d + bcol] += coeff
            val = triplet.conj() @ (y_op @ singlet)
            assert val.real == pytest.approx(-math.sqrt(i * (i + 1)), abs=1e-10)
            assert abs(val.imag) < 1e-12


def ladder_cg_tables(i):
    """Reference (c, m_tot) in the sector_table layout: each F family climbed
    down from its highest-weight state with the dense spin-1 x spin-I lowering
    operator, O(I^3)."""
    d = int(round(2 * i)) + 1
    s1 = spin_matrices(1.0)
    sb = spin_matrices(i)
    jm = np.kron(s1[0] - 1j * s1[1], np.eye(d)) + np.kron(np.eye(3), sb[0] - 1j * sb[1])

    def top_state(f):
        # Condon-Shortley sign: positive coefficient on the mu = +1 component
        v = np.zeros(3 * d, dtype=complex)
        if f == i + 1.0:
            v[0] = 1.0
        elif f == i:
            a = 1.0 / math.sqrt(1.0 + i)
            v[0 * d + 1] = a
            v[1 * d + 0] = -a * math.sqrt(i)
        else:
            g1 = 1.0 / math.sqrt(i * (2.0 * i + 1.0))
            v[0 * d + 2] = g1
            v[1 * d + 1] = -g1 * math.sqrt(2.0 * i - 1.0)
            v[2 * d + 0] = g1 * math.sqrt(i * (2.0 * i - 1.0))
        return v

    fs = [i + 1.0, i] + ([i - 1.0] if i >= 1.0 else [])
    m_tot = (i + 1.0) - np.arange(d + 2)
    c = np.zeros((3, 3, m_tot.size))
    for f_row, f in enumerate(fs):
        v = top_state(f)
        m = f
        while True:
            k = int(round((i + 1.0) - m))
            for mu_row, mu in enumerate((1.0, 0.0, -1.0)):
                m_i = m - mu
                if abs(m_i) <= i + 1e-9:
                    c[f_row, mu_row, k] = v[mu_row * d + int(round(i - m_i))].real
            if m < -f + 1e-9:
                break
            norm = math.sqrt(f * (f + 1.0) - m * (m - 1.0))
            if norm < 1e-12:
                break
            v = jm @ v / norm
            m -= 1.0
    return c, m_tot


class TestCGClosedForm:
    def test_matches_ladder(self):
        for two_i in range(1, 41):
            c, m_tot = ladder_cg_tables(two_i / 2)
            got, got_m = sector_table(two_i / 2)
            assert got.shape == c.shape
            assert np.array_equal(got_m, m_tot)
            assert np.abs(got - c).max() < 1e-12, two_i

    @pytest.mark.parametrize("i", [0.5, 50.5, 100.0, 500.0])
    def test_columns_orthonormal(self, i):
        # at each m_tot the valid F rows, as vectors over mu, are orthonormal
        c, m_tot = sector_table(i)
        gram = np.einsum("fak,gak->kfg", c, c)
        valid = np.abs(m_tot)[:, None] <= np.array([i + 1.0, i, i - 1.0])[None, :]
        expect = np.einsum("kf,fg->kfg", valid.astype(float), np.eye(3))
        assert np.abs(gram - expect).max() < 1e-14

    def test_spin_zero_is_bare_triplet(self):
        # spin 1 (x) spin 0 is F = 1 alone, |1, m> = |mu = m> (x) |0, 0>
        c, m_tot = sector_table(0.0)
        assert np.array_equal(m_tot, [1.0, 0.0, -1.0])
        assert np.array_equal(c[0], np.eye(3))
        assert not c[1:].any()

    @pytest.mark.parametrize("block", [8 * 9 * 5, 8 * 9 * 40, 8 * 2000, None])
    def test_chunks_match_single_sectors(self, block, monkeypatch):
        # chunks cover the sectors in order within _PHASE_BLOCK // 8 entries (a
        # lone sector may exceed it); every sector equals its own table, zero-padded
        if block is not None:
            monkeypatch.setattr(common, "_PHASE_BLOCK", block)
        spins = np.concatenate([[0.0], unpolarized_exact(40).spins[1:], [57.0, 57.5]])
        seen = []
        for t in cg_tables(spins):
            assert t.c.size <= common._PHASE_BLOCK // 8 or t.spins.size == 1
            assert np.array_equal(t.spins, spins[t.lo : t.lo + t.spins.size])
            seen.extend(t.spins)
            for s, i in enumerate(t.spins):
                c, m_tot = sector_table(i) if block is not None else ladder_or_zero(i)
                width = m_tot.size
                assert np.array_equal(t.m_tot[s, :width], m_tot)
                assert np.abs(t.c[:, :, s, :width] - c).max() < 1e-12
                assert not t.c[:, :, s, width:].any()
        assert seen == list(spins)


def ladder_or_zero(i):
    """ladder_cg_tables, with the spin-0 sector as the bare triplet."""
    if i == 0.0:
        return np.concatenate([np.eye(3)[None], np.zeros((2, 3, 3))]), np.array([1.0, 0.0, -1.0])
    return ladder_cg_tables(i)


class TestSymmetricEvolution:
    """k_a = k_b: the channel, read out as the paper's map (see ``common._apply_channel``)."""

    def test_map_at_time_zero(self):
        # vec_direct = a and tensor_direct = (f2 + g) / 2 are 1; vec_exchange = c,
        # vec_from_tensor = d / 2, tensor_transpose = (f2 - g) / 2, tensor_trace = (f0 - f2) / 3 are 0
        f = comb_map(system(j=2.0, n=4), [0.0])
        for name in ("a", "g", "f0", "f2"):
            assert f[name][0] == pytest.approx(1.0, abs=1e-12)
        for name in ("c", "d"):
            assert abs(f[name][0]) < 1e-12

    @pytest.mark.parametrize("sys, times", [
        (system(j=3.0, n=5), np.linspace(0, 4, 50)),
        (CommonBathSystem(1.0, 1.0, 200.0, gaussian_approx(100, "narrow")), np.linspace(0.0, 6.0, 12000)),
        (CommonBathSystem(1.0, 1.0, 5.0, gaussian_approx(10**6, "narrow")), np.linspace(0.0, 10.0, 800)),
    ], ids=["exact-5", "fig2", "gaussian-narrow-1e6"])
    def test_structural_relations(self, sys, times):
        # the lines are those of any couplings, so these hold by computation, not by construction
        a, b, c, d, e, g, f0, f2 = common._channel_functions(common._channel_lines(sys), times)
        # the singlet-triplet coherence (a - c) + i d drives vec_direct - vec_exchange and
        # tensor_direct - tensor_transpose alike; S_A . S_B is conserved, so the trace
        # identity tensor_direct + tensor_transpose + 3 tensor_trace = f0 = the kept weight holds
        assert np.abs(g - (a - c)).max() < 1e-12
        assert np.abs(f0 - sys.bath.significant_sectors()[1].sum()).max() < 1e-12
        # the swap symmetry of equal couplings
        assert np.abs(b - a).max() < 1e-12
        assert np.abs(e + d).max() < 1e-12

    def test_singlet_is_stationary(self):
        states = SectorExactEvolver(system(j=4.0, n=4)).evolve(
            make_named_state("singlet"), np.linspace(0, 5, 8)
        )
        for s in states:
            assert np.allclose(s.pi, -np.eye(3), atol=1e-12)
            assert np.allclose(s.p_a, 0.0, atol=1e-12)

    def test_werner_is_stationary(self):
        states = SectorExactEvolver(system(j=2.5, n=4)).evolve(
            make_named_state("werner", p=0.7), np.linspace(0, 5, 6)
        )
        for s in states:
            assert np.allclose(s.pi, -0.7 * np.eye(3), atol=1e-12)

    def test_product_state_structure(self):
        # initial |ud>: P^z_A(t) = -P^z_B(t), pi_xy = -pi_yx = 2 * tensor_from_vec = -d
        sys = system(j=2.0, n=4)
        times = np.linspace(0.1, 3, 11)
        f = comb_map(sys, times)
        states = SectorExactEvolver(sys).evolve(make_named_state("up_down"), times)
        for k, s in enumerate(states):
            assert s.p_a[2] == pytest.approx(f["a"][k] - f["c"][k], abs=1e-12)
            assert s.p_b[2] == pytest.approx(-s.p_a[2], abs=1e-12)
            assert s.pi[0, 1] == pytest.approx(-f["d"][k], abs=1e-12)
            assert s.pi[1, 0] == pytest.approx(-s.pi[0, 1], abs=1e-12)
            assert s.pi[0, 0] == pytest.approx(s.pi[1, 1], abs=1e-12)

    def test_mixedness_is_exchange_independent_for_equal_couplings(self):
        # the exchange term commutes with the symmetric coupling, acting as a
        # pair-local unitary that cannot change Tr rho^2
        s0 = make_named_state("r_state", r=0.4)
        times = np.linspace(0, 4, 25)
        d_curves = []
        for j in (0.0, 7.0):
            states = SectorExactEvolver(system(j=j, n=5)).evolve(s0, times)
            d_curves.append([decoherence_measure(s) for s in states])
        assert np.allclose(d_curves[0], d_curves[1], atol=1e-12)

    def test_outputs_stay_physical(self):
        states = SectorExactEvolver(system(j=3.0, n=4)).evolve(
            make_named_state("triplet0"), np.linspace(0, 6, 13)
        )
        for s in states:
            assert validate_state(s, tol=1e-10).physical


class TestAsymmetricEvolution:
    @pytest.mark.parametrize("name", ["singlet", "triplet0", "bell_t1", "bell_t2"])
    def test_bell_states_stay_bell_diagonal(self, name):
        sys = system(k_a=1.0, k_b=0.4, j=1.5, n=4)
        evolver = SectorExactEvolver(sys)
        states = evolver.evolve(make_named_state(name), [0.7, 2.1])
        bells = [
            np.array([0, 1, -1, 0]) / math.sqrt(2),
            np.array([0, 1, 1, 0]) / math.sqrt(2),
            np.array([1, 0, 0, 1]) / math.sqrt(2),
            np.array([1, 0, 0, -1]) / math.sqrt(2),
        ]
        for s in states:
            rho = state_to_density(s)
            in_bell = np.array([[b1 @ rho @ b2 for b2 in bells] for b1 in bells])
            off = in_bell - np.diag(np.diag(in_bell))
            assert np.abs(off).max() < 1e-12

    def test_werner_invariant_for_equal_couplings(self):
        sys = system(k_a=0.8, k_b=0.8, j=3.0, n=3)
        s0 = make_named_state("werner", p=0.55)
        for s in SectorExactEvolver(sys).evolve(s0, [0.9, 2.7]):
            assert np.abs(s.pi - s0.pi).max() < 1e-12
            assert np.abs(s.p_a).max() < 1e-12


class TestBellMixEvolution:
    """Singlet/T0 mixtures [(1+r)|S0> + (1-r)|T0>] through the sector evolver."""

    @staticmethod
    def evolve(sys, r, times):
        return SectorExactEvolver(sys).evolve(make_named_state("r_state", r=r), times)

    def test_initial_coefficients(self):
        for r in (1.0, 0.5, -0.7):
            c1, c2, c3, pp = bell_elements(self.evolve(system(1.0, 0.4, 2.0, n=3), r, [0.0]))
            norm = 2 * (1 + r**2)
            assert c1[0] == pytest.approx((1 + r) ** 2 / norm, abs=1e-12)
            assert c2[0] == pytest.approx((1 - r) ** 2 / norm, abs=1e-12)
            assert c3[0] == pytest.approx((1 + r) * (1 - r) / norm, abs=1e-12)
            assert pp[0] == pytest.approx(0.0, abs=1e-14)

    def test_trace_identity(self):
        c1, c2, _, pp = bell_elements(self.evolve(system(1.3, 0.5, 4.0, n=5), 0.35, np.linspace(0, 5, 60)))
        assert np.allclose(c1 + c2 + 2 * pp, 1.0, atol=1e-12)

    @pytest.mark.parametrize("r", [1.0, 0.5, -0.5])
    @pytest.mark.parametrize("j", [0.0, 2.0])
    def test_matches_dense_evolution(self, r, j):
        sys = system(1.0, 0.4, j, n=4)
        times = np.linspace(0, 3, 7)
        s = self.evolve(sys, r, times)
        ref = DenseSectorEvolver(sys).evolve(make_named_state("r_state", r=r), times)
        assert np.abs(s.p_a - ref.p_a).max() < 1e-12
        assert np.abs(s.p_b - ref.p_b).max() < 1e-12
        assert np.abs(s.pi - ref.pi).max() < 1e-12

    def test_strong_exchange_protects_near_singlet(self):
        bath = gaussian_approx(100, "narrow")
        times = np.linspace(0, 10, 300)
        d = {}
        for r in (0.5, -0.5):
            for j in (0.0, 20.0):
                sys = CommonBathSystem(1.2, 0.8, j, bath)
                d[(r, j)] = decoherence_measure(self.evolve(sys, r, times)).max()
        # the near-singlet state is strongly protected by large exchange,
        # the near-triplet state is not
        assert d[(0.5, 20.0)] < 0.5 * d[(0.5, 0.0)]
        assert abs(d[(-0.5, 20.0)] - d[(-0.5, 0.0)]) < 0.4 * d[(-0.5, 0.0)]


DENSE_COUPLINGS = {
    "unequal": (1.0, 0.4, 1.5),
    "no-exchange": (1.0, 0.4, 0.0),
    "negative-kb": (0.9, -0.5, 1.2),
    "opposite": (1.0, -1.0, 0.3),  # F = I +- 1 levels coincide
    "gap-zero": (0.7, 0.7, 0.7),  # F = I block degenerate: k_a = k_b = j
}


class TestSectorExactAgainstDense:
    """The 6j channel against one dense eigh per sector."""

    @pytest.mark.parametrize("couplings", list(DENSE_COUPLINGS))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_states(self, n, couplings):
        rng = np.random.default_rng(100 * n + len(couplings))
        sys = CommonBathSystem(*DENSE_COUPLINGS[couplings], unpolarized_exact(n))
        times = np.linspace(0.0, 5.0, 13)
        ours, dense = SectorExactEvolver(sys), DenseSectorEvolver(sys)
        for rank in (1, 2, 4):
            s0 = random_state(rng, rank)
            got = state_to_density(ours.evolve(s0, times))
            want = state_to_density(dense.evolve(s0, times))
            assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("name, params", [
        ("bell_t1", {}), ("up_down", {}), ("werner", dict(p=0.3)), ("singlet", {}),
        ("general_pure", dict(gamma=0.3 + 0.4j, theta=1.1, phi=2.3)),
    ])
    def test_named_states(self, name, params):
        sys = CommonBathSystem(1.2, 0.45, 2.0, unpolarized_exact(7))
        s0 = make_named_state(name, **params)
        times = np.linspace(0.0, 4.0, 9)
        got = state_to_density(SectorExactEvolver(sys).evolve(s0, times))
        want = state_to_density(DenseSectorEvolver(sys).evolve(s0, times))
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("block", [1, 8 * 9 * 7, 8 * 4000])
    def test_chunked_tables(self, block, monkeypatch):
        # one line per slice of the line sum, or all of them in one, give the same states
        # (in the passes of a sum above _SMALL_SUM, which _PHASE_BLOCK sizes)
        sys = CommonBathSystem(1.1, 0.3, 0.8, unpolarized_exact(11))
        s0 = random_state(np.random.default_rng(5), 2)
        times = np.linspace(0.0, 3.0, 7)
        want = state_to_density(DenseSectorEvolver(sys).evolve(s0, times))
        monkeypatch.setattr(common, "_SMALL_SUM", 0)
        monkeypatch.setattr(common, "_PHASE_BLOCK", block)
        got = state_to_density(SectorExactEvolver(sys).evolve(s0, times))
        assert np.abs(got - want).max() < 1e-12


class TestRankOneTerms:
    @pytest.mark.parametrize("rho, count", [
        (np.outer([0.6, 0.0, 0.0, 0.8], [0.6, 0.0, 0.0, 0.8]), 1),
        (np.diag([0.1, 0.2, 0.3, 0.4]), 4),
        # indefinite with a vanishing diagonal: split into element pairs
        (np.array([[0, 1j, 0, 0], [-1j, 0, 2, 0], [0, 2, 0, 3], [0, 0, 3, 0]]), 6),
    ])
    def test_reconstructs(self, rho, count):
        terms = rank_one_terms(rho)
        assert len(terms) == count
        back = sum(w * np.outer(v, v.conj()) for w, v in terms)
        assert np.abs(back - rho).max() < 1e-15
        # each vector keeps the zero rows of rho
        for _, v in terms:
            assert not v[~rho.any(axis=1)].any()

    def test_indefinite_state_matches_dense(self):
        # the evolution is linear in rho: an unphysical state evolves like the reference
        s0 = TwoQubitState(np.array([0.9, 0.0, 0.3]), np.array([0.0, 0.9, 0.0]), 0.9 * np.eye(3))
        assert validate_state(s0).min_eigenvalue < -0.1
        sys = CommonBathSystem(1.0, 0.4, 1.5, unpolarized_exact(6))
        times = np.linspace(0.0, 3.0, 7)
        got = state_to_density(SectorExactEvolver(sys).evolve(s0, times))
        want = state_to_density(DenseSectorEvolver(sys).evolve(s0, times))
        assert np.abs(got - want).max() < 1e-12


class TestSectorExactSymmetricLimit:
    """k_a = k_b: the one line set of every coupling on multi-sector baths against the dense
    sector reference."""

    @pytest.mark.parametrize("bath, k, j", [(gaussian_approx(100, "narrow"), 1.0, 200.0),
                                            (unpolarized_exact(24), -0.7, 0.0)],
                             ids=["gaussian-narrow-100", "exact-24"])
    def test_random_states(self, bath, k, j):
        sys = CommonBathSystem(k, k, j, bath)
        times = np.linspace(0.0, 6.0, 600)
        ours, dense = SectorExactEvolver(sys), DenseSectorEvolver(sys)
        rng = np.random.default_rng(bath.spins.size)
        for rank in (1, 3):
            s0 = random_state(rng, rank)
            got = state_to_density(ours.evolve(s0, times))
            want = state_to_density(dense.evolve(s0, times))
            assert np.abs(got - want).max() < 1e-12


# sectors I = 0 .. 50 in half steps, each alone
HALF_STEPS = np.arange(0.0, 50.25, 0.5)


class TestChannelAgainstReferences:
    """The channel sector by sector: against the dense eigh for I <= 50, and
    against the rank-one projector evolver up to I = 10^5."""

    @pytest.mark.parametrize("couplings", ["no-exchange", "negative-kb", "gap-zero"])
    def test_every_sector_to_fifty_against_dense(self, couplings):
        rng = np.random.default_rng(len(couplings))
        times = np.linspace(0.0, 5.0, 7)
        for k, i in enumerate(HALF_STEPS):
            sys = CommonBathSystem(*DENSE_COUPLINGS[couplings], delta_distribution(i))
            s0 = random_state(rng, 1 + k % 4)
            got = state_to_density(SectorExactEvolver(sys).evolve(s0, times))
            want = state_to_density(DenseSectorEvolver(sys).evolve(s0, times))
            assert np.abs(got - want).max() < 1e-12, i

    @pytest.mark.parametrize("couplings", ["unequal", "negative-kb", "gap-zero"])
    @pytest.mark.parametrize("i", [10.5, 333.0, 4567.5, 1e5])
    def test_large_sectors_against_rank_one(self, i, couplings):
        sys = CommonBathSystem(*DENSE_COUPLINGS[couplings], delta_distribution(i))
        rng = np.random.default_rng(int(2 * i))
        times = np.linspace(0.0, 0.05, 9)  # the lines reach |K| (2I+1) t ~ 10^4
        ours, ref = SectorExactEvolver(sys), RankOneSectorEvolver(sys)
        for rank in (1, 4):
            s0 = random_state(rng, rank)
            got = state_to_density(ours.evolve(s0, times))
            want = state_to_density(ref.evolve(s0, times))
            assert np.abs(got - want).max() < 1e-12


def channel_superoperator(evolver, times):
    """L[t, a, b, c, d] = Lambda_t(|c><d|)[a, b], from the evolution of 16
    unit-trace states 1/4 + X - Tr(X)/4 for the Hermitian parts X of |c><d|."""
    out = np.zeros((np.size(times), 4, 4, 4, 4), dtype=complex)
    for c in range(4):
        for d in range(4):
            e = np.zeros((4, 4))
            e[c, d] = 1.0
            for x, factor in ((0.5 * (e + e.T), 1.0), (0.5j * (e.T - e), 1j)):
                shift = (1.0 - np.trace(x)) / 4.0
                if np.abs(x).max() > 0.0:
                    rho = state_to_density(evolver.evolve(density_to_state(x + shift * np.eye(4)), times))
                    out[:, :, :, c, d] += factor * (rho - shift * np.eye(4))
    return out


def random_rotation(rng):
    """r (x) r for a random SU(2) r."""
    q = rng.normal(size=4)
    a, b, c, d = q / np.linalg.norm(q)
    r = np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])
    return np.kron(r, r)


class TestChannelAtAMillionSpins:
    """No reference reaches N = 10^6 (4161 kept sectors, I = 1 .. 4161): the
    channel's own identities, each to 1e-12."""

    TIMES = np.linspace(0.0, 10.0, 9)

    @pytest.fixture(scope="class", params=[(1.2, 0.8, 20.0), (0.9, -0.5, 1.2), (1.0, 1.0, 5.0)],
                    ids=["unequal", "negative-kb", "equal"])
    def evolver(self, request):
        return SectorExactEvolver(CommonBathSystem(*request.param, gaussian_approx(10**6, "narrow")))

    def test_identity_at_time_zero(self, evolver):
        kept = 1.0 - evolver.system.bath.significant_sectors()[2]
        s0 = random_state(np.random.default_rng(1), 3)
        s = evolver.evolve(s0, [0.0])[0]
        for x, y in ((s.p_a, s0.p_a), (s.p_b, s0.p_b), (s.pi, s0.pi)):
            assert np.abs(x - kept * y).max() < 1e-12

    @pytest.fixture(scope="class")
    def big(self, evolver):
        return channel_superoperator(evolver, self.TIMES)

    def test_unital_and_trace_preserving(self, big):
        unit = np.einsum("tabcc->tab", big)  # Lambda(1)
        assert np.abs(unit - np.eye(4)).max() < 1e-12
        trace = np.einsum("taacd->tcd", big)  # Tr Lambda(|c><d|)
        assert np.abs(trace - np.eye(4)).max() < 1e-12

    def test_completely_positive(self, big):
        choi = big.transpose(0, 3, 1, 4, 2).reshape(-1, 16, 16)  # [(c, a), (d, b)]
        assert np.abs(choi - choi.conj().swapaxes(1, 2)).max() < 1e-12
        assert np.linalg.eigvalsh(choi).min() > -1e-12

    def test_rotation_covariant(self, evolver):
        rng = np.random.default_rng(2)
        for rank in (1, 2, 4):
            rot = random_rotation(rng)
            rho = state_to_density(random_state(rng, rank))
            turned = state_to_density(evolver.evolve(density_to_state(rot @ rho @ rot.conj().T), self.TIMES))
            after = rot @ state_to_density(evolver.evolve(density_to_state(rho), self.TIMES)) @ rot.conj().T
            assert np.abs(turned - after).max() < 1e-12


class TestSingletSurvival:
    def test_symmetric_couplings_no_decay(self):
        c1 = singlet_survival(system(1.0, 1.0, 5.0, n=4), np.linspace(0, 8, 30))
        assert np.allclose(c1, 1.0, atol=1e-14)

    def test_starts_at_one(self):
        c1 = singlet_survival(system(1.0, 0.3, 2.0, n=4), [0.0])
        assert c1[0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_dense_singlet_population(self):
        sys = CommonBathSystem(1.0, 0.4, 3.0, unpolarized_exact(6))
        times = np.linspace(0, 4, 9)
        c1 = singlet_survival(sys, times)
        dense = SectorExactEvolver(sys).evolve(make_named_state("singlet"), times)
        for k, s in enumerate(dense):
            rho = state_to_density(s)
            pop = (KET_SINGLET.conj() @ rho @ KET_SINGLET).real
            assert abs(c1[k] - pop) < 1e-10

    def test_mixedness_from_survival(self):
        # the evolved state is c1 singlet + equal triplet admixture
        sys = CommonBathSystem(1.0, 0.4, 3.0, unpolarized_exact(4))
        times = np.linspace(0, 4, 9)
        c1 = singlet_survival(sys, times)
        dense = SectorExactEvolver(sys).evolve(make_named_state("singlet"), times)
        d_direct = np.array([decoherence_measure(s) for s in dense])
        assert np.allclose(singlet_mixedness(c1), d_direct, atol=1e-10)

    def test_large_j_form_within_envelope(self):
        bath = gaussian_approx(100, "narrow")
        sys = CommonBathSystem(1.2, 0.8, 100.0, bath)
        beta = (sys.k_a - sys.k_b) * 10 / (2 * sys.j)
        times = np.linspace(0, 50 / sys.j, 600)
        exact = singlet_survival(sys, times)
        # J/K_mean = 100 still sits below ten Overhauser scales here, so the
        # regime warning fires even though the envelope bound holds
        with pytest.warns(UserWarning, match="Overhauser"):
            approx = singlet_survival_large_j(sys, times)
        assert np.abs(approx - exact).max() <= 10 * beta**2
        assert approx[0] == pytest.approx(1.0)

    def test_large_j_symmetric_is_unity(self):
        sys = CommonBathSystem(1.0, 1.0, 500.0, gaussian_approx(50, "narrow"))
        assert np.allclose(singlet_survival_large_j(sys, [0.0, 0.2, 1.0]), 1.0)

    def test_out_of_regime_warns(self):
        sys = CommonBathSystem(1.0, 0.5, 2.0, gaussian_approx(50, "narrow"))
        with pytest.warns(UserWarning, match="Overhauser"):
            singlet_survival_large_j(sys, [0.1])

    def test_zero_exchange_rejected(self):
        with pytest.raises(AssumptionError):
            singlet_survival_large_j(system(1.0, 0.5, 0.0), [0.1])


class TestShortTimeScales:
    def test_tensor_invariant_values(self):
        assert tensor_invariant_r(make_named_state("triplet0")) == pytest.approx(2.0)
        assert tensor_invariant_r(make_named_state("bell_t1")) == pytest.approx(2.0)
        assert tensor_invariant_r(make_named_state("singlet")) == pytest.approx(-6.0)
        assert tensor_invariant_r(make_named_state("up_down")) == pytest.approx(0.0)

    def test_singlet_rate(self):
        # (1/2) <I(I+1)> (K_A - K_B)^2; infinite time for equal couplings
        sys = system(1.0, 0.4, 7.0, n=4)
        m2 = sys.bath.casimir_moment()
        rate = decoherence_rate_sq(make_named_state("singlet"), sys)
        assert rate == pytest.approx(0.5 * m2 * 0.36, abs=1e-12)
        assert decoherence_rate_sq(make_named_state("singlet"), system(1.0, 1.0)) <= 1e-14
        assert short_time_decoherence_time(make_named_state("singlet"), system(1.0, 1.0)) == math.inf

    def test_separable_rate_splits_into_single_qubit_rates(self):
        sys = system(1.1, 0.6, 3.0, n=5)
        m2 = sys.bath.casimir_moment()
        rate = decoherence_rate_sq(make_named_state("up_down"), sys)
        rate_a = sys.k_a**2 * m2 / 3
        rate_b = sys.k_b**2 * m2 / 3
        assert rate == pytest.approx(rate_a + rate_b, abs=1e-12)

    def test_triplet_rate(self):
        sys = system(1.0, 0.5, 2.0, n=4)
        m2 = sys.bath.casimir_moment()
        rate = decoherence_rate_sq(make_named_state("triplet0"), sys)
        expected = 0.5 * m2 * (1.0 + 0.25 + 2 / 3 * 0.5)
        assert rate == pytest.approx(expected, abs=1e-12)

    def test_rejects_mixed_state(self):
        with pytest.raises(InvalidStateError):
            decoherence_rate_sq(make_named_state("werner", p=0.5), system())

    def test_exchange_does_not_enter(self):
        s0 = make_named_state("r_state", r=0.5)
        rates = {j: decoherence_rate_sq(s0, system(1.0, 0.4, j, n=4)) for j in (0, 10, 100)}
        assert len(set(rates.values())) == 1


class TestTransverseLongitudinalRates:
    def test_unit_component_moment(self):
        # exact 4-spin bath has <I(I+1)> = 3, i.e. unit per-component moment
        rates = transverse_longitudinal_rates(system(1.0, 1.0, 2.0, n=4))
        assert rates == (pytest.approx(2.0), pytest.approx(4.0))

    def test_ratio_always_two(self):
        rates = transverse_longitudinal_rates(
            CommonBathSystem(0.7, 0.7, 9.0, gaussian_approx(30, "narrow"))
        )
        assert rates[1] / rates[0] == pytest.approx(2.0)

    def test_requires_equal_couplings(self):
        with pytest.raises(AssumptionError):
            transverse_longitudinal_rates(system(1.0, 0.9, 1.0))

    def test_quadratic_fit_of_exact_evolution(self):
        sys = system(1.0, 1.0, 2.0, n=4)
        rate_xx, rate_zz = transverse_longitudinal_rates(sys)
        times = np.linspace(0, 0.02, 9)[1:]
        states = SectorExactEvolver(sys).evolve(make_named_state("triplet0"), times)
        pi_xx = np.array([s.pi[0, 0] for s in states])
        pi_zz = np.array([s.pi[2, 2] for s in states])
        x = times**2
        fit_xx = float(x @ (1 - pi_xx)) / float(x @ x)       # pi_xx ~ 1 - r t^2
        fit_zz = float(x @ (pi_zz + 1)) / float(x @ x)       # pi_zz ~ -1 + r t^2
        assert fit_xx == pytest.approx(rate_xx, rel=0.01)
        assert fit_zz == pytest.approx(rate_zz, rel=0.01)


ORACLE_COUPLINGS = {
    "unequal": (1.0, 0.4, 1.5),
    "no-exchange": (1.1, 0.6, 0.0),
    "negative-kb": (0.9, -0.5, 1.2),
}


class TestSectorAgainstOracle:
    @pytest.mark.parametrize("couplings", list(ORACLE_COUPLINGS))
    @pytest.mark.parametrize("n", range(4, 9))
    def test_single_sector_matches_projected_oracle(self, n, couplings):
        # a delta distribution on one sector equals the oracle started in the
        # corresponding projected bath state, for every sector of n spins
        from spinbath.bath import spin_grid
        from spinbath.oracle import CouplingParams, build, evolve_reduced

        k_a, k_b, j = ORACLE_COUPLINGS[couplings]
        full = build("common", n, CouplingParams(k_a, k_b, j))
        states = [make_named_state("r_state", r=0.5), make_named_state("bell_t1"),
                  make_named_state("werner", p=0.3),
                  make_named_state("general_pure", gamma=0.3 + 0.4j, theta=1.1, phi=2.3)]
        times = [0.6, 1.9]
        for i in spin_grid(n):
            evolver = SectorExactEvolver(CommonBathSystem(k_a, k_b, j, delta_distribution(i)))
            for s0 in states:
                a = evolver.evolve(s0, times)
                b = evolve_reduced(full, s0, ("sector", i), times)
                for x, y in ((a.p_a, b.p_a), (a.p_b, b.p_b), (a.pi, b.pi)):
                    assert np.abs(x - y).max() < 1e-10


def six_j_loop(two_i: np.ndarray) -> np.ndarray:
    """``common._six_j`` as one product per table entry: the byte reference of the padded pass."""
    t = np.zeros((3, 3, 3) + two_i.shape)
    for (k, a, b), (c, num, den) in common._SIX_J.items():
        num, den = (np.prod(np.add.outer(np.array(o, dtype=float), two_i), axis=0) for o in (num, den))
        sq = np.divide(abs(c) * num, den, out=np.zeros_like(two_i), where=den != 0.0)
        t[k, a + 1, b + 1] = t[k, b + 1, a + 1] = math.copysign(1.0, c) * np.sqrt(np.maximum(sq, 0.0))
    return t


@pytest.mark.parametrize("bath", [unpolarized_exact(7), gaussian_approx(100, "narrow"),
                                  gaussian_approx(10**6, "narrow")], ids=["exact-7", "n100", "n1e6"])
def test_six_j_one_pass_matches_the_loop(bath):
    # spin 0 and 1/2 sectors (vanishing radicands and denominators) included
    two_i = 2.0 * np.concatenate([[0.0, 0.5, 1.0], bath.significant_sectors()[0]])
    assert same_bits(common._six_j(two_i), six_j_loop(two_i))


# initial states of every kind in one batch: complex and tilted, mixed, X states
BATCH_STATES = [("general_pure", dict(gamma=0.3 + 0.4j, theta=1.1, phi=2.3)), ("werner", dict(p=0.6)),
                ("r_state", dict(r=-0.5)), ("up_down", {}), ("bell_t1", {})]


class TestBatchedInitialStates:
    """One evolution of a batch of initial states: the state axes, then the time
    axis, and sample [k] equal to the evolution of initial state k, bit for bit."""

    @pytest.mark.parametrize("times", [np.linspace(0.0, 6.0, 50), np.array([0.0, 0.7, 2.9])],
                             ids=["blocked-grid", "three-samples"])
    @pytest.mark.parametrize("k_a, k_b", [(1.2, 0.8), (1.0, 1.0)], ids=["unequal", "equal"])
    def test_batch_equals_per_state(self, k_a, k_b, times):
        evolver = SectorExactEvolver(CommonBathSystem(k_a, k_b, 3.0, gaussian_approx(40, "narrow")))
        initial = [make_named_state(name, **params) for name, params in BATCH_STATES]
        batch = evolver.evolve(TwoQubitState.stack(initial), times)
        assert batch.pi.shape == (len(initial), times.size, 3, 3)
        for k, s0 in enumerate(initial):
            assert same_states(batch[k], evolver.evolve(s0, times))

    def test_nested_batch(self):
        evolver = SectorExactEvolver(CommonBathSystem(1.1, 0.45, 0.8, unpolarized_exact(4)))
        initial = [make_named_state(name, **params) for name, params in BATCH_STATES[:4]]
        times = np.linspace(0.0, 3.0, 7)
        grid = evolver.evolve(TwoQubitState.stack([TwoQubitState.stack(initial[:2]),
                                                   TwoQubitState.stack(initial[2:])]), times)
        assert grid.p_a.shape == (2, 2, 7, 3)
        assert same_states(grid[1][0], evolver.evolve(initial[2], times))

    def test_channel_evaluated_once_per_call(self, monkeypatch):
        calls = []
        functions = common._channel_functions

        def counting(lines, times):
            calls.append(np.size(times))
            return functions(lines, times)

        monkeypatch.setattr(common, "_channel_functions", counting)
        evolver = SectorExactEvolver(CommonBathSystem(1.2, 0.8, 20.0, gaussian_approx(40, "narrow")))
        initial = TwoQubitState.stack([make_named_state(name, **params) for name, params in BATCH_STATES])
        evolver.evolve(initial, np.linspace(0.0, 1.0, 11))
        assert calls == [11]

    def test_passes_of_the_map_leave_the_bits_alone(self, monkeypatch):
        # the map runs in passes of _CHANNEL_ROWS times; pass edges, a last pass of two times
        # and a grid of one time give the bits of a single pass (full-rank states: a one-time
        # last pass would change some of them)
        evolver = SectorExactEvolver(CommonBathSystem(1.2, 0.8, 3.0, gaussian_approx(40, "narrow")))
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        rho = m @ m.conj().swapaxes(-1, -2)
        initial = density_to_state(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None])
        monkeypatch.setattr(common, "_CHANNEL_ROWS", 8)
        grids = [np.linspace(0.0, 6.0, n) for n in (1, 2, 8, 9, 10, 17, 25, 33, 50)]
        passes = [evolver.evolve(initial, t) for t in grids]
        monkeypatch.setattr(common, "_CHANNEL_ROWS", 1 << 20)
        for t, got in zip(grids, passes):
            assert same_states(got, evolver.evolve(initial, t))

    def test_batched_evolution_peaks_near_its_output(self):
        # the map writes every state's passes into one output, which the result takes
        # without a copy: the peak is the output plus the eight channel functions
        evolver = SectorExactEvolver(CommonBathSystem(1.2, 0.8, 5.0, gaussian_approx(100, "narrow")))
        initial = TwoQubitState.stack([make_named_state("r_state", r=0.4), make_named_state("singlet")])
        times = np.linspace(0.0, 5.0, 200_000)
        tracemalloc.start()
        try:
            out = evolver.evolve(initial, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (out.p_a.nbytes + out.p_b.nbytes + out.pi.nbytes)
