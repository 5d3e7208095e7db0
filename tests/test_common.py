import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from spinbath import common
from spinbath.bath import MAX_SPINS, delta_distribution, gaussian_approx, unpolarized_exact
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


# ---------------------------------------------------------------------------
# the sector reference: each bath sector as a single spin I
# ---------------------------------------------------------------------------

# S_z of the pair states uu, ud, du, dd (the basis of ``state_to_density``), and the F_z block
# that holds |a, m>, counted from the block of |uu, m>
PAIR_M = np.array([1, 0, 0, -1])
BLOCK_OF = 1 - PAIR_M
# [c, a, d, b]: the bath trace pairs |c, m'> with |d, m'> only, which |a, m> and |b, m> reach
# if and only if m_c - m_d = m_a - m_b
_PAIR_DM = np.subtract.outer(PAIR_M, PAIR_M)
SAME_BATH_M = np.equal.outer(_PAIR_DM, _PAIR_DM).transpose(0, 2, 1, 3)


def spin_i_blocks(k_a, k_b, j, spins):
    """H = (K_A S_A + K_B S_B) . I + J S_A . S_B with each sector of ``spins`` a single spin I,
    in its blocks of fixed F_z = M over |uu, M-1>, |ud, M>, |du, M>, |dd, M+1>, from M = I + 1
    down to the last one, I - 1 - floor(I), that holds a state |a, m> with m >= 0:
    (blocks, 4, 4), and the floor(I) + 3 blocks of each sector. A basis state whose bath m
    lies outside [-I, I] meets only ladder factors that vanish, so it decouples."""
    spins = np.asarray(spins, dtype=float)
    sizes = np.floor(spins).astype(int) + 3
    i = np.repeat(spins, sizes)
    m = i + 1.0 - (np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes))
    up = np.sqrt(np.maximum((i + m) * (i - m + 1.0), 0.0))  # <m-1| I_- |m>: uu(M-1) to ud, du(M)
    down = np.sqrt(np.maximum((i + m + 1.0) * (i - m), 0.0))  # <m| I_- |m+1>: ud, du(M) to dd(M+1)
    h = np.zeros((m.size, 4, 4))
    h[:, 0, 0] = 0.5 * (k_a + k_b) * (m - 1.0) + 0.25 * j
    h[:, 1, 1] = 0.5 * (k_a - k_b) * m - 0.25 * j
    h[:, 2, 2] = -0.5 * (k_a - k_b) * m - 0.25 * j
    h[:, 3, 3] = -0.5 * (k_a + k_b) * (m + 1.0) + 0.25 * j
    h[:, 1, 2] = h[:, 2, 1] = 0.5 * j
    h[:, 0, 1] = h[:, 1, 0] = 0.5 * k_b * up
    h[:, 0, 2] = h[:, 2, 0] = 0.5 * k_a * up
    h[:, 1, 3] = h[:, 3, 1] = 0.5 * k_a * down
    h[:, 2, 3] = h[:, 3, 2] = 0.5 * k_b * down
    return h, sizes


def spin_i_channels(k_a, k_b, j, spins, times):
    """The reduced map L[t, c, a, d, b] of each sector of ``spins`` in turn: the pair started in
    rho (x) 1/(2I+1) is in sum_ab L[t, :, a, :, b] rho[a, b] at the T ``times``.

    One batched ``eigh`` gives U_M(t) = exp(-i H_M t) on every block; |a, m> lies in the block
    M = m + m_a, and the bath trace sums U_M(t)[c, a] U_M'(t)[d, b]* over m with weight
    1/(2I+1). Flipping every spin, |a, m> -> |a reversed, -m>, leaves H as it is, so the
    bath m < 0 add the terms of m > 0 with every pair index reversed."""
    h, sizes = spin_i_blocks(k_a, k_b, j, spins)
    vals, vecs = np.linalg.eigh(h)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    for i, lo, n in zip(spins, np.cumsum(sizes) - sizes, sizes):
        lam = []
        # about 2^17 blocks and times at once, so that I = 10^5 takes ~180 MB, not ~500
        for ts in np.array_split(times, min(times.size, -(-times.size * n >> 17))):
            v, phase = vecs[lo : lo + n], np.exp(-1j * np.multiply.outer(ts, vals[lo : lo + n]))
            u = np.einsum("bck,tbk,bak->tbca", v, phase, v, optimize=True)
            # x[t, k, (c, a)] = U(t)[c, a] on the block of |a, I - k>, bath m = 0 at half weight
            x = np.stack([u[:, o : o + n - 2, :, a] for a, o in enumerate(BLOCK_OF)], -1)
            x = x.reshape(-1, n - 2, 16)
            x[:, n - 3] *= math.sqrt(0.5) if i % 1.0 == 0.0 else 1.0
            lam.append((x.swapaxes(1, 2) @ x.conj()).reshape(-1, 4, 4, 4, 4))
        lam = np.concatenate(lam)
        yield (lam + lam[:, ::-1, ::-1, ::-1, ::-1]) * SAME_BATH_M / (2.0 * i + 1.0)


def spin_i_evolve(system: CommonBathSystem, rho, times) -> np.ndarray:
    """The reference's reduced states (..., T, 4, 4) of the density matrices ``rho`` over the
    kept sectors of ``system``, each with its weight."""
    spins, weights, _ = system.bath.significant_sectors()
    maps = spin_i_channels(system.k_a, system.k_b, system.j, spins, times)
    return np.einsum("tcadb,...ab->...tcd", sum(w * lam for w, lam in zip(weights, maps)), rho)


def random_density(rng, rank, count=()):
    """Random complex density matrices of the given rank, of shape count + (4, 4)."""
    psi = rng.normal(size=count + (rank, 4)) + 1j * rng.normal(size=count + (rank, 4))
    rho = np.einsum("...ka,...kb->...ab", psi, psi.conj())
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_state(rng, rank):
    """A random complex density matrix of the given rank, as a state."""
    return density_to_state(random_density(rng, rank))


def bell_elements(states):
    """(singlet_pop, triplet0_pop, st_coherence, t1t2_pop) of a batch."""
    rho = state_to_density(states)

    def element(bra, ket):
        return np.einsum("i,tij,j->t", bra.conj(), rho, ket)

    return (element(KET_SINGLET, KET_SINGLET).real, element(KET_TRIPLET0, KET_TRIPLET0).real,
            element(KET_TRIPLET0, KET_SINGLET), element(KET_T1, KET_T1).real)


class TestSectorLevels:
    """``common._sector_levels``: F = I+1, F = I-1, then h + g and h - g of the F = I block,
    whose level 3 is cos(phi) |T> + sin(phi) |S>."""

    def test_symmetric_mixed_levels(self):
        (_, _, upper, lower), phi = common._sector_levels(system(1.0, 1.0, 3.0), 1.5)
        # the triplet at J - K above the singlet, no mixing
        assert upper == pytest.approx(2.0)
        assert lower == pytest.approx(0.0)
        assert phi == 0.0

    def test_symmetric_below_exchange(self):
        (_, _, triplet, singlet), phi = common._sector_levels(system(1.0, 1.0, 0.2), 1.0)
        assert triplet == pytest.approx(-0.8)
        assert singlet == pytest.approx(0.0)
        assert phi == 0.0

    def test_triplet_levels_no_exchange(self):
        (f_plus, f_minus, _, _), _ = common._sector_levels(system(1.0, 1.0, 0.0), 1.0)
        assert f_plus == pytest.approx(1.0)
        assert f_minus == pytest.approx(-2.0)

    @pytest.mark.parametrize("couplings", [(1.0, 0.5, 2.0), (1.3, 0.2, 0.7), (0.9, -0.5, 1.2), (0.7, 0.7, 0.7)])
    @pytest.mark.parametrize("i", [0.5, 1.0, 3.5])
    def test_mixed_block_eigenvectors(self, i, couplings):
        # level 3 and level 4 are the eigenpairs of [[J - K, off], [off, 0]] on {|T>, |S>}
        sys = system(*couplings)
        (_, _, l3, l4), phi = common._sector_levels(sys, i)
        off = -math.sqrt(i * (i + 1)) * (sys.k_a - sys.k_b) / 2
        block = np.array([[sys.j - sys.k_mean, off], [off, 0.0]])
        vec3, vec4 = np.array([math.cos(phi), math.sin(phi)]), np.array([-math.sin(phi), math.cos(phi)])
        assert np.abs(block @ vec3 - l3 * vec3).max() < 1e-12
        assert np.abs(block @ vec4 - l4 * vec4).max() < 1e-12
        assert abs(phi) <= math.pi / 4

    def test_full_sector_spectrum_matches_levels(self):
        # dense sector eigenvalues (shifted to the singlet reference) are the
        # four analytic levels with the right multiplicities
        sys = system(1.0, 0.4, 1.5)
        i = 1.5
        levels, _ = common._sector_levels(sys, i)
        h = sector_hamiltonian(sys, i).real
        vals = np.linalg.eigvalsh(h) + 0.75 * sys.j
        expect = np.repeat(levels, [int(2 * i + 3), int(2 * i - 1), int(2 * i + 1), int(2 * i + 1)])
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
    """Propagator coefficients of one sector at time t, from ``common._sector_levels``."""
    if i == 0.0:
        # no triplet of total spin F = I exists: pure phases, no mixing
        return PropagatorCoefficients(1.0 + 0j, 0j, complex(np.exp(-1j * system.j * t)), 0j, 0j, 0j)
    (f_plus, f_minus, l3, l4), phi = common._sector_levels(system, i)
    # the F = I block about its mean h, levels h +- g, and cos 2 phi = h / g
    gap = 0.5 * (l3 - l4)
    c, s = math.cos(gap * t), math.cos(2.0 * phi) * math.sin(gap * t)
    phase = np.exp(-0.5j * (l3 + l4) * t)
    a1 = phase * (c + 1j * s)
    b_tt = phase * (c - 1j * s)
    # transition coefficient: multiplies Y, whose singlet-triplet matrix
    # element is -sqrt(I(I+1)) in the ladder-consistent basis used here
    sin_over = t * np.sinc(gap * t / np.pi)
    a2 = -1j * phase * system.k_half_diff * sin_over
    u1 = np.exp(-1j * f_plus * t)
    u2 = np.exp(-1j * f_minus * t)
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


def channel_functions(system, times) -> dict[str, np.ndarray]:
    """The channel's eight functions (see ``common._apply_channel``) by name."""
    f = common._channel_functions(common._channel_lines(system), times)
    return dict(zip(("a", "b", "c", "d", "e", "g", "f0", "f2"), f))


class TestSymmetricEvolution:
    """k_a = k_b: the channel, read out as the paper's map (see ``common._apply_channel``)."""

    def test_map_at_time_zero(self):
        # vec_direct = a and tensor_direct = (f2 + g) / 2 are 1; vec_exchange = c,
        # vec_from_tensor = d / 2, tensor_transpose = (f2 - g) / 2, tensor_trace = (f0 - f2) / 3 are 0
        f = channel_functions(system(j=2.0, n=4), [0.0])
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
        f = channel_functions(sys, times)
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
    def test_matches_spin_i_reference(self, r, j):
        assert_matches_spin_i(system(1.0, 0.4, j, n=4), make_named_state("r_state", r=r), np.linspace(0, 3, 7))

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


def assert_matches_spin_i(system, initial, times):
    """``SectorExactEvolver`` on the initial state(s) against ``spin_i_evolve``, to 1e-12."""
    got = state_to_density(SectorExactEvolver(system).evolve(initial, times))
    assert np.abs(got - spin_i_evolve(system, state_to_density(initial), times)).max() < 1e-12


def assert_each_sector(couplings, spins, rng):
    """Each sector of ``spins`` alone, a random state of rank 1 and one of rank 4, against
    ``spin_i_channels`` to 1e-12, at four times up to the one where the widest line of the
    widest sector, |omega| t <= (max|K| (2I + 1) + |J|) t, reaches about 10^4."""
    k_a, k_b, j = couplings
    times = np.linspace(0.0, 1e4 / (max(abs(k_a), abs(k_b)) * (2.0 * max(spins) + 1.0) + abs(j)), 4)
    rho = np.stack([random_density(rng, rank, (len(spins),)) for rank in (1, 4)], axis=1)
    initial = density_to_state(rho)
    got = state_to_density(TwoQubitState.stack(
        SectorExactEvolver(CommonBathSystem(k_a, k_b, j, delta_distribution(i))).evolve(initial[s], times)
        for s, i in enumerate(spins)))
    want = np.einsum("stcadb,skab->sktcd", np.stack(list(spin_i_channels(k_a, k_b, j, spins, times))), rho)
    err = np.abs(got - want).max(axis=(1, 2, 3, 4))
    assert err.max() < 1e-12, spins[err.argmax()]


REFERENCE_COUPLINGS = {
    "unequal": (1.0, 0.4, 1.5),
    "no-exchange": (1.0, 0.4, 0.0),
    "negative-kb": (0.9, -0.5, 1.2),
    "opposite": (1.0, -1.0, 0.3),  # F = I +- 1 levels coincide
    "gap-zero": (0.7, 0.7, 0.7),  # F = I block degenerate: k_a = k_b = j
}
# unequal couplings under strong exchange, a negative one, equal ones, and a degenerate F = I block
SECTOR_COUPLINGS = {"unequal": (1.2, 0.8, 20.0), "negative-kb": (0.9, -0.5, 1.2), "equal": (1.0, 1.0, 5.0),
                    "gap-zero": (0.7, 0.7, 0.7)}


def kept_sectors(n_bath, every):
    """Every ``every``-th kept sector of gaussian-narrow N = ``n_bath``, the lightest and the heaviest."""
    spins, weights, _ = gaussian_approx(n_bath, "narrow").significant_sectors()
    return np.unique(np.r_[spins[::every], spins[weights.argmin()], spins[weights.argmax()]])


class TestChannelAgainstSpinI:
    """The 6j channel against the bath sector as a single spin I (``spin_i_channels``)."""

    @pytest.mark.parametrize("couplings", list(SECTOR_COUPLINGS))
    @pytest.mark.parametrize("n_bath, every", [(10**4, 1), (10**6, 100)], ids=["n1e4", "n1e6"])
    def test_kept_sectors(self, n_bath, every, couplings):
        # N = 10^4: all 430 kept sectors, I = 1 .. 430; N = 10^6: I = 1, 101, .., 4101 of the 4161
        # kept, the heaviest (I = 707) and the lightest, which is the widest (I = 4161)
        spins = kept_sectors(n_bath, every)
        assert spins.size == {10**4: 430, 10**6: 44}[n_bath]
        assert_each_sector(SECTOR_COUPLINGS[couplings], spins, np.random.default_rng(n_bath))

    @pytest.mark.parametrize("couplings", list(SECTOR_COUPLINGS) + ["no-exchange"])
    def test_half_steps(self, couplings):
        # I = 0 to 50 in half steps, where the edge blocks are a larger share
        assert_each_sector({**SECTOR_COUPLINGS, **REFERENCE_COUPLINGS}[couplings], np.arange(0.0, 50.25, 0.5),
                           np.random.default_rng(len(couplings)))

    @pytest.mark.parametrize("couplings", list(SECTOR_COUPLINGS))
    def test_wide_sectors(self, couplings):
        # up to the widest kept sector the CLI reaches: gaussian-wide at N = MAX_SPINS = 10^6, I = 8237
        widest = gaussian_approx(MAX_SPINS, "wide").significant_sectors()[0].max()
        assert widest == 8237.0
        assert_each_sector(SECTOR_COUPLINGS[couplings], [333.0, 4567.5, widest], np.random.default_rng(len(couplings)))

    def test_sector_beyond_the_cli(self):
        # I = 10^5, unequal couplings under strong exchange
        assert_each_sector(SECTOR_COUPLINGS["unequal"], [1e5], np.random.default_rng(10**5))

    @pytest.mark.parametrize("couplings", list(REFERENCE_COUPLINGS))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_exact_baths(self, n, couplings):
        rng = np.random.default_rng(100 * n + len(couplings))
        sys = CommonBathSystem(*REFERENCE_COUPLINGS[couplings], unpolarized_exact(n))
        initial = TwoQubitState.stack([random_state(rng, rank) for rank in (1, 2, 4)])
        assert_matches_spin_i(sys, initial, np.linspace(0.0, 5.0, 13))

    def test_named_states(self):
        initial = TwoQubitState.stack([make_named_state(name, **params) for name, params in [
            ("bell_t1", {}), ("up_down", {}), ("werner", dict(p=0.3)), ("singlet", {}),
            ("general_pure", dict(gamma=0.3 + 0.4j, theta=1.1, phi=2.3))]])
        assert_matches_spin_i(CommonBathSystem(1.2, 0.45, 2.0, unpolarized_exact(7)), initial,
                              np.linspace(0.0, 4.0, 9))

    @pytest.mark.parametrize("block", [1, 8 * 9 * 7, 8 * 4000])
    def test_sliced_line_sum(self, block, monkeypatch):
        # one line per slice of the line sum, or all of them in one, give the same states
        # (in the passes of a sum above _SMALL_SUM, which _PHASE_BLOCK sizes)
        monkeypatch.setattr(common, "_SMALL_SUM", 0)
        monkeypatch.setattr(common, "_PHASE_BLOCK", block)
        assert_matches_spin_i(CommonBathSystem(1.1, 0.3, 0.8, unpolarized_exact(11)),
                              random_state(np.random.default_rng(5), 2), np.linspace(0.0, 3.0, 7))

    def test_indefinite_state(self):
        # the evolution is linear in rho: an unphysical state evolves like the reference
        s0 = TwoQubitState(np.array([0.9, 0.0, 0.3]), np.array([0.0, 0.9, 0.0]), 0.9 * np.eye(3))
        assert validate_state(s0).min_eigenvalue < -0.1
        assert_matches_spin_i(CommonBathSystem(1.0, 0.4, 1.5, unpolarized_exact(6)), s0, np.linspace(0.0, 3.0, 7))

    @pytest.mark.parametrize("bath, k, j", [(gaussian_approx(100, "narrow"), 1.0, 200.0),
                                            (unpolarized_exact(24), -0.7, 0.0)],
                             ids=["gaussian-narrow-100", "exact-24"])
    def test_equal_couplings_on_many_sectors(self, bath, k, j):
        # k_a = k_b takes the line set of any couplings
        rng = np.random.default_rng(bath.spins.size)
        initial = TwoQubitState.stack([random_state(rng, rank) for rank in (1, 3)])
        assert_matches_spin_i(CommonBathSystem(k, k, j, bath), initial, np.linspace(0.0, 6.0, 600))


# the _SIX_J entries (k, F - I, F' - I) whose sign the channel sees; it sees each of the
# other eight (the six k = 2 entries, (1, -1, -1) and (1, 1, 1)) only squared
SIGN_SEEN = [(0, -1, -1), (0, 0, 0), (0, 1, 1), (1, -1, 0), (1, 0, 0), (1, 0, 1)]


def perturbed_six_j(monkeypatch, entry, factor):
    c = common._SIX_J_C.copy()
    c[list(common._SIX_J).index(entry)] *= factor
    monkeypatch.setattr(common, "_SIX_J_C", c)


@pytest.mark.parametrize("entry, factor", [(e, 1.01) for e in common._SIX_J] + [(e, -1.0) for e in SIGN_SEEN])
def test_spin_i_reference_catches_a_wrong_six_j_entry(entry, factor, monkeypatch):
    perturbed_six_j(monkeypatch, entry, factor)
    with pytest.raises(AssertionError):
        for couplings in SECTOR_COUPLINGS.values():
            assert_each_sector(couplings, [0.5, 1.0, 2.5, 7.0], np.random.default_rng(3))


@pytest.mark.parametrize("entry", sorted(set(common._SIX_J) - set(SIGN_SEEN)))
def test_channel_sees_the_sign_of_the_other_six_j_entries_only_squared(entry, monkeypatch):
    sys = CommonBathSystem(1.2, 0.8, 20.0, unpolarized_exact(9))
    want = common._channel_lines(sys)
    perturbed_six_j(monkeypatch, entry, -1.0)
    for got, ref in zip(common._channel_lines(sys), want):
        assert np.array_equal(got, ref)


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
    """The channel's own identities at N = 10^6 (4161 kept sectors, I = 1 .. 4161), each to
    1e-12, on all the sectors at once; ``TestChannelAgainstSpinI`` checks a spread of them
    one by one."""

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
