import functools
import math
import tracemalloc

import numpy as np
import pytest

from spinbath import common
from spinbath.common import CommonBathSystem
from spinbath.bath import unpolarized_exact
from spinbath.oracle import (
    DimensionCapError,
    EigenBlock,
    _flip_paired_eigh,
    build,
    eigh_cost,
    evolve_reduced,
    reduced_trajectory,
)
from spinbath.optimize import (
    coupling_overlap,
    decoherence_rate_inhomogeneous,
    gaussian_dot_couplings,
)
from spinbath.states import (
    SPIN_HALF,
    decoherence_measure,
    density_to_state,
    make_named_state,
    state_to_density,
)

from test_bath import sector_dimension


# ---------------------------------------------------------------------------
# dense Kronecker-product reference: the oracle's former builder
# ---------------------------------------------------------------------------


def pad_site_op(op, site, n_sites):
    """Embed a single-site operator at ``site`` in a chain of n_sites spin-1/2."""
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (n_sites - site - 1), dtype=complex)
    return functools.reduce(np.kron, (left, op, right))


def collective_spin(n_sites, component):
    return sum(pad_site_op(SPIN_HALF[component], site, n_sites) for site in range(n_sites))


def kron_hamiltonian(k_a, k_b, j=0.0):
    """Complex 4 * 2^n Hamiltonian of the star with per-nucleus couplings, from
    Kronecker products of spin matrices."""
    n_bath = len(k_a)
    eye2, eye_bath = np.eye(2, dtype=complex), np.eye(2**n_bath)
    h = np.zeros((4 * 2**n_bath, 4 * 2**n_bath), dtype=complex)
    for m in range(3):
        s_a, s_b = np.kron(SPIN_HALF[m], eye2), np.kron(eye2, SPIN_HALF[m])
        for site in range(n_bath):
            site_op = pad_site_op(SPIN_HALF[m], site, n_bath)
            h += k_a[site] * np.kron(s_a, site_op) + k_b[site] * np.kron(s_b, site_op)
        h += j * np.kron(np.kron(SPIN_HALF[m], SPIN_HALF[m]), eye_bath)
    return h


def kron_total_fz(n_bath):
    eye2 = np.eye(2, dtype=complex)
    return (
        np.kron(np.kron(SPIN_HALF[2], eye2), np.eye(2**n_bath))
        + np.kron(np.kron(eye2, SPIN_HALF[2]), np.eye(2**n_bath))
        + np.kron(np.eye(4), collective_spin(n_bath, 2))
    )


def kron_projector(n_bath, i):
    """Projector onto bath spin i from the eigenvectors of the dense Casimir."""
    i_sq = sum(collective_spin(n_bath, m) @ collective_spin(n_bath, m) for m in range(3)).real
    vals, vecs = np.linalg.eigh(i_sq)
    v = vecs[:, np.abs(vals - i * (i + 1)) < 1e-8]
    return v @ v.T


def total_fz(n_bath):
    """z component of the total (pair + bath) angular momentum, from the bits of the index."""
    downs = sum((np.arange(4 << n_bath) >> bit) & 1 for bit in range(n_bath + 2))
    return np.diag(0.5 * (n_bath + 2) - downs)


def casimir_eigen(n_bath):
    """Bath I^2 = 3n/4 + 2 sum_{i<j} S_i . S_j by the oracle's flip-paired eigh:
    (indices, I(I+1) eigenvalues, eigenvectors), one per down-spin count."""
    pairs = [(i, j, 2.0) for i in range(n_bath) for j in range(i + 1, n_bath)]
    return [(idx, vals + 0.75 * n_bath, vecs) for idx, vals, vecs in _flip_paired_eigh(n_bath, pairs)]


def sector_blocks(n_bath, i):
    """Projector onto total bath spin i, one (indices, block) per down-spin count."""
    out = []
    for idx, vals, vecs in casimir_eigen(n_bath):
        v = vecs[:, np.abs(vals - i * (i + 1.0)) < 1e-8]
        out.append((idx, v @ v.T))
    return out


def sector_env(n_bath, i):
    """The normalized projector onto total bath spin i as ``reduced_trajectory``'s environment."""
    blocks = [block for _, block in sector_blocks(n_bath, i)]
    total = sum(np.trace(block) for block in blocks)
    assert total > 0.5, f"no bath sector with spin {i} for {n_bath} spins"
    return {m: block / total for m, block in enumerate(blocks)}


def evolve_in(system, state, bath_state, times):
    """Reduced pair states with the bath "fully_mixed" (``evolve_reduced``) or
    started in ("sector", i), through ``reduced_trajectory`` with ``sector_env``."""
    if bath_state == "fully_mixed":
        return evolve_reduced(system, state, times)
    env = sector_env(system.n_bath, bath_state[1])
    times = np.atleast_1d(np.asarray(times, dtype=float))
    red = reduced_trajectory(system.eigensystem(), state_to_density(state), env, times)
    return density_to_state(red)


def bath_spin_projector(n_bath, i):
    """Projector onto the total-bath-spin-i subspace of the bath alone, from ``sector_blocks``."""
    proj = np.zeros((1 << n_bath, 1 << n_bath))
    for idx, block in sector_blocks(n_bath, i):
        proj[np.ix_(idx, idx)] = block
    return proj


def bath_spin_spectrum(n_bath: int) -> list[tuple[float, int]]:
    """(total spin, eigenvalue count) pairs of the bath Casimir operator, from ``casimir_eigen``."""
    vals = np.concatenate([vals for _, vals, _ in casimir_eigen(n_bath)])
    out = []
    for i_val in np.arange(0.5 * (n_bath % 2), n_bath / 2.0 + 0.25, 1.0):
        count = int(np.sum(np.abs(vals - i_val * (i_val + 1.0)) < 1e-8))
        if count:
            out.append((float(i_val), count))
    assert sum(c for _, c in out) == 2**n_bath
    return out


def per_block_eigensystem(full):
    """Reference for the flip-paired eigensystem: every F_z block diagonalised by its own eigh."""
    out = []
    for k, (idx, h) in enumerate(full.blocks):
        ends = np.searchsorted(idx, np.arange(5) << full.n_bath)
        rows = tuple((lo, hi, k - bin(a).count("1")) if hi > lo else None
                     for a, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])))
        out.append(EigenBlock(*np.linalg.eigh(h), rows))
    return out


def random_couplings(n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 1.5, n), rng.uniform(-0.4, 1.2, n)


def star(mode, coup, n):
    """Per-nucleus (k_a, k_b) and exchange j of n bath spins for a ``MODES`` entry:
    private halves (the first n // 2 nuclei are qubit A's), one shared bath, or
    random per-nucleus couplings for None."""
    if coup is None:
        return (*random_couplings(n), 0.0)
    k_a, k_b, j = coup
    if mode == "separate":
        own = np.arange(n) < n // 2
        return np.where(own, k_a, 0.0), np.where(own, 0.0, k_b), j
    return np.full(n, k_a), np.full(n, k_b), j


MODES = [
    ("separate", (1.0, 0.7, 0.0)),
    ("common", (1.0, 0.4, 2.0)),
    ("inhomogeneous", None),
]


class TestKronReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    @pytest.mark.parametrize("mode,coup", MODES)
    def test_blocks_equal_kron_hamiltonian(self, mode, coup, n):
        couplings = star(mode, coup, n)
        ref = kron_hamiltonian(*couplings)
        assert np.abs(ref.imag).max() < 1e-15
        h = build(*couplings).hamiltonian
        assert h.dtype == np.float64
        assert np.abs(h - ref.real).max() < 1e-14

    @pytest.mark.parametrize("mode,coup", MODES)
    def test_kron_hamiltonian_conserves_total_fz(self, mode, coup):
        # the physics behind the block structure, checked on the reference
        n = 4
        ref = kron_hamiltonian(*star(mode, coup, n))
        fz = kron_total_fz(n)
        assert np.abs(ref @ fz - fz @ ref).max() < 1e-12
        assert np.abs(total_fz(n) - fz).max() == 0.0

    def test_block_sizes(self):
        full = build(np.full(6, 1.0), np.full(6, 0.4), 2.0)
        sizes = [idx.size for idx, _ in full.blocks]
        assert sizes == [math.comb(8, k) for k in range(9)]
        assert sum(sizes) == full.dim == 256

    @pytest.mark.parametrize("n,bath_state", [
        (3, "fully_mixed"), (3, ("sector", 0.5)), (3, ("sector", 1.5)),
        (6, "fully_mixed"), (6, ("sector", 1.0)), (6, ("sector", 3.0)),
    ])
    @pytest.mark.parametrize("mode,coup", MODES)
    @pytest.mark.parametrize("name", ["r_state", "bell_t1", "general_pure"])
    def test_evolve_reduced_equals_kron_reference(self, mode, coup, n, bath_state, name):
        couplings = star(mode, coup, n)
        s0 = make_named_state(name, r=0.3, gamma=0.4 - 0.2j, theta=0.7, phi=1.3)
        times = np.array([0.0, 0.35, 1.1, 2.4, 6.2])
        if bath_state == "fully_mixed":
            rho_env = np.eye(2**n) / 2**n
        else:
            proj = kron_projector(n, bath_state[1])
            rho_env = proj / np.trace(proj)
        vals, vecs = np.linalg.eigh(kron_hamiltonian(*couplings))
        rho0 = np.kron(state_to_density(s0), rho_env)
        expected = []
        for t in times:
            u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
            rho_t = (u @ rho0 @ u.conj().T).reshape(4, 2**n, 4, 2**n)
            expected.append(np.trace(rho_t, axis1=1, axis2=3))
        got = state_to_density(evolve_in(build(*couplings), s0, bath_state, times))
        assert np.abs(got - np.array(expected)).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 5])
    def test_bath_projector_equals_kron_casimir(self, n):
        for i in np.arange(n % 2 / 2, n / 2 + 0.25):
            assert np.abs(bath_spin_projector(n, i) - kron_projector(n, i)).max() < 1e-12


class TestFlipPairing:
    """The flip-paired eigensystem against one eigh per F_z block (odd n has no middle block)."""

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    @pytest.mark.parametrize("mode,coup", MODES)
    def test_hamiltonian_is_flip_invariant(self, mode, coup, n):
        # complementing every bit of the index reverses its order: H[Ci, Cj] = H[i, j]
        couplings = star(mode, coup, n)
        h = build(*couplings).hamiltonian
        assert np.array_equal(h, h[::-1, ::-1])
        ref = kron_hamiltonian(*couplings).real  # the premise, on an independent build
        assert np.abs(ref - ref[::-1, ::-1]).max() < 1e-15

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("mode,coup", MODES)
    def test_eigensystem_equals_per_block_eigh(self, mode, coup, n):
        full = build(*star(mode, coup, n))
        paired, ref = full.eigensystem(), per_block_eigensystem(full)
        assert len(paired) == len(ref) == n + 3
        for (idx, h), got, want in zip(full.blocks, paired, ref):
            assert got.rows == want.rows
            assert np.abs(np.sort(got.vals) - want.vals).max() < 1e-12
            assert np.abs(h @ got.vecs - got.vecs * got.vals).max() < 1e-12
            assert np.abs(got.vecs.T @ got.vecs - np.eye(idx.size)).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("mode,coup", MODES)
    @pytest.mark.parametrize("bath_state", ["fully_mixed", "sector"])
    def test_evolve_reduced_equals_per_block_path(self, mode, coup, n, bath_state, monkeypatch):
        full = build(*star(mode, coup, n))
        bath_state = bath_state if bath_state == "fully_mixed" else ("sector", n / 2 - 1)
        times = np.array([0.0, 0.4, 1.3, 3.1])
        states = [make_named_state("r_state", r=0.3), make_named_state("bell_t1"),
                  make_named_state("general_pure", gamma=0.4 - 0.7j, theta=0.9, phi=2.1)]
        got = [state_to_density(evolve_in(full, s0, bath_state, times)) for s0 in states]
        monkeypatch.setattr(full, "eigensystem", lambda: per_block_eigensystem(full))
        for s0, g in zip(states, got):
            want = state_to_density(evolve_in(full, s0, bath_state, times))
            assert np.abs(g - want).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_eigh_cost_counts_the_paired_eigh(self, n, monkeypatch):
        sizes, eigh = [], np.linalg.eigh

        def counting_eigh(a):
            sizes.append(len(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        eig = build(np.full(n, 1.0), np.full(n, 0.4), 1.5).eigensystem()
        roots = {id(root): root for root in map(_root, (b.vecs for b in eig))}
        assert eigh_cost(n) == (max(sizes), sum(r.nbytes for r in roots.values()))


def _root(a):
    while a.base is not None:
        a = a.base
    return a


class TestBuild:
    @pytest.mark.parametrize("mode,coup", MODES[:2])
    def test_hermitian(self, mode, coup):
        sys = build(*star(mode, coup, 4))
        h = sys.hamiltonian
        assert np.abs(h - h.T).max() == 0.0

    def test_inhomogeneous_mode(self):
        sys = build(np.array([1.0, 0.5, 0.2]), np.array([0.2, 0.5, 1.0]))
        assert sys.dim == 32
        # equal per-site couplings are the shared bath K_A S_A . I + K_B S_B . I,
        # I the collective bath spin
        eye2 = np.eye(2)
        ref = sum(np.kron(0.8 * np.kron(SPIN_HALF[m], eye2) + 0.3 * np.kron(eye2, SPIN_HALF[m]),
                          collective_spin(3, m)) for m in range(3))
        assert np.abs(build(np.full(3, 0.8), np.full(3, 0.3)).hamiltonian - ref).max() < 1e-12

    def test_inhomogeneous_mode_has_no_exchange(self):
        # j defaults to zero, which adds no qubit-qubit term
        sys = build(np.array([1.0, 0.5, 0.2]), np.array([0.2, 0.5, 1.0]))
        assert all(t[:2] != (0, 1) for t in sys.terms)

    def test_common_conserves_total_fz(self):
        sys = build(np.full(4, 1.0), np.full(4, 0.3), 1.5)
        fz = total_fz(4)
        comm = sys.hamiltonian @ fz - fz @ sys.hamiltonian
        assert np.abs(comm).max() < 1e-12

    def test_single_bath_spin_levels(self):
        # dim 8 system: levels from the I = 1/2 sector formulas
        k, j = 1.0, 1.7
        sys = build([k], [k], j)
        vals = np.sort(np.linalg.eigvalsh(sys.hamiltonian))
        levels, _ = common._sector_levels(CommonBathSystem(k, k, j, unpolarized_exact(1)), 0.5)
        # F = 3/2, then the F = 1/2 pair (I = 1/2 has no F = I - 1), relative to the singlet level
        expect = np.sort(np.repeat(levels[[0, 2, 3]], [4, 2, 2]) - 0.75 * j)
        assert np.allclose(vals, expect, atol=1e-12)

    @pytest.mark.parametrize("k_a,k_b", [
        (np.ones(13), np.ones(13)),
        (np.ones(0), np.ones(0)),
        (np.ones(4), np.ones(5)),
        (np.ones((2, 3)), np.ones((2, 3))),
    ], ids=["13", "0", "mismatched", "2-d"])
    def test_dimension_cap(self, k_a, k_b):
        with pytest.raises(DimensionCapError):
            build(k_a, k_b)

    def test_blocks_released_after_eigensystem(self):
        # the block Hamiltonians are as large as the eigenvectors; only the
        # eigensystem may stay alive, and the dense H is rebuilt on demand
        tracemalloc.start()
        try:
            sys = build(np.full(8, 1.0), np.full(8, 0.4), 1.5)
            eig = sys.eigensystem()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # a mirror block's eigensystem views its partner's: count each array once
        arrays = {id(a): a for b in eig for a in map(_root, (b.vals, b.vecs))}
        eig_bytes = sum(a.nbytes for a in arrays.values())
        assert len(arrays) < 2 * len(eig)
        assert held < 1.25 * eig_bytes
        h = sys.hamiltonian
        for (idx, _), block in zip(sys.blocks, eig):
            assert np.allclose(h[np.ix_(idx, idx)] @ block.vecs, block.vecs * block.vals, atol=1e-12)


class TestEvolveReduced:
    def test_time_zero_identity(self):
        sys = build(np.full(3, 1.0), np.full(3, 0.4), 1.0)
        s0 = make_named_state("r_state", r=0.5)
        s = evolve_reduced(sys, s0, [0.0])[0]
        assert np.abs(s.pi - s0.pi).max() < 1e-12

    def test_decoupled_qubits_stay_pure(self):
        # K = 0 with exchange only: the pair evolves unitarily, D stays 0
        sys = build(np.zeros(3), np.zeros(3), 2.0)
        s0 = make_named_state("r_state", r=0.4)
        for s in evolve_reduced(sys, s0, [0.5, 1.5, 3.0]):
            assert abs(decoherence_measure(s)) < 1e-12

    def test_full_state_conservation_laws(self):
        # propagating the complete system conserves energy, purity, and F^z
        sys = build(np.full(3, 1.0), np.full(3, 0.4), 1.3)
        rho_ab = state_to_density(make_named_state("triplet0"))
        rho0 = np.kron(rho_ab, np.eye(8) / 8)
        fz = total_fz(3)
        h = sys.hamiltonian
        ref = (
            np.trace(rho0 @ h).real,
            np.trace(rho0 @ fz).real,
            np.trace(rho0 @ rho0).real,
        )
        for t in (0.7, 2.9):
            # the propagator assembled from the diagonalised F_z blocks
            u = np.zeros((sys.dim, sys.dim), dtype=complex)
            for (idx, _), block in zip(sys.blocks, sys.eigensystem()):
                u[np.ix_(idx, idx)] = (block.vecs * np.exp(-1j * block.vals * t)) @ block.vecs.T
            rho_t = u @ rho0 @ u.conj().T
            assert np.trace(rho_t @ h).real == pytest.approx(ref[0], abs=1e-12)
            assert np.trace(rho_t @ fz).real == pytest.approx(ref[1], abs=1e-12)
            assert np.trace(rho_t @ rho_t).real == pytest.approx(ref[2], abs=1e-12)

    def test_reduced_purity_bounded(self):
        sys = build(np.full(4, 1.0), np.full(4, 0.6), 0.5)
        s0 = make_named_state("bell_t1")
        for s in evolve_reduced(sys, s0, [0.3, 1.1, 2.2]):
            assert decoherence_measure(s) >= -1e-12

    def test_sector_projected_bath(self):
        proj = bath_spin_projector(2, 1.0)
        assert np.trace(proj).real == pytest.approx(3.0)
        sys = build(np.full(2, 1.0), np.full(2, 0.5), 0.7)
        s0 = make_named_state("singlet")
        s = evolve_in(sys, s0, ("sector", 0.0), [1.3])[0]
        # the I = 0 sector cannot mix singlet and triplet
        assert np.abs(s.pi + np.eye(3)).max() < 1e-12


class TestRotationCovariance:
    """The premise of the shared-bath channel, on the oracle alone: every
    Hamiltonian is a sum of S_i . S_j and the bath states commute with global
    rotations, so the reduced map commutes with R = r (x) r."""

    @pytest.fixture(scope="class", params=["common", "inhomogeneous"])
    def full(self, request):
        if request.param == "common":
            return build(np.full(8, 1.3), np.full(8, -0.45), 0.7)
        return build(*random_couplings(8, seed=3))

    @pytest.mark.parametrize("bath_state", ["fully_mixed", ("sector", 1.0), ("sector", 4.0)],
                             ids=["fully-mixed", "sector-1", "sector-4"])
    def test_reduced_map_commutes_with_rotations(self, full, bath_state):
        rng = np.random.default_rng(5)
        times = np.array([0.4, 1.7, 5.3])
        for _ in range(2):
            q = rng.normal(size=4)
            a, b, c, d = q / np.linalg.norm(q)
            r = np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])
            rot = np.kron(r, r)
            psi = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
            rho = np.einsum("ka,kb->ab", psi, psi.conj())
            rho /= np.trace(rho).real
            turned = evolve_in(full, density_to_state(rot @ rho @ rot.conj().T), bath_state, times)
            after = rot @ state_to_density(evolve_in(full, density_to_state(rho), bath_state, times))
            assert np.abs(state_to_density(turned) - after @ rot.conj().T).max() < 1e-12


class TestInhomogeneousRate:
    """The oracle at n = 10 with unequal per-site couplings against the
    short-time rate, with acceptance criterion 4's Gaussian fit and tolerance."""

    @pytest.fixture(scope="class")
    def system(self):
        n = 10
        couplings = random_couplings(n, seed=11)
        return build(*couplings), couplings

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -1.0, 0.5, 0.3 + 0.4j])
    def test_gaussian_fit_matches_rate(self, system, gamma):
        full, couplings = system
        moment = unpolarized_exact(full.n_bath).casimir_moment()
        rate = decoherence_rate_inhomogeneous(gamma, *couplings, moment)
        tau = 1.0 / math.sqrt(rate)
        ts = np.linspace(0.0, 0.1 * tau, 25)[1:]
        s0 = make_named_state("general_pure", gamma=gamma)
        d = decoherence_measure(evolve_reduced(full, s0, ts))
        x, y = ts**2, -np.log1p(-d)
        fit = 1.0 / math.sqrt(float(x @ y) / float(x @ x))
        assert abs(fit - tau) / tau <= 0.02

    def test_gaussian_dot_couplings_feed_build_and_overlap(self):
        # a 3 x 3 lattice: the arrays go to the oracle, the overlap and the rate as they are
        k_a, k_b = gaussian_dot_couplings(0.6, 0.5, half_extent=2.8, spacing=2.8)
        full = build(k_a, k_b)
        assert full.n_bath == 9
        assert [c for _, _, c in full.terms] == [*k_a, *k_b]
        delta = coupling_overlap(k_a, k_b)
        assert delta == pytest.approx(2 * float(k_a @ k_b) / float(k_a @ k_a + k_b @ k_b), rel=1e-15)
        moment = unpolarized_exact(9).casimir_moment()
        tau = 1.0 / math.sqrt(decoherence_rate_inhomogeneous(0.5, k_a, k_b, moment))
        ts = np.linspace(0.0, 0.1 * tau, 25)[1:]
        d = decoherence_measure(evolve_reduced(full, make_named_state("general_pure", gamma=0.5), ts))
        x, y = ts**2, -np.log1p(-d)
        assert abs(1.0 / math.sqrt(float(x @ y) / float(x @ x)) - tau) / tau <= 0.02


class TestBathSpinSpectrum:
    def test_one_spin(self):
        assert bath_spin_spectrum(1) == [(0.5, 2)]

    def test_two_spins(self):
        assert bath_spin_spectrum(2) == [(0.0, 1), (1.0, 3)]

    def test_three_spins(self):
        assert bath_spin_spectrum(3) == [(0.5, 4), (1.5, 4)]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_multiplicity_formula(self, n):
        table = dict(bath_spin_spectrum(n))
        for i, count in table.items():
            assert count == sector_dimension(n, i)
