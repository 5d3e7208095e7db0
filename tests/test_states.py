import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinbath import separate, states
from spinbath.bath import gaussian_approx
from spinbath.common import apply_channel
from spinbath.states import (
    InvalidStateError,
    TwoQubitState,
    concurrence,
    concurrence_state,
    decoherence_measure,
    density_to_state,
    general_pure_vector,
    make_named_state,
    parse_state_spec,
    purity,
    state_from_vector,
    state_to_density,
    validate_state,
)

ZERO3 = np.zeros(3)
ZERO33 = np.zeros((3, 3))


def same_bits(x, y) -> bool:
    """x and y agree in shape and in every bit, signed zeros included."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def same_states(a: TwoQubitState, b: TwoQubitState) -> bool:
    return all(same_bits(getattr(a, f), getattr(b, f)) for f in ("p_a", "p_b", "pi"))


def random_density(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_block_batch(seed: int, shape) -> np.ndarray:
    """Density matrices with no coherence between total-S^z sectors."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    middle = m @ m.conj().swapaxes(-1, -2)
    rho = np.zeros(shape + (4, 4), dtype=complex)
    rho[..., 1:3, 1:3] = middle
    rho[..., 0, 0], rho[..., 3, 3] = rng.uniform(0.0, 2.0, shape), rng.uniform(0.0, 2.0, shape)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def sz_block_reference(state):
    """Yu-Eberly's |rho_ud,du| branch alone, written out from the polarizations: on an
    S^z-block state rho_uu,dd = 0, so the other branch is never positive."""
    pi = state.pi
    term1 = np.hypot(pi[..., 0, 0] + pi[..., 1, 1], pi[..., 0, 1] - pi[..., 1, 0])
    z_sum = (1.0 + pi[..., 2, 2]) ** 2 - (state.p_a[..., 2] + state.p_b[..., 2]) ** 2
    term2 = np.sqrt(np.maximum(0.0, z_sum))
    c = np.maximum(0.0, 0.5 * (term1 - term2))
    return float(c) if np.ndim(c) == 0 else c


def with_sector_mixing(rho: np.ndarray, where, i: int, j: int, weight: float, phase: float = 0.3):
    """rho with sample ``where`` mixed with (|i> + e^{i phase} |j>)/sqrt(2) at ``weight``: still a
    density matrix, now with a coherence of size weight/2 between basis states i and j."""
    rho = rho.copy()
    psi = np.zeros(4, dtype=complex)
    psi[i], psi[j] = 1.0, np.exp(1j * phase)
    rho[where] = (1.0 - weight) * rho[where] + weight * np.outer(psi, psi.conj()) / 2.0
    return rho


def random_pure(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi / np.linalg.norm(psi)


class TestDensityConversion:
    def test_zero_polarizations_give_maximally_mixed(self):
        rho = state_to_density(TwoQubitState(ZERO3, ZERO3, ZERO33))
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-15)

    def test_singlet_projector_from_polarizations(self):
        s = TwoQubitState(ZERO3, ZERO3, -np.eye(3))
        ket = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.abs(state_to_density(s) - np.outer(ket, ket)).max() < 1e-14

    def test_up_down_projector_from_polarizations(self):
        pi = np.zeros((3, 3))
        pi[2, 2] = -1.0
        s = TwoQubitState(np.array([0, 0, 1.0]), np.array([0, 0, -1.0]), pi)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.abs(state_to_density(s) - expected).max() < 1e-14

    def test_identity_extracts_to_zero(self):
        s = density_to_state(np.eye(4) / 4)
        assert np.abs(s.p_a).max() == 0 and np.abs(s.pi).max() == 0

    def test_werner_polarizations(self):
        s = make_named_state("werner", p=0.6)
        assert np.allclose(s.p_a, 0, atol=1e-14)
        assert np.allclose(s.pi, -0.6 * np.eye(3), atol=1e-14)

    def test_up_down_extraction(self):
        rho = np.zeros((4, 4))
        rho[1, 1] = 1.0
        s = density_to_state(rho)
        assert s.p_a[2] == pytest.approx(1.0, abs=1e-14)
        assert s.p_b[2] == pytest.approx(-1.0, abs=1e-14)
        assert s.pi[2, 2] == pytest.approx(-1.0, abs=1e-14)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.1
        with pytest.raises(InvalidStateError, match="Hermitian"):
            density_to_state(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            density_to_state(np.eye(4) / 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, derandomize=True)
    def test_round_trip(self, seed):
        rho = random_density(seed)
        back = state_to_density(density_to_state(rho))
        assert np.abs(back - rho).max() < 1e-14

    def test_tables_match_pauli_products(self):
        # reference: the 15 stacked matrix products the element tables replace
        rho = np.array([random_density(seed) for seed in range(50)])
        s_a, s_b = states._S_A, states._S_B

        def tr(m):
            return np.trace(m, axis1=-2, axis2=-1).real

        p_a = np.stack([2.0 * tr(rho @ s_a[m]) for m in range(3)], axis=-1)
        pi = np.stack([4.0 * tr(rho @ s_a[m] @ s_b[n]) for m in range(3) for n in range(3)],
                      axis=-1).reshape(-1, 3, 3)
        p_b = np.stack([2.0 * tr(rho @ s_b[m]) for m in range(3)], axis=-1)
        got = density_to_state(rho)
        for x, want in ((got.p_a, p_a), (got.p_b, p_b), (got.pi, pi)):
            assert np.abs(x - want).max() < 1e-15
        want = np.eye(4) / 4 + sum(
            0.5 * got.p_a[:, m, None, None] * s_a[m] + 0.5 * got.p_b[:, m, None, None] * s_b[m]
            + sum(got.pi[:, m, n, None, None] * (s_a[m] @ s_b[n]) for n in range(3))
            for m in range(3))
        assert np.abs(state_to_density(got) - want).max() < 1e-15

    def test_nonphysical_input_reported_not_rejected(self):
        s = TwoQubitState(np.array([0, 0, 2.0]), ZERO3, ZERO33)
        report = validate_state(s)
        assert not report.physical
        assert report.min_eigenvalue < -1e-12
        # physical state passes
        assert validate_state(make_named_state("singlet")).physical


class TestBatchedState:
    def batch(self, n=7):
        return density_to_state(np.array([random_density(seed) for seed in range(n)]))

    def test_shapes_and_indexing(self):
        batch = self.batch()
        assert batch.p_a.shape == (7, 3) and batch.pi.shape == (7, 3, 3)
        assert len(batch) == 7
        assert np.array_equal(batch[2].pi, density_to_state(random_density(2)).pi)
        assert len(batch[1:4]) == 3
        assert [s.p_a.shape for s in batch] == [(3,)] * 7
        assert len(density_to_state(np.zeros((0, 4, 4)))) == 0

    def test_unbatched_has_no_len(self):
        s = make_named_state("singlet")
        with pytest.raises(TypeError):
            len(s)
        with pytest.raises(TypeError):
            s[0]

    def test_rejects_disagreeing_batch_axes(self):
        with pytest.raises(InvalidStateError, match="batch axes"):
            TwoQubitState(np.zeros((4, 3)), np.zeros((5, 3)), np.zeros((4, 3, 3)))
        with pytest.raises(InvalidStateError, match="expected shape"):
            TwoQubitState(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 3, 3)))

    def test_stack(self):
        singles = [density_to_state(random_density(seed)) for seed in range(3)]
        batch = TwoQubitState.stack(singles)
        assert batch.pi.shape == (3, 3, 3) and batch.p_b.shape == (3, 3)
        assert all(same_states(batch[k], s) for k, s in enumerate(singles))
        nested = TwoQubitState.stack([batch, batch])
        assert nested.pi.shape == (2, 3, 3, 3) and same_states(nested[1], batch)

    def test_read_only_float_arrays_are_shared(self):
        # a state takes a read-only float array as it is; anything else is copied
        pi = np.zeros((5, 3, 3))
        pi.setflags(write=False)
        p = np.zeros((5, 3))
        s = TwoQubitState(p, p, pi)
        assert s.pi is pi and s.p_a is not p
        assert p.flags.writeable and not s.p_a.flags.writeable
        assert s[1:3].pi.base is not None and np.shares_memory(s[1:3].pi, pi)
        assert TwoQubitState(p, p, pi.astype(np.float32)).pi.dtype == float

    def test_measures_match_per_sample(self):
        batch = self.batch()
        rho = state_to_density(batch)
        assert rho.shape == (7, 4, 4)
        for k, s in enumerate(batch):
            assert np.array_equal(rho[k], state_to_density(s))
            assert decoherence_measure(batch)[k] == decoherence_measure(s)
            assert purity(batch)[k] == purity(s)
            assert concurrence_state(batch)[k] == concurrence_state(s)
        assert isinstance(decoherence_measure(batch[0]), float)
        assert isinstance(concurrence_state(batch[0]), float)

    def test_concurrence_blocks(self, monkeypatch):
        rho = np.array([random_density(seed) for seed in range(10)])
        whole = concurrence(rho.reshape(2, 5, 4, 4))
        monkeypatch.setattr(states, "_CONCURRENCE_BLOCK", 3)
        assert np.array_equal(concurrence(rho), whole.ravel())

    def test_concurrence_state_blocks(self, monkeypatch):
        # X states and general ones interleaved, on a (2, 5) batch: any block size, the same bits
        named = [make_named_state("r_state", r=0.4), make_named_state("werner", p=0.7),
                 make_named_state("general_pure", gamma=0.5, theta=0.3, phi=1.0)]
        batch = TwoQubitState.stack(named + [density_to_state(random_density(s)) for s in range(7)])
        batch = TwoQubitState(batch.p_a.reshape(2, 5, 3), batch.p_b.reshape(2, 5, 3), batch.pi.reshape(2, 5, 3, 3))
        whole = concurrence_state(batch)
        monkeypatch.setattr(states, "_CONCURRENCE_BLOCK", 3)
        assert same_bits(concurrence_state(batch), whole)
        assert [concurrence_state(batch[k // 5, k % 5]) for k in range(10)] == whole.ravel().tolist()

    def test_concurrence_state_peaks_near_its_output(self):
        # the X-state closed form runs in blocks: no T-long temporaries beside the result
        bath = gaussian_approx(100, "narrow")
        system = separate.SeparateBathSystem(1.0, 0.8, bath, bath)
        trajectory = apply_channel(separate.decay_factors(system, np.linspace(0.0, 5.0, 200_000)),
                                   make_named_state("r_state", r=0.4))
        tracemalloc.start()
        try:
            out = concurrence_state(trajectory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * out.nbytes

    def test_density_to_state_checks_every_matrix(self):
        rho = np.array([np.eye(4) / 4] * 3, dtype=complex)
        rho[1, 0, 1] = 0.1
        with pytest.raises(InvalidStateError, match="Hermitian"):
            density_to_state(rho)
        rho[1, 0, 1] = 0.0
        rho[2] *= 2.0
        with pytest.raises(InvalidStateError, match="trace"):
            density_to_state(rho)


class TestDecoherenceMeasure:
    def test_pure_state_is_zero(self):
        assert decoherence_measure(make_named_state("singlet")) == pytest.approx(0, abs=1e-14)

    def test_maximally_mixed_is_three_quarters(self):
        s = TwoQubitState(ZERO3, ZERO3, ZERO33)
        assert decoherence_measure(s) == pytest.approx(0.75)

    def test_werner_half(self):
        # eigenvalues (1-p)/4 three-fold and (1+3p)/4: D = 1 - sum lam^2
        s = make_named_state("werner", p=0.5)
        assert decoherence_measure(s) == pytest.approx(9 / 16, abs=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, derandomize=True)
    def test_equals_one_minus_purity_of_matrix(self, seed):
        rho = random_density(seed)
        s = density_to_state(rho)
        d_direct = 1.0 - np.trace(rho @ rho).real
        assert decoherence_measure(s) == pytest.approx(d_direct, abs=1e-12)
        assert purity(s) == pytest.approx(1 - d_direct, abs=1e-12)


class TestConcurrence:
    def test_singlet_is_one(self):
        assert concurrence_state(make_named_state("singlet")) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        assert concurrence_state(make_named_state("up_down")) == pytest.approx(0.0, abs=1e-12)

    def test_werner_formula(self):
        # C = max((3p-1)/2, 0): entangled only above p = 1/3
        assert concurrence_state(make_named_state("werner", p=0.6)) == pytest.approx(0.4, abs=1e-12)
        assert concurrence_state(make_named_state("werner", p=0.2)) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, derandomize=True)
    def test_pure_state_relation(self, seed):
        # for pure states C^2 = 1 - P_A^2
        psi = random_pure(seed)
        s = state_from_vector(psi)
        c = concurrence(np.outer(psi, psi.conj()))
        assert c**2 == pytest.approx(1 - float(s.p_a @ s.p_a), abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, derandomize=True)
    def test_pure_state_invariants(self, seed):
        s = state_from_vector(random_pure(seed))
        assert s.polarization_norm_sq() == pytest.approx(3.0, abs=1e-12)
        assert np.linalg.norm(s.p_a) == pytest.approx(np.linalg.norm(s.p_b), abs=1e-12)


class TestSzBlockConcurrence:
    """concurrence_state on states that commute with the total S^z."""

    def test_triplet_bell(self):
        assert concurrence_state(make_named_state("triplet0")) == pytest.approx(1.0, abs=1e-12)

    def test_up_down(self):
        assert concurrence_state(make_named_state("up_down")) == 0.0

    def test_updown_mix_half(self):
        # |ud + 0.5 du> has concurrence 2 * 1 * 0.5 / (1 + 0.25) = 0.8
        s = make_named_state("updown_mix", r=0.5)
        assert s.pi[0, 0] == pytest.approx(0.8, abs=1e-14)
        assert s.p_a[2] == pytest.approx(0.6, abs=1e-14)
        assert concurrence_state(s) == pytest.approx(0.8, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, derandomize=True)
    def test_matches_wootters_on_block_states(self, seed):
        rng = np.random.default_rng(seed)
        # random mixture of S^z-commuting pure pieces
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = np.array([0, amps[0], amps[1], 0])
        psi /= np.linalg.norm(psi)
        probs = rng.dirichlet(np.ones(3))
        rho = (
            probs[0] * np.outer(psi, psi.conj())
            + probs[1] * np.diag([1.0, 0, 0, 0])
            + probs[2] * np.diag([0, 0, 0, 1.0])
        )
        s = density_to_state(rho)
        assert concurrence_state(s) == pytest.approx(concurrence(rho), abs=1e-10)


class TestSzBlockBatches:
    """concurrence_state on batches that commute with the total S^z, and on such batches
    with one sample that mixes sectors. A block state is an X state, so the closed form
    decides it; a mixing element off the X pattern sends its sample, and only that one,
    to Wootters' formula."""

    PAIRS = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]

    @staticmethod
    def expected_alone(state, i, j):
        # (0, 3) couples m = +1 to m = -1 and keeps the X pattern; every other pair breaks it
        if (i, j) == (0, 3):
            return states._x_concurrence(state)
        return concurrence(state_to_density(state))

    @pytest.mark.parametrize("shape", [(), (1,), (300,), (7, 11)])
    def test_block_batches_match(self, shape):
        for seed in range(5):
            rho = random_block_batch(seed, shape)
            state = density_to_state(rho)
            got, ref = concurrence_state(state), sz_block_reference(state)
            assert type(got) is type(ref)
            assert same_bits(got, ref)
            assert np.allclose(got, concurrence(rho), rtol=0.0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(), (1,), (9,), (3, 4)]))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_block_batches_match_reference(self, seed, shape):
        state = density_to_state(random_block_batch(seed, shape))
        got, ref = concurrence_state(state), sz_block_reference(state)
        assert type(got) is type(ref)
        assert same_bits(got, ref)

    def test_block_batch_builds_no_density(self, monkeypatch):
        s = density_to_state(random_block_batch(11, (40,)))
        calls = []
        monkeypatch.setattr(states, "state_to_density", lambda s: calls.append(s))
        assert np.array_equal(concurrence_state(s), states._x_concurrence(s))
        assert calls == []

    @pytest.mark.parametrize("i, j", PAIRS)
    @pytest.mark.parametrize("shape, where", [((), ()), ((4,), (2,)), ((3, 5), (1, 4))])
    def test_mixing_sample_takes_its_own_path(self, i, j, shape, where):
        block = random_block_batch(7, shape)
        rho = with_sector_mixing(block, where, i, j, 0.2)
        state = density_to_state(rho)
        got = np.asarray(concurrence_state(state))
        alone = state[where] if shape else state
        assert got[where] == self.expected_alone(alone, i, j)
        assert got[where] == pytest.approx(concurrence(rho[where]), abs=1e-12)
        # the block samples around it keep the closed form, bit for bit
        others = np.ones(shape, dtype=bool)
        others[where] = False
        assert same_bits(got[others], np.asarray(sz_block_reference(state))[others])

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(), (5,), (2, 3)]), st.integers(0, 4),
           st.floats(0.0, 2.0 * np.pi), st.sampled_from([2e-11, 2e-9]))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_small_mixing_element(self, seed, shape, pair, phase, weight):
        rng = np.random.default_rng(seed)
        i, j = self.PAIRS[pair]
        where = tuple(int(rng.integers(n)) for n in shape)
        rho = with_sector_mixing(random_block_batch(seed, shape), where, i, j, weight, phase)
        state = density_to_state(rho)
        got = np.asarray(concurrence_state(state))
        alone = state[where] if shape else state
        assert got[where] == concurrence_state(alone) == self.expected_alone(alone, i, j)
        assert got[where] == pytest.approx(concurrence(rho[where]), abs=1e-12)

    def test_one_ulp_off_x_takes_the_general_path(self, monkeypatch):
        # each of the eight off-X polarizations, moved by one ulp alone, sends its sample
        # through state_to_density; the other samples stay on the closed form
        base = density_to_state(random_block_batch(2, (4,)))
        built = []
        to_density = states.state_to_density
        monkeypatch.setattr(states, "state_to_density", lambda s: built.append(s.pi.shape) or to_density(s))
        edits = [("p_a", (0,)), ("p_a", (1,)), ("p_b", (0,)), ("p_b", (1,)), ("pi", (0, 2)),
                 ("pi", (1, 2)), ("pi", (2, 0)), ("pi", (2, 1))]
        for field, index in edits:
            arrays = {f: getattr(base, f).copy() for f in ("p_a", "p_b", "pi")}
            arrays[field][(2,) + index] = np.nextafter(arrays[field][(2,) + index], np.inf)
            state = TwoQubitState(**arrays)
            del built[:]
            got = concurrence_state(state)
            assert built == [(1, 3, 3)]
            assert got[2] == concurrence(to_density(state[2]))
            assert same_bits(got[[0, 1, 3]], sz_block_reference(state[[0, 1, 3]]))

    def test_one_ulp_in_the_uu_dd_coherence_stays_x(self, monkeypatch):
        # pi_xx, pi_xy, pi_yx and pi_yy carry rho_ud,du and rho_uu,dd, both X elements: a
        # sample moved in any of them still takes the closed form, and no density is built
        base = density_to_state(random_block_batch(2, (4,)))
        monkeypatch.setattr(states, "state_to_density", lambda s: pytest.fail("density built"))
        for index in ((0, 0), (0, 1), (1, 0), (1, 1)):
            pi = base.pi.copy()
            pi[(2,) + index] = np.nextafter(pi[(2,) + index], np.inf)
            state = TwoQubitState(base.p_a, base.p_b, pi)
            assert same_bits(concurrence_state(state), states._x_concurrence(state))

    def test_sector_mixing_pure_states(self):
        # |u>(|u> + |d>) mixes m = +1 and m = 0 and is a product; |uu> + |dd> mixes m = +1
        # and m = -1 and is maximally entangled
        assert concurrence_state(state_from_vector(np.array([1.0, 1.0, 0.0, 0.0]))) == pytest.approx(0.0, abs=1e-12)
        assert concurrence_state(state_from_vector(np.array([1.0, 0.0, 0.0, 1.0]))) == pytest.approx(1.0, abs=1e-12)


class TestFreshArraysShared:
    def test_stack_result_is_taken_without_a_copy(self, monkeypatch):
        made = []
        stack = np.stack
        monkeypatch.setattr(np, "stack", lambda *a, **k: made.append(stack(*a, **k)) or made[-1])
        batch = TwoQubitState.stack([make_named_state("singlet"), make_named_state("up_down")])
        assert len(made) == 3 and all(x is y for x, y in zip((batch.p_a, batch.p_b, batch.pi), made))
        assert not batch.pi.flags.writeable


class TestBatchedValidation:
    """validate_state on a batched oracle trajectory."""

    @staticmethod
    def trajectory(name):
        from spinbath.oracle import build, evolve_reduced

        full = build(np.full(4, 1.0), np.full(4, 0.4), 1.5)
        s0 = make_named_state(name, r=0.3)
        return evolve_reduced(full, s0, np.linspace(0.0, 6.0, 25))

    @pytest.mark.parametrize("name", ["singlet", "r_state"])
    def test_concurrence_on_the_trajectory(self, name):
        traj = self.trajectory(name)
        c = concurrence_state(traj)
        assert c.shape == (25,)
        assert np.abs(c - concurrence(state_to_density(traj))).max() < 1e-12
        assert isinstance(concurrence_state(traj[3]), float)

    def test_mixing_sample_among_mixed_states(self):
        # three fully mixed samples and one |u>(|u> + |d>)/sqrt(2): only the last is off X
        rho = np.array([np.eye(4) / 4] * 3 + [np.outer([1, 1, 0, 0], [1, 1, 0, 0]) / 2])
        state = density_to_state(rho)
        c = concurrence_state(state)
        assert np.array_equal(c[:3], np.zeros(3))
        assert c[3] == concurrence(state_to_density(state[3])) == pytest.approx(0.0, abs=1e-12)

    def test_worst_sample_reported(self):
        traj = self.trajectory("r_state")
        report = validate_state(traj, tol=1e-10)
        assert report.physical
        assert report.min_eigenvalue >= -1e-10
        # one unphysical sample among physical ones fails the whole batch
        p_a = np.zeros((5, 3))
        p_a[2, 2] = 2.0
        bad = TwoQubitState(p_a, np.zeros((5, 3)), np.zeros((5, 3, 3)))
        report = validate_state(bad)
        assert not report.physical
        assert report.min_eigenvalue == pytest.approx(validate_state(bad[2]).min_eigenvalue)
        assert validate_state(bad[0]).physical


class TestNamedStates:
    def test_r_state_limits(self):
        singlet = make_named_state("singlet")
        assert np.allclose(make_named_state("r_state", r=1.0).pi, singlet.pi, atol=1e-14)
        assert np.allclose(make_named_state("r_state", r=0.0).pi, make_named_state("up_down").pi, atol=1e-14)
        assert np.allclose(make_named_state("r_state", r=-1.0).pi, make_named_state("triplet0").pi, atol=1e-14)

    def test_updown_mix_sign_convention(self):
        # the two families differ by the sign of the parameter
        a = make_named_state("updown_mix", r=-0.3)
        b = make_named_state("r_state", r=0.3)
        assert np.allclose(a.pi, b.pi, atol=1e-14)
        assert np.allclose(a.p_a, b.p_a, atol=1e-14)

    def test_general_pure_reduces_to_up_down(self):
        s = make_named_state("general_pure", gamma=0.0, theta=0.0)
        assert np.allclose(s.p_a, [0, 0, 1], atol=1e-14)
        assert np.allclose(s.p_b, [0, 0, -1], atol=1e-14)

    def test_general_pure_axis_orthonormal(self):
        psi = general_pure_vector(0.7 + 0.2j, theta=1.1, phi=2.3)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)

    def test_werner_extremes(self):
        assert np.allclose(make_named_state("werner", p=1.0).pi, -np.eye(3), atol=1e-14)
        with pytest.raises(InvalidStateError):
            make_named_state("werner", p=1.5)

    def test_bell_states_maximally_entangled(self):
        for name in ("singlet", "triplet0", "bell_t1", "bell_t2"):
            s = make_named_state(name)
            assert np.linalg.norm(s.p_a) < 1e-14
            assert concurrence_state(s) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(InvalidStateError, match="unknown"):
            make_named_state("ghz")

    @pytest.mark.parametrize("name, params, ket", [
        ("singlet", {}, states.KET_SINGLET),
        ("triplet0", {}, states.KET_TRIPLET0),
        ("bell_t1", {}, states.KET_T1),
        ("bell_t2", {}, states.KET_T2),
        ("up_down", {}, [0, 1, 0, 0]),
        ("r_state", {"r": 0.5}, [0, 1, -0.5, 0]),
        ("r_state", {"r": 0.37}, [0, 1, -0.37, 0]),
        ("updown_mix", {"r": 0.2}, [0, 1, 0.2, 0]),
        ("updown_mix", {"r": -0.7}, [0, 1, -0.7, 0]),
        ("general_pure", {"gamma": 0.5}, [0, 1, -0.5, 0]),
        ("general_pure", {"gamma": 0.3 + 0.4j}, [0, 1, -0.3 - 0.4j, 0]),
        ("werner", {"p": 0.3}, None),
        ("werner", {"p": 1.0}, None),
    ])
    def test_density_has_the_zeros_of_its_ket(self, name, params, ket):
        # terms that cancel exactly give 0.0: no residue where the ket or mixture has a zero,
        # and so no negative population
        if ket is None:
            p = params["p"]
            expected = p * np.outer(states.KET_SINGLET, states.KET_SINGLET) + (1 - p) * np.eye(4) / 4
        else:
            expected = np.outer(ket, np.conj(ket))
        rho = state_to_density(make_named_state(name, **params))
        np.testing.assert_array_equal(rho == 0, expected == 0)
        assert np.all(np.diag(rho).real >= 0.0)
        assert np.allclose(rho, expected / np.trace(expected), atol=1e-15)


# every named state's spec and the library call it stands for, complex gamma included
SPECS = [
    ("singlet", "singlet", {}), ("triplet0", "triplet0", {}), ("bell_t1", "bell_t1", {}),
    ("bell_t2", "bell_t2", {}), ("up_down", "up_down", {}),
    ("r_state:0.5", "r_state", {"r": 0.5}), ("r_state:-0.37", "r_state", {"r": -0.37}),
    ("updown_mix:0.2", "updown_mix", {"r": 0.2}), ("werner:0.6", "werner", {"p": 0.6}),
    ("general_pure:0.5", "general_pure", {"gamma": 0.5}),
    ("general_pure:-0.0", "general_pure", {"gamma": -0.0}),
    ("general_pure:0.5,0.3,1.0", "general_pure", {"gamma": 0.5, "theta": 0.3, "phi": 1.0}),
    ("general_pure:0.3+0.4j,1.1,2.3", "general_pure", {"gamma": 0.3 + 0.4j, "theta": 1.1, "phi": 2.3}),
    ("general_pure:-2j,0.7", "general_pure", {"gamma": -2j, "theta": 0.7}),
]


def test_specs_cover_every_named_state():
    assert {name for _, name, _ in SPECS} == set(states._NAMED_STATES)


@pytest.mark.parametrize("spec, name, params", SPECS, ids=[spec for spec, _, _ in SPECS])
def test_spec_and_library_call_build_the_same_state(spec, name, params):
    assert same_states(parse_state_spec(spec), make_named_state(name, **params))


@pytest.mark.parametrize("name, params, match", [
    ("r_state", {}, "takes r_state:r"),
    ("general_pure", {"theta": 0.3}, r"takes general_pure:gamma\[,theta\[,phi\]\]"),
    ("general_pure", {"gamma": complex(np.nan, 1.0)}, "needs finite parameters"),
    ("updown_mix", {"r": np.inf}, "needs finite parameters"),
])
def test_library_call_checks_its_parameters(name, params, match):
    with pytest.raises(InvalidStateError, match=match):
        make_named_state(name, **params)


# ---------------------------------------------------------------------------
# the X-state closed form of concurrence_state
# ---------------------------------------------------------------------------

def off_x(state) -> np.ndarray:
    """The eight polarizations that vanish on X states, (..., 8):
    p_a^x, p_a^y, p_b^x, p_b^y, pi_xz, pi_yz, pi_zx, pi_zy."""
    pi = state.pi
    return np.stack([state.p_a[..., 0], state.p_a[..., 1], state.p_b[..., 0], state.p_b[..., 1],
                     pi[..., 0, 2], pi[..., 1, 2], pi[..., 2, 0], pi[..., 2, 1]], axis=-1)


def x_piece(rng) -> np.ndarray:
    """A normalized ket in span{uu, dd} or span{ud, du}, with generic amplitudes."""
    v = np.zeros(4, dtype=complex)
    v[[0, 3] if rng.random() < 0.5 else [1, 2]] = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def x_ensemble(kind: str, seed: int) -> np.ndarray:
    """Sub-normalized kets v_i (columns) of an X state rho = sum_i |v_i><v_i|."""
    rng = np.random.default_rng(seed)
    basis = np.eye(4)
    if kind == "werner":
        p = rng.uniform(0.0, 1.0)
        return np.column_stack([np.sqrt(p) * states.KET_SINGLET] + [np.sqrt((1 - p) / 4) * e for e in basis])
    if kind == "boundary":
        # a|uu> + b|dd> plus |a b| |ud><ud| + |a b| |du><du|: C = 2 max(0, |ab| - |ab|) = 0
        v = x_piece(rng)
        other = [1, 2] if v[0] != 0 else [0, 3]
        w = abs(np.prod(v[v != 0]))
        pieces = [v, np.sqrt(w) * basis[other[0]], np.sqrt(w) * basis[other[1]]]
        return np.column_stack(pieces) / np.sqrt(1 + 2 * w)
    pieces = {"pure": 1, "rank2": 2, "rank3": 3, "full": 5}[kind]
    weights = rng.dirichlet(np.ones(pieces))
    v = np.column_stack([np.sqrt(w) * x_piece(rng) for w in weights])
    if kind == "full":
        eps = rng.uniform(0.05, 1.0)
        v = np.column_stack([np.sqrt(1 - eps) * v] + [np.sqrt(eps / 4) * e for e in basis])
    return v


def ensemble_concurrence(v: np.ndarray) -> float:
    """Wootters' concurrence from an ensemble rho = V V^dagger: the singular values of
    the symmetric r x r matrix V^T (sy x sy) V are the sqrt(mu_i), to full accuracy at any rank."""
    root = np.linalg.svd(v.T @ states._YY @ v, compute_uv=False)
    root = np.concatenate([root, np.zeros(4)])
    return max(0.0, root[0] - root[1] - root[2] - root[3])


class TestXStateConcurrence:
    @given(st.sampled_from(["pure", "rank2", "rank3", "full", "werner", "boundary"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, derandomize=True)
    def test_closed_form_matches_wootters(self, kind, seed):
        v = x_ensemble(kind, seed)
        rho = v @ v.conj().T
        s = density_to_state(rho)
        assert np.array_equal(off_x(s), np.zeros(8))
        c = concurrence_state(s)
        assert c == states._x_concurrence(s)
        assert c == pytest.approx(concurrence(rho), abs=1e-12)
        assert c == pytest.approx(ensemble_concurrence(v), abs=1e-12)
        if kind == "boundary":
            assert c < 1e-12

    def test_named_x_states(self):
        for name, params, c in [("singlet", {}, 1.0), ("bell_t1", {}, 1.0), ("bell_t2", {}, 1.0),
                                ("up_down", {}, 0.0), ("updown_mix", {"r": 0.5}, 0.8),
                                ("werner", {"p": 0.6}, 0.4), ("werner", {"p": 1 / 3}, 0.0)]:
            s = make_named_state(name, **params)
            assert np.array_equal(off_x(s), np.zeros(8))
            assert concurrence_state(s) == pytest.approx(c, abs=1e-15)

    def test_vanishing_diagonal_is_square_root_sensitive(self):
        # 0.1 |ud><ud| + 0.9 |phi><phi| with phi = sqrt(0.1)|uu> + i sqrt(0.9)|dd> has rho_du = 0,
        # and C = 2 (|rho_uu,dd| - sqrt(rho_ud rho_du)) moves by ~sqrt(rho_ud delta) when rho_du
        # moves by delta. The polarizations hold rho_du only to ~1e-17, so on them the closed form
        # and Wootters on state_to_density both give C only to ~5e-9 here
        v = np.column_stack([np.sqrt(0.1) * np.array([0, 1, 0, 0]),
                             np.sqrt(0.9) * np.array([np.sqrt(0.1), 0, 0, np.sqrt(0.9) * 1j])])
        s = density_to_state(v @ v.conj().T)
        exact = 2 * 0.9 * np.sqrt(0.09)
        assert ensemble_concurrence(v) == pytest.approx(exact, abs=1e-15)
        assert concurrence_state(s) == pytest.approx(exact, abs=1e-7)
        assert concurrence_state(s) == pytest.approx(concurrence(state_to_density(s)), abs=1e-7)

    @pytest.mark.parametrize("shape", [(12,), (3, 4)])
    def test_mixed_batch(self, shape, monkeypatch):
        # X samples interleaved with general ones, one of which breaks the X pattern
        # in a single component by a subnormal amount
        kinds = ["pure", "rank2", "full", "werner", "boundary", "rank3"]
        vs = [x_ensemble(kind, seed) for seed, kind in enumerate(kinds)]
        xs = [density_to_state(v @ v.conj().T) for v in vs]
        general = [density_to_state(random_density(seed)) for seed in range(5)]
        tiny = xs[2].pi.copy()
        tiny[2, 0] = 5e-324
        general.append(TwoQubitState(xs[2].p_a, xs[2].p_b, tiny))
        samples = [s for pair in zip(xs, general) for s in pair]
        batch = TwoQubitState(*(np.array([getattr(s, f) for s in samples]).reshape(shape + a.shape)
                                for f, a in (("p_a", ZERO3), ("p_b", ZERO3), ("pi", ZERO33))))
        got = concurrence_state(batch)
        assert got.shape == shape
        flat = got.ravel()
        for k, s in enumerate(samples):
            assert flat[k] == concurrence_state(s)
            if k % 2:
                assert flat[k] == concurrence(state_to_density(s))
            else:
                assert flat[k] == states._x_concurrence(s)
        # a batch of X states alone never builds a density matrix
        calls = []
        monkeypatch.setattr(states, "state_to_density", lambda s: calls.append(s))
        monkeypatch.setattr(states, "concurrence", lambda rho: calls.append(rho))
        x_batch = batch[::2] if len(shape) == 1 else batch[:, ::2]
        assert np.array_equal(concurrence_state(x_batch), got[..., ::2])
        assert calls == []


class TestXStatePremise:
    """The evolvers keep every named state except a tilted general_pure an X state, exactly."""

    NAMED = [("singlet", {}), ("triplet0", {}), ("bell_t1", {}), ("bell_t2", {}), ("up_down", {}),
             ("r_state", {"r": 0.3}), ("updown_mix", {"r": -0.7}), ("werner", {"p": 0.6}),
             ("general_pure", {"gamma": 0.5 - 0.4j, "phi": 1.0})]

    @staticmethod
    def trajectories(state):
        from spinbath.bath import gaussian_approx, unpolarized_exact
        from spinbath.common import CommonBathSystem, channel_functions
        from spinbath.separate import SeparateBathSystem

        times = np.linspace(0.0, 8.0, 97)
        bath = gaussian_approx(60, "narrow")
        yield apply_channel(channel_functions(CommonBathSystem(1.0, 1.0, 3.0, bath), times), state)
        for k_b, j in ((0.7, 5.0), (1.0, 2.0)):
            f = channel_functions(CommonBathSystem(1.2, k_b, j, unpolarized_exact(9)), times)
            yield apply_channel(f, state)
        private = SeparateBathSystem(1.0, 0.6, bath, unpolarized_exact(7))
        yield apply_channel(separate.decay_factors(private, times), state)

    @pytest.mark.parametrize("name, params", NAMED)
    def test_named_states_stay_x(self, name, params):
        s0 = make_named_state(name, **params)
        assert np.array_equal(off_x(s0), np.zeros(8))
        for traj in self.trajectories(s0):
            assert np.array_equal(off_x(traj), np.zeros((97, 8)))

    @pytest.mark.parametrize("name, params", [n for n in NAMED if n[0] not in ("bell_t1", "bell_t2")])
    def test_sz_block_states_stay_sz_block(self, name, params):
        # the elements between total-S^z sectors are sums of ten polarization combinations:
        # the eight off-X ones, pi_xx - pi_yy and pi_xy + pi_yx. All stay exactly zero
        for traj in self.trajectories(make_named_state(name, **params)):
            pi = traj.pi
            mixing = np.concatenate([off_x(traj), (pi[:, 0, 0] - pi[:, 1, 1])[:, None],
                                     (pi[:, 0, 1] + pi[:, 1, 0])[:, None]], axis=1)
            assert np.array_equal(mixing, np.zeros((97, 10)))

    def test_tilted_general_pure_is_not_x(self):
        s0 = make_named_state("general_pure", gamma=0.5, theta=0.3, phi=1.0)
        assert np.count_nonzero(off_x(s0)) > 0
        for traj in self.trajectories(s0):
            assert np.count_nonzero(off_x(traj)) > 0
