"""Two-qubit states as spin polarizations, with mixedness and entanglement measures.

A two-qubit density matrix is parametrized by the Bloch vectors of the two
qubits (vector polarizations ``p_a``, ``p_b``) and the 3x3 correlation matrix
of spin components (tensor polarization ``pi``):

    rho = 1/4 + (1/2) p_a . S_A + (1/2) p_b . S_B + sum_mn pi[m,n] S_A^m S_B^n

with S = sigma/2. The inverse map is p = 2 Tr[rho S] and
pi[m,n] = 4 Tr[rho S_A^m S_B^n].

A ``TwoQubitState`` holds one state or a batch of them: leading axes of
``p_a``, ``p_b`` and ``pi`` index samples, and the conversions and measures
below broadcast over those axes. An evolver takes a batch of initial states
(``TwoQubitState.stack``) as readily as one, and returns the state axes
followed by the time axes: k initial states on T times give shape (k, T, ...).

Concurrence: :func:`concurrence` runs Wootters' eigh/svd evaluation on any
density matrices. :func:`concurrence_state` takes the X-state closed form for
samples whose eight off-X polarizations are exactly zero (every named state but
a tilted ``general_pure``, under every evolver) and ``concurrence`` for the rest.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# spin-1/2 operators S = sigma / 2 (hbar = 1); S_A = S (x) 1 and S_B = 1 (x) S on |q_A q_B>
SPIN_HALF = (np.array([[0, 0.5], [0.5, 0]], complex), PAULI_Y / 2.0, np.diag([0.5 + 0j, -0.5]))
_S_A, _S_B = [np.kron(s, np.eye(2)) for s in SPIN_HALF], [np.kron(np.eye(2), s) for s in SPIN_HALF]
_S_AB = [[_S_A[m] @ _S_B[n] for n in range(3)] for m in range(3)]
_YY = np.kron(PAULI_Y, PAULI_Y)

# O_k per m: S_A^m, S_B^m, S_A^m S_B^n; x_k = (p_a^m, p_b^m, pi[m, n]) = 4 w_k Tr(rho O_k),
# rho = 1/4 + sum_k w_k x_k O_k. O_k touches the four flat elements _TOUCH[k]
_OPS = np.array([o for m in range(3) for o in (_S_A[m], _S_B[m], *_S_AB[m])]).reshape(15, 16)
_TOUCH = np.array([np.flatnonzero(o) for o in _OPS])
_WEIGHT = np.tile([0.5, 0.5, 1.0, 1.0, 1.0], 3)
_TO_X = np.take_along_axis(_OPS, _TOUCH, axis=1).conj() * (4.0 * _WEIGHT[:, None])
# the (k, w_k O_k[e]) that reach element e, in order of k: the tensor terms, then the vector terms
_BY_ELEMENT = [[[(k, _WEIGHT[k] * _OPS[k, e]) for k in np.flatnonzero(_OPS[:, e])
                 if (k % 5 > 1) == tensor] for tensor in (True, False)] for e in range(16)]

# matrices per stacked eigh/svd pass of :func:`concurrence`
_CONCURRENCE_BLOCK = 4096

# computational-basis kets, ordering {uu, ud, du, dd}
KET_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
KET_TRIPLET0 = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
KET_T1 = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_T2 = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)


class InvalidStateError(ValueError):
    """Raised when an input violates a documented precondition."""


@dataclass(frozen=True)
class TwoQubitState:
    """Polarization representation of a two-qubit density matrix.

    ``p_a`` and ``p_b`` have shape (..., 3) and ``pi`` shape (..., 3, 3); the
    leading axes, which must agree, index a batch of samples and
    ``states[k]`` is sample k. An unbatched state has no leading axes. The arrays
    are read-only; a read-only float array is taken without a copy, so ``states[k]`` is a view.
    """

    p_a: np.ndarray
    p_b: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_a", _frozen(self.p_a, (3,)))
        object.__setattr__(self, "p_b", _frozen(self.p_b, (3,)))
        object.__setattr__(self, "pi", _frozen(self.pi, (3, 3)))
        if not self.p_a.shape[:-1] == self.p_b.shape[:-1] == self.pi.shape[:-2]:
            raise InvalidStateError(
                f"batch axes disagree: p_a {self.p_a.shape}, p_b {self.p_b.shape}, "
                f"pi {self.pi.shape}"
            )

    def __len__(self) -> int:
        if self.pi.ndim == 2:
            raise TypeError("len() of an unbatched TwoQubitState")
        return self.pi.shape[0]

    def __getitem__(self, k) -> "TwoQubitState":
        if self.pi.ndim == 2:
            raise TypeError("an unbatched TwoQubitState cannot be indexed")
        return TwoQubitState(self.p_a[k], self.p_b[k], self.pi[k])

    @classmethod
    def stack(cls, states) -> "TwoQubitState":
        """One batch of ``states``, whose new leading axis indexes them."""
        fields = [np.stack(x) for x in zip(*((s.p_a, s.p_b, s.pi) for s in states))]
        for x in fields:
            x.setflags(write=False)  # fresh arrays: the state takes them without a copy
        return cls(*fields)

    def polarization_norm_sq(self):
        """P_A^2 + P_B^2 + sum (pi^mn)^2; equals 3 for pure states."""
        return _out(_norm_sq(self.p_a) + _norm_sq(self.p_b) + np.sum(self.pi**2, axis=(-2, -1)))


@dataclass(frozen=True)
class StateValidation:
    """Physicality report for a polarization triple."""

    min_eigenvalue: float
    physical: bool


def _frozen(arr, shape) -> np.ndarray:
    """``arr`` as a read-only float array: itself if it is one already, else a copy."""
    shared = type(arr) is np.ndarray and arr.dtype == float and not arr.flags.writeable
    out = arr if shared else np.array(arr, dtype=float)
    if out.shape[out.ndim - len(shape):] != shape:
        raise InvalidStateError(f"expected shape {shape} after the batch axes, got {out.shape}")
    out.setflags(write=False)
    return out


def _norm_sq(v: np.ndarray) -> np.ndarray:
    # a stacked (1x3)(3x1) product rounds like the 1-D v @ v
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _out(x):
    """A 0-d result as a float, a batch as an array."""
    return float(x) if np.ndim(x) == 0 else x


def state_to_density(state: TwoQubitState) -> np.ndarray:
    """Reconstruct the 4x4 density matrix from polarizations, (..., 4, 4).

    Hermitian with unit trace by construction for any real polarization
    triple; positivity is a property of the input and can be checked with
    :func:`validate_state`.
    """
    x = (state.p_a, state.p_b) + tuple(np.moveaxis(state.pi, -1, 0))  # x[k % 5][..., k // 5]
    out = np.empty(state.pi.shape[:-2] + (16,), dtype=complex)
    for e, (tensor, vector) in enumerate(_BY_ELEMENT):
        # 1/4 with the tensor part, then the two vector parts together: parts that cancel give 0.0
        out[..., e] = (sum((x[k % 5][..., k // 5] * c for k, c in tensor), 0.25 * (e % 5 == 0))
                       + sum(x[k % 5][..., k // 5] * c for k, c in vector))
    return out.reshape(state.pi.shape[:-2] + (4, 4))


def density_to_state(rho: np.ndarray, atol: float = 1e-10) -> TwoQubitState:
    """Extract polarizations from density matrices of shape (..., 4, 4).

    Inverse of :func:`state_to_density`. Raises InvalidStateError if any matrix
    of the batch is not Hermitian with unit trace within ``atol``. The result is
    the polarizations of rho / Tr rho, so a ket's zeros give polarizations whose
    terms cancel exactly in :func:`state_to_density`.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected 4x4 matrices, got shape {rho.shape}")
    herm = float(np.abs(rho - rho.conj().swapaxes(-1, -2)).max(initial=0.0))
    if herm > atol:
        raise InvalidStateError(f"matrix not Hermitian (deviation {herm:.2e})")
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    tr_err = float(np.abs(trace - 1.0).max(initial=0.0))
    if tr_err > atol:
        raise InvalidStateError(f"trace differs from 1 by {tr_err:.2e}")
    # Tr(rho O_k) / Tr(rho) over the four elements O_k touches, summed pairwise like np.trace
    t = (rho.reshape(rho.shape[:-2] + (16,))[..., _TOUCH] * _TO_X).real
    x = ((t[..., 0] + t[..., 1]) + (t[..., 2] + t[..., 3])) / trace[..., None]
    x = x.reshape(rho.shape[:-2] + (3, 5))
    return TwoQubitState(x[..., 0], x[..., 1], x[..., 2:])


def validate_state(state: TwoQubitState, tol: float = 1e-12) -> StateValidation:
    """Check that the reconstructed matrices are positive semidefinite; they are
    Hermitian with unit trace by construction.

    A batch reports its worst sample, the smallest eigenvalue, and is physical
    only if every sample is. Non-physical inputs are reported, not repaired.
    """
    min_eig = float(np.linalg.eigvalsh(state_to_density(state)).min(initial=np.inf))
    return StateValidation(min_eigenvalue=min_eig, physical=min_eig >= -tol)


def purity(state: TwoQubitState):
    return 1.0 - decoherence_measure(state)


def decoherence_measure(state: TwoQubitState):
    """Mixedness D = 1 - Tr rho^2 = (1/4)[3 - P_A^2 - P_B^2 - sum pi^2].

    Zero for pure states, 3/4 for the maximally mixed state.
    """
    return 0.25 * (3.0 - state.polarization_norm_sq())


def concurrence(rho: np.ndarray):
    """Wootters concurrence of two-qubit density matrices, shape (..., 4, 4).

    C = max(0, sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4)) with mu_i the
    descending eigenvalues of rho (sy x sy) rho* (sy x sy). Evaluated through
    the similar Hermitian matrix sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho),
    which keeps full accuracy where the product is defective (pure states).
    A batch is decomposed in blocks of ``_CONCURRENCE_BLOCK`` matrices, which
    bounds the workspace of the stacked eigh and svd. The general path:
    :func:`concurrence_state` calls it only for samples that are not X states.
    """
    rho = np.asarray(rho, dtype=complex)
    flat = rho.reshape(-1, 4, 4)
    out = np.empty(flat.shape[0])
    for lo in range(0, flat.shape[0], _CONCURRENCE_BLOCK):
        block = flat[lo : lo + _CONCURRENCE_BLOCK]
        vals, vecs = np.linalg.eigh(block)
        vals = np.where((vals < 0.0) & (vals > -1e-12), 0.0, vals)
        root_vals = np.sqrt(np.clip(vals, 0.0, None))[:, None, :]
        root_rho = (vecs * root_vals) @ vecs.conj().swapaxes(1, 2)
        # sqrt(mu_i) are the singular values of sqrt(rho) YY sqrt(rho)*, which
        # SVD delivers with absolute precision (no sqrt of eigenvalue noise)
        root = np.linalg.svd(root_rho @ _YY @ root_rho.conj(), compute_uv=False)
        c = root[:, 0] - root[:, 1] - root[:, 2] - root[:, 3]
        out[lo : lo + _CONCURRENCE_BLOCK] = np.where(c > 0.0, c, 0.0)
    return _out(out.reshape(rho.shape[:-2]))


def concurrence_state(state: TwoQubitState):
    """Concurrence per sample, chosen sample by sample: :func:`_x_concurrence` where the eight
    off-X polarizations (p^x, p^y of both qubits, pi_xz, pi_yz, pi_zx, pi_zy) are exactly
    zero, ``concurrence(state_to_density(...))`` elsewhere. Blocks of ``_CONCURRENCE_BLOCK``
    samples bound the temporaries of both paths."""
    # a flat batch, and one that fits a block, are taken as they are: no new state per call
    flat = state if state.pi.ndim == 3 else TwoQubitState(
        state.p_a.reshape(-1, 3), state.p_b.reshape(-1, 3), state.pi.reshape(-1, 3, 3))
    out = np.empty(len(flat))
    for lo in range(0, len(flat), _CONCURRENCE_BLOCK):
        block = flat[lo : lo + _CONCURRENCE_BLOCK] if len(flat) > _CONCURRENCE_BLOCK else flat
        c = _x_concurrence(block)
        general = (np.concatenate([block.p_a[:, :2], block.p_b[:, :2], block.pi[:, :2, 2],
                                   block.pi[:, 2, :2]], axis=-1) != 0.0).any(axis=-1)
        if general.any():
            c[general] = concurrence(state_to_density(block[general]))
        out[lo : lo + _CONCURRENCE_BLOCK] = c
    return _out(out.reshape(state.pi.shape[:-2]))


def _x_concurrence(state: TwoQubitState) -> np.ndarray:
    """C = 2 max(0, |rho_ud,du| - sqrt(rho_uu rho_dd), |rho_uu,dd| - sqrt(rho_ud rho_du)) from
    the polarizations, exact for X states (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007))."""
    pi, z_a, z_b = state.pi, state.p_a[..., 2], state.p_b[..., 2]
    term1 = np.hypot(pi[..., 0, 0] + pi[..., 1, 1], pi[..., 0, 1] - pi[..., 1, 0])  # 4 |rho_ud,du|
    term2 = np.sqrt(np.maximum(0.0, (1.0 + pi[..., 2, 2]) ** 2 - (z_a + z_b) ** 2))
    term3 = np.hypot(pi[..., 0, 0] - pi[..., 1, 1], pi[..., 0, 1] + pi[..., 1, 0])  # 4 |rho_uu,dd|
    term4 = np.sqrt(np.maximum(0.0, (1.0 - pi[..., 2, 2]) ** 2 - (z_a - z_b) ** 2))
    # 0.0 first: a branch that is -0.0 still gives +0.0
    return np.maximum(0.0, np.maximum(0.5 * (term1 - term2), 0.5 * (term3 - term4)))


def state_from_vector(psi: np.ndarray) -> TwoQubitState:
    """Polarizations of the pure state |psi> (normalized internally); an
    overflowed or zero norm raises InvalidStateError instead of giving NaN."""
    psi = np.asarray(psi, dtype=complex)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(psi)
    if not 0.0 < norm < np.inf:
        raise InvalidStateError(f"state vector of norm {norm:.3g} cannot be normalized")
    psi = psi / norm
    return density_to_state(np.outer(psi, psi.conj()))


def general_pure_vector(gamma: complex, theta: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """Ket (|up_z down_n> - gamma |down_z up_n>)/sqrt(1+|gamma|^2).

    The second-qubit quantization axis n has polar angles (theta, phi); the
    first is fixed to z.
    """
    up_n = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
    down_n = np.array([-np.exp(-1j * phi) * np.sin(theta / 2.0), np.cos(theta / 2.0)])
    up_z = np.array([1.0, 0.0])
    down_z = np.array([0.0, 1.0])
    psi = np.kron(up_z, down_n) - gamma * np.kron(down_z, up_n)
    with np.errstate(over="ignore"):  # an overflowed norm leaves zeros, refused when normalized
        return psi / np.linalg.norm(psi)


def _werner(p: float) -> np.ndarray:
    if not 0.0 <= p <= 1.0:
        raise InvalidStateError(f"werner admixture p must be in [0, 1], got {p}")
    return p * np.outer(KET_SINGLET, KET_SINGLET.conj()) + (1.0 - p) * np.eye(4) / 4.0


# every named state: its parameters, the first of them required (``gamma`` complex, the others
# real), and the ket (normalized when built) or density matrix that they give
_NAMED_STATES: dict[str, tuple[tuple[str, ...], Callable[..., np.ndarray]]] = {
    # the Bell states |ud> - |du>, |ud> + |du>, |uu> + |dd>, |uu> - |dd>, and the product |ud>
    "singlet": ((), lambda: KET_SINGLET),
    "triplet0": ((), lambda: KET_TRIPLET0),
    "bell_t1": ((), lambda: KET_T1),
    "bell_t2": ((), lambda: KET_T2),
    "up_down": ((), lambda: np.array([0.0, 1.0, 0.0, 0.0])),
    # (1+r)|S0> + (1-r)|T0>, that is |ud> - r|du>: the singlet at r = 1, triplet0 at -1, |ud> at 0
    "r_state": (("r",), lambda r: (1.0 + r) * KET_SINGLET + (1.0 - r) * KET_TRIPLET0),
    "updown_mix": (("r",), lambda r: np.array([0.0, 1.0, r, 0.0])),  # |ud> + r|du>
    "werner": (("p",), _werner),  # p |S0><S0| + (1-p)/4 identity, p in [0, 1]
    # |up_z down_n> - gamma |down_z up_n>; theta and phi, the axis n of qubit B, default to 0
    "general_pure": (("gamma", "theta", "phi"), general_pure_vector),
}


def _parameters(name: str) -> tuple[str, ...]:
    if name not in _NAMED_STATES:
        raise InvalidStateError(f"unknown state name {name!r}")
    return _NAMED_STATES[name][0]


def _usage_error(name: str, got) -> InvalidStateError:
    params = _parameters(name)  # r_state:r, general_pure:gamma[,theta[,phi]]
    usage = f"{name}:" + "[,".join(params) + "]" * (len(params) - 1) if params else "no parameters"
    return InvalidStateError(f"state {name!r} takes {usage}, got {got!r}")


def make_named_state(name: str, **params) -> TwoQubitState:
    """The two-qubit state ``name`` at its parameters, as ``_NAMED_STATES`` lists them. A
    parameter is taken through ``complex`` (gamma) or ``float`` (the others), so a number or
    its text will do, and must be finite; those that the state does not take are ignored."""
    names = _parameters(name)
    if names and names[0] not in params:
        raise _usage_error(name, params)
    values = {k: (complex if k == "gamma" else float)(params[k]) for k in names if k in params}
    for key, value in values.items():
        if not cmath.isfinite(value):
            raise InvalidStateError(f"state {name!r} needs finite parameters, got {params[key]!r}")
    x = _NAMED_STATES[name][1](**values)
    return state_from_vector(x) if x.ndim == 1 else density_to_state(x)


def parse_state_spec(spec: str) -> TwoQubitState:
    """The state of a spec: a name of :func:`make_named_state`, then a colon and its
    parameters in order, comma-separated ('singlet', 'r_state:0.5', 'werner:0.6',
    'general_pure:0.3+0.4j,1.1,2.3', ...)."""
    name, _, args = spec.partition(":")
    names, values = _parameters(name), args.split(",") if args else []
    if len(values) > len(names) or names and not values:
        raise _usage_error(name, spec)
    return make_named_state(name, **dict(zip(names, values)))
