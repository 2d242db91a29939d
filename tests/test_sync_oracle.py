"""Synchronised families against their literal label-loop and Kronecker forms.

The oracle is the paper's construction written out: the family of total
energy chi sums (x)_j P_{E_j} psi_j over every label tuple (E_1..E_M) with
sum E_j = chi (mod N), and the collapse contracts the clock leg of the
pair built on the separable dynamic U_t = (x)_j U_t^(j), a D x D stack.
The library convolves over energy instead; on drawn families with sparse
supports, at every chi, both must agree to 1e-12.

``collapse`` builds the family a third way, as a sum over time of the
per-system trajectories.  For any stacks U_t is the inverse Fourier
transform of its own P_E, so the collapse is N times the family to
rounding (Stone's round trip); it is a test oracle, not a library check.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import sampling
from qclock.dynamics import UnitaryDynamic, dynamic_from_generator, hamiltonian
from qclock.errors import OrthogonalEigenstateError
from qclock.histories import history_from_state
from qclock.sync import EnergyFamily, _proportionality_residual

AGREE = 1e-12


def family_by_labels(ds, psis, chi: int) -> np.ndarray:
    """sum over (E_1..E_M), sum E_j = chi (mod N), of (x)_j P_{E_j} psi_j."""
    N = ds[0].N
    comps = [np.einsum("eij,j->ei", hamiltonian(d).projectors, psi) for d, psi in zip(ds, psis)]
    total = np.zeros(int(np.prod([d.dim for d in ds])), dtype=np.complex128)
    for labels in itertools.product(range(N), repeat=len(ds)):
        if sum(labels) % N != chi:
            continue
        term = comps[0][labels[0]]
        for c, E in zip(comps[1:], labels[1:]):
            term = np.kron(term, c[E])
        total += term
    return total


def separable_dynamic(ds) -> UnitaryDynamic:
    """Composite dynamic on the tensor product, U_t = (x)_j U_t^(j)."""
    N = ds[0].N
    dim = int(np.prod([d.dim for d in ds]))
    stack = np.empty((N, dim, dim), dtype=np.complex128)
    for t in range(N):
        u = ds[0].unitaries[t]
        for d in ds[1:]:
            u = np.kron(u, d.unitaries[t])
        stack[t] = u
    return UnitaryDynamic(N=N, dim=dim, unitaries=stack)


def collapse_by_kron(ds, psis, chi: int) -> np.ndarray:
    """The clock leg of sum_t (U_t psi) (x) |t>, on the separable dynamic, at level -chi."""
    composite = separable_dynamic(ds)
    psi = psis[0]
    for p in psis[1:]:
        psi = np.kron(psi, p)
    N = composite.N
    pair = np.einsum("tij,j->it", composite.unitaries, psi)  # (D, N)
    return pair @ np.exp(2j * np.pi * (-chi % N) * np.arange(N) / N)


@dataclass(frozen=True)
class CollapseResult:
    amplitudes: np.ndarray
    residual: float


def collapse(family: EnergyFamily) -> CollapseResult:
    """Project the clock of sum_t (x)_j (U_t^(j) psi_j) (x) |t> onto level -chi.

    The clock leg is contracted with the energy functional of level -chi
    (values chi_{-chi}(t)), from the per-system trajectories at O(N M D);
    the result must be proportional, with nonzero factor, to the family's
    ``amplitudes``.  The residual of that proportionality is returned.
    """
    N = family.ds[0].N
    joint = np.ones((N, 1), dtype=np.complex128)  # joint[t] = (x)_j U_t psi_j
    for d, psi in zip(family.ds, family.psis):
        trajectory = history_from_state(d, psi).states
        joint = (joint[:, :, None] * trajectory[:, None, :]).reshape(N, -1)
    effect = np.exp(2j * np.pi * (-family.chi % N) * np.arange(N) / N)  # chi_{-chi}(t)
    collapsed = effect @ joint
    return CollapseResult(collapsed, _proportionality_residual(collapsed, family.amplitudes))


def test_separable_dynamic_is_kron_of_factors():
    rng = np.random.default_rng(47)
    d1 = sampling.random_dynamic(3, 2, rng)
    d2 = sampling.random_dynamic(3, 2, rng)
    comp = separable_dynamic([d1, d2])
    for t in range(3):
        assert np.allclose(comp.unitaries[t], np.kron(d1.unitaries[t], d2.unitaries[t]))


@st.composite
def families(draw):
    """1 to 4 systems of dim <= 3 on Z/N, N <= 6, each with a drawn (sparse) support."""
    N = draw(st.integers(1, 6))
    M = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ds, psis = [], []
    for _ in range(M):
        dim = draw(st.integers(1, 3))
        labels = draw(st.lists(st.integers(0, N - 1), min_size=dim, max_size=dim))
        v = sampling.haar_unitary(dim, rng)
        gen = (v * np.exp(2j * np.pi * np.array(labels) / N)) @ v.conj().T
        ds.append(dynamic_from_generator(gen, N))
        psis.append(sampling.random_state(dim, rng))
    return ds, psis


@settings(max_examples=60, deadline=None)
@given(families())
def test_family_collapse_and_measure_match_the_oracle(family):
    ds, psis = family
    N, j = ds[0].N, len(ds) - 1
    for chi in range(N):
        fam = EnergyFamily(ds, psis, chi)
        assert np.max(np.abs(fam.amplitudes - family_by_labels(ds, psis, chi))) <= AGREE
        collapsed = collapse(fam).amplitudes
        assert np.max(np.abs(collapsed - collapse_by_kron(ds, psis, chi))) <= AGREE
        if j == 0:
            continue
        # <phi| on factor j leaves <phi|P_E psi_j> times the others' family at chi - E
        for E in [E for E, rank in fam.ds[j].spectrum.ranks.items() if rank == 1]:
            try:
                res = fam.measure(j, E)
            except OrthogonalEigenstateError:
                continue
            rest = res.overlap * family_by_labels(ds[:j], psis[:j], (chi - E) % N)
            assert np.max(np.abs(res.amplitudes - rest)) <= AGREE
