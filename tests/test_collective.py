"""Collective-mode basis, operator, and Hamiltonian tests."""

import numpy as np
import pytest

from seqphoton import collective
from seqphoton.collective import (ControlChannels, FockBasis, TruncationSpec,
                                  build_hamiltonian, coupling_operators,
                                  mode_operators, vdw_shift)
from seqphoton.geometry import ArrayGeometry


def test_basis_dims():
    # caps (2, 1, 1) coherent only: 3*2*2 = 12 minus nothing
    assert FockBasis(TruncationSpec(2, 1, 1)).dim == 12
    # qubit source space with blockade cap: (1,1,1)
    assert FockBasis(TruncationSpec(1, 1, 1)).dim == 8
    assert FockBasis(TruncationSpec(1, 1, 0)).dim == 4
    # mixed sector: r + Mr <= 2 constraint prunes states
    b = FockBasis(TruncationSpec(2, 0, 0, m_r_max=2))
    assert b.dim == 6  # (s, m) with s + m <= 2


def test_basis_roundtrip_and_vacuum():
    b = FockBasis(TruncationSpec(2, 1, 1, 1, 1, 1))
    for i, s in enumerate(b.states):
        assert b.index_of(s) == i
        assert sum(s[0] for s in [s]) >= 0
    assert b.states[b.vacuum_index()] == (0, 0, 0, 0, 0, 0)


def test_blockade_projector_audit():
    b = FockBasis(TruncationSpec(2, 1, 1, 2, 1, 1))
    occ = b.occupations
    assert (occ[:, 0] + occ[:, 3]).max() <= 2


def test_bosonic_sqrt2_element():
    b = FockBasis(TruncationSpec(0, 2, 0))
    ops = mode_operators(b)
    i2 = b.index_of((0, 2, 0, 0, 0, 0))
    i1 = b.index_of((0, 1, 0, 0, 0, 0))
    assert abs(ops["a_q"][i1, i2] - np.sqrt(2.0)) < 1e-15


def test_mixed_raising_unit_elements():
    b = FockBasis(TruncationSpec(0, 0, 0, 0, 2, 0))
    ops = mode_operators(b)
    sig = ops["sigma_Mq"]
    vals = sig[sig != 0]
    assert np.allclose(vals, 1.0)


def test_commutator_below_cap():
    b = FockBasis(TruncationSpec(0, 3, 0))
    a = mode_operators(b)["a_q"]
    comm = a @ a.conj().T - a.conj().T @ a
    for n in range(3):  # below the cap the commutator is the identity
        i = b.index_of((0, n, 0, 0, 0, 0))
        assert abs(comm[i, i] - 1.0) < 1e-14


def test_sigma_phi_weights():
    b = FockBasis(TruncationSpec(0, 0, 0, 2, 0, 0))
    sp = mode_operators(b)["sigma_phi"]
    diag = np.real(np.diag(sp))
    occ = b.occupations[:, 3]
    assert np.allclose(diag[occ == 0], 0.0)
    assert np.allclose(diag[occ == 1], 1.0)
    assert np.allclose(diag[occ == 2], np.sqrt(2.0))


def test_hamiltonian_blockade_energy():
    b = FockBasis(TruncationSpec(2, 0, 0))
    H = build_hamiltonian(ControlChannels(U=5.0), 0.0, b)
    i2 = b.index_of((2, 0, 0, 0, 0, 0))
    assert abs(H[i2, i2] - 5.0) < 1e-14
    assert np.abs(H - np.diag(np.diag(H))).max() == 0.0


def test_hamiltonian_two_level_rabi():
    b = FockBasis(TruncationSpec(1, 0, 0))
    H = build_hamiltonian(ControlChannels(omega_rg=0.8, U=0.0), 0.0, b)
    i0 = b.index_of((0, 0, 0, 0, 0, 0))
    i1 = b.index_of((1, 0, 0, 0, 0, 0))
    assert abs(H[i0, i1] - 0.4) < 1e-14
    assert abs(H[i1, i0] - 0.4) < 1e-14


def test_hamiltonian_imaginary_amplitude_sign():
    # pins the sign of the Y_c control piece: H = Omega/2 C^dag + h.c.
    b = FockBasis(TruncationSpec(1, 0, 0))
    H = build_hamiltonian(ControlChannels(omega_rg=0.8j, U=0.0), 0.0, b)
    i0 = b.index_of((0, 0, 0, 0, 0, 0))
    i1 = b.index_of((1, 0, 0, 0, 0, 0))
    assert abs(H[i1, i0] - 0.4j) < 1e-14
    assert abs(H[i0, i1] + 0.4j) < 1e-14


def test_hamiltonian_rq_element():
    b = FockBasis(TruncationSpec(1, 1, 0))
    H = build_hamiltonian(ControlChannels(omega_rq=1.0, U=0.0), 0.0, b)
    ir = b.index_of((1, 0, 0, 0, 0, 0))
    iq = b.index_of((0, 1, 0, 0, 0, 0))
    assert abs(H[iq, ir] - 0.5) < 1e-14


def test_hamiltonian_hermitian_and_mixed_coupling():
    b = FockBasis(TruncationSpec(1, 1, 1, 1, 1, 1))
    ch = ControlChannels(omega_rg=0.3 + 0.1j, omega_rq=0.5j, omega_rl=0.2,
                         delta_rq=0.7, U=2.0)
    H = build_hamiltonian(ch, 0.0, b)
    assert np.abs(H - H.conj().T).max() <= 1e-12 * np.abs(H).max()
    # mixed sector coupling Mq -> Mr present for the rq channel
    imq = b.index_of((0, 0, 0, 0, 1, 0))
    imr = b.index_of((0, 0, 0, 1, 0, 0))
    assert abs(H[imr, imq]) > 0.0
    # rg channel never touches the mixed Rydberg mode
    couplings = coupling_operators(b)
    rg = couplings["rg"]
    occ = b.occupations
    for i, j in zip(*np.nonzero(rg)):
        assert occ[j, 3] == occ[i, 3]


def test_time_dependent_amplitude():
    b = FockBasis(TruncationSpec(1, 0, 0))
    ch = ControlChannels(omega_rg=lambda t: np.sin(t), U=0.0)
    H = build_hamiltonian(ch, np.pi / 2, b)
    i0, i1 = b.index_of((0, 0, 0, 0, 0, 0)), b.index_of((1, 0, 0, 0, 0, 0))
    assert abs(H[i0, i1] - 0.5) < 1e-14


def test_ideal_blockade_guard():
    b = FockBasis(TruncationSpec(2, 0, 0))
    with pytest.raises(ValueError):
        build_hamiltonian(ControlChannels(U=None), 0.0, b)


def test_nonfinite_amplitude_rejected():
    b = FockBasis(TruncationSpec(1, 0, 0))
    ch = ControlChannels(omega_rg=lambda t: np.nan, U=0.0)
    with pytest.raises(ValueError):
        build_hamiltonian(ch, 0.0, b)


def test_vdw_single_pair():
    geo = ArrayGeometry(2, 1, 1, 0.6)
    U, f = vdw_shift(geo, C6=10.0, d0=0.6)
    assert abs(f - 1.0) < 1e-14
    assert abs(U - 10.0 / 0.6 ** 6) < 1e-9


def test_vdw_2x2():
    geo = ArrayGeometry(2, 2, 1, 0.6)
    _, f = vdw_shift(geo, 1.0, 0.6)
    assert abs(f - np.sqrt(12.0 / 264.0)) < 1e-12


def test_vdw_monotone_in_lv():
    fs = [vdw_shift(ArrayGeometry(L, L, 1, 0.6), 1.0, 0.6)[1]
          for L in (2, 3, 4, 5)]
    assert all(a > b for a, b in zip(fs, fs[1:]))


def test_vdw_needs_two_atoms():
    with pytest.raises(ValueError):
        vdw_shift(ArrayGeometry(1, 1, 1, 0.6), 1.0, 0.6)
