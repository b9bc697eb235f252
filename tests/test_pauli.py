"""Pauli-word expectation values against the dense matrix oracle."""

import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from graphsep import (
    CorrelationTensor,
    ghz_state,
    MixedEnsemble,
    PauliString,
    PureState,
    expectation,
    pack_index,
    pure_ensemble,
)
from graphsep.amplitudes import _parse_amplitudes
from graphsep.graphs import complete_graph
from graphsep.states import all_ones_state, graph_state, noisy_mixture

from oracle import dense_expectation, kron_states, pauli_matrix, random_state


def ket(bits: str) -> PureState:
    amps = np.zeros(1 << len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return PureState(len(bits), amps)


def plus_state(n: int) -> PureState:
    return PureState(n, np.full(1 << n, 2.0 ** (-n / 2), dtype=complex))


def mixture_expectation(ens: MixedEnsemble, p: PauliString) -> float:
    """The weighted sum of the members' expectations."""
    return sum(w * expectation(st, p) for w, st in ens.terms)


def test_z_eigenstate():
    assert expectation(ket("0"), PauliString("Z")) == pytest.approx(1.0, abs=1e-12)


def test_x_eigenstate_product():
    assert expectation(plus_state(2), PauliString("XX")) == pytest.approx(1.0, abs=1e-12)


def test_g3_xxx_is_minus_one():
    g3 = graph_state(complete_graph(3))
    assert expectation(g3, PauliString("XXX")) == pytest.approx(-1.0, abs=1e-9)
    assert dense_expectation(g3.amplitudes, "XXX") == pytest.approx(-1.0, abs=1e-9)


def test_bit_order_qubit_one_is_most_significant():
    # |01>: qubit 1 in |0>, qubit 2 in |1>
    state = ket("01")
    assert expectation(state, PauliString("ZI")) == pytest.approx(1.0)
    assert expectation(state, PauliString("IZ")) == pytest.approx(-1.0)


def test_identity_word_expectation_is_one():
    rng = np.random.default_rng(7)
    state = PureState(3, random_state(3, rng))
    assert expectation(state, PauliString("III")) == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        expectation(ket("00"), PauliString("ZZZ"))


def test_matches_dense_oracle_on_random_states():
    rng = np.random.default_rng(2024)
    letters = np.array(list("IXYZ"))
    for n in (1, 2, 3, 4, 5):
        state = PureState(n, random_state(n, rng))
        for _ in range(10):
            ops = "".join(rng.choice(letters, size=n))
            got = expectation(state, PauliString(ops))
            want = dense_expectation(state.amplitudes, ops)
            assert got == pytest.approx(want, abs=1e-10)
            assert abs(got) <= 1.0 + 1e-9


def test_ensemble_expectation_examples():
    # colored-noise mixture of G_3 at p = 0.5: Z's only see the noise term
    ens = noisy_mixture(graph_state(complete_graph(3)), 0.5)
    assert mixture_expectation(ens, PauliString("ZZZ")) == pytest.approx(-0.5, abs=1e-12)
    # N = 4 at p = 0.3: the graph support excludes all-Z, the noise gives (+1)*p
    ens4 = noisy_mixture(graph_state(complete_graph(4)), 0.3)
    assert mixture_expectation(ens4, PauliString("ZZZZ")) == pytest.approx(0.3, abs=1e-12)


def test_single_term_ensemble_degenerates():
    rng = np.random.default_rng(5)
    state = PureState(3, random_state(3, rng))
    ens = pure_ensemble(state)
    for ops in ("XYZ", "ZZI", "YYY"):
        assert mixture_expectation(ens, PauliString(ops)) == pytest.approx(
            expectation(state, PauliString(ops)), abs=1e-14
        )


def test_ensemble_linearity():
    rng = np.random.default_rng(11)
    a = PureState(3, random_state(3, rng))
    b = PureState(3, random_state(3, rng))
    w = 0.37
    ens = MixedEnsemble(((w, a), (1 - w, b)))
    # the density matrix of the mixture, built explicitly
    rho = sum(weight * np.outer(st.amplitudes, st.amplitudes.conj()) for weight, st in ((w, a), (1 - w, b)))
    for ops in ("XZY", "ZZZ", "XXX", "YIZ"):
        want = np.trace(rho @ pauli_matrix(ops)).real
        assert mixture_expectation(ens, PauliString(ops)) == pytest.approx(want, abs=1e-12)


def test_pack_unpack_roundtrip():
    # CorrelationTensor.items unpacks each key into its index tuple
    for idx in [(1,), (3, 2, 1), (2, 2, 2, 2), (1, 3, 2, 1, 3)]:
        assert list(CorrelationTensor(len(idx), [pack_index(idx)], [0.5]).items()) == [(idx, 0.5)]
    # packed keys sort like tuples
    assert pack_index((1, 2)) < pack_index((1, 3)) < pack_index((2, 1))
    # an identity letter has no place in a full index
    with pytest.raises(ValueError, match=r"^full-index entries must be in \{1,2,3\}, got 0$"):
        pack_index((1, 0, 2))


def test_pauli_string_validation():
    assert str(PauliString("XZ")) == "XZ"
    with pytest.raises(ValueError):
        PauliString("")
    with pytest.raises(ValueError):
        PauliString("XQZ")
    # letters come as one str: a list or bytes is refused before any letter is read
    with pytest.raises(TypeError, match="^Pauli string must be a str, got list$"):
        PauliString(["X", "Z"])
    with pytest.raises(TypeError, match="^Pauli string must be a str, got bytes$"):
        PauliString(b"XZ")


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match=r"^amplitudes have norm 1\.4142135623730951, more than 1e-06 from 1$"):
        PureState(1, np.array([1.0, 1.0], dtype=complex))  # not normalized
    with pytest.raises(ValueError, match=r"^amplitudes have a norm past the float range, more than 1e-06 from 1$"):
        PureState(1, [1e200, 0])
    with pytest.raises(ValueError, match="^need at least one qubit$"):
        PureState(0, [1])
    with pytest.raises(ValueError, match="^need at least one qubit$"):
        all_ones_state(0)


def test_pure_state_copies_the_callers_array():
    # the state's amplitudes are read-only, and the caller's own array stays writable
    amps = np.array([1, 0], dtype=complex)
    state = PureState(1, amps)
    assert amps.flags.writeable and not state.amplitudes.flags.writeable
    amps[0] = 0
    assert state.amplitudes.tolist() == [1, 0]


def test_huge_counts_and_indices_get_their_own_messages():
    # a caller's number past the int-to-str limit is written by its size, and 1 << n is never formed
    with pytest.raises(ValueError, match=r"^expected 2\^100000 amplitudes, got \(1,\)$"):
        PureState(100000, [1])
    with pytest.raises(ValueError, match=r"^expected 2\^<16610-bit int> amplitudes, got \(1,\)$"):
        PureState(10 ** 5000, [1])
    with pytest.raises(ValueError, match=r"^full-index entries must be in \{1,2,3\}, got <16610-bit int>$"):
        pack_index([1, 10 ** 5000])


def test_library_and_file_amplitudes_agree_bit_for_bit():
    # PureState and the state-file reader share one rule: on 1,000 seeded
    # complex vectors, scaled off norm 1 by up to 5e-7, they give the same
    # floats, and each warns once (naming this file's line) or, at scale 1, not at all
    rng = random.Random(42)
    for i in range(1000):
        n = rng.randint(1, 8)
        vec = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
        norm = sum(abs(z) ** 2 for z in vec) ** 0.5
        scale = 1.0 if i % 4 == 0 else 1 + rng.choice((-1, 1)) * rng.uniform(1e-11, 5e-7)
        vec = [z / norm * scale for z in vec]
        with warnings.catch_warnings(record=True) as library:
            warnings.simplefilter("always")
            state, library_line = PureState(n, vec), sys._getframe().f_lineno
        with warnings.catch_warnings(record=True) as file:
            warnings.simplefilter("always")
            parsed, file_line = _parse_amplitudes([[z.real, z.imag] for z in vec], n), sys._getframe().f_lineno
        assert [x.hex() for z in state.amplitudes.tolist() for x in (z.real, z.imag)] == [
            x.hex() for z in parsed for x in (z.real, z.imag)
        ]
        want = 0 if scale == 1.0 else 1
        assert [(w.filename, w.lineno) for w in library] == [(__file__, library_line)] * want
        assert [(w.filename, w.lineno) for w in file] == [(__file__, file_line)] * want


def test_numpy_arithmetic_on_the_callers_vector_warns_nothing():
    # PureState squares and divides the parts in numpy; under an error
    # filter, a strided array still gives the file reader's floats, and a
    # part past the root of the float range its message, with no
    # RuntimeWarning from numpy on the way
    rng = random.Random(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(1, 8):
            a = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2 << n)])
            a /= np.sqrt(np.vdot(a[::2], a[::2]).real)
            state = PureState(n, a[::2])
            parsed = _parse_amplitudes([[z.real, z.imag] for z in a[::2].tolist()], n)
            assert [x.hex() for z in state.amplitudes.tolist() for x in (z.real, z.imag)] == [
                x.hex() for z in parsed for x in (z.real, z.imag)
            ]
        for big in (1e155, 1e155j):
            with pytest.raises(ValueError) as library:
                PureState(2, np.array([big, 0, 0, 0], dtype=complex))
            with pytest.raises(ValueError) as file:
                _parse_amplitudes([[big.real, big.imag], [0, 0], [0, 0], [0, 0]], 2)
            assert str(library.value) == str(file.value) == (
                "amplitudes have a norm past the float range, more than 1e-06 from 1"
            )


@pytest.mark.parametrize(
    "keys,values,message",
    [
        ([4, 2], [0.5, 0.5], "keys must be strictly increasing"),
        ([2, 2], [0.5, 0.5], "keys must be strictly increasing"),
        ([1, 2], [0.5], "keys and values must be 1-D arrays of one length"),
        ([[1, 2]], [[0.5, 0.5]], "keys and values must be 1-D arrays of one length"),
        ([-1, 2], [0.5, 0.5], r"keys must lie in \[0, 3\^2\)"),
        ([0, 9], [0.5, 0.5], r"keys must lie in \[0, 3\^2\)"),
    ],
)
def test_correlation_tensor_validation(keys, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CorrelationTensor(2, keys, values)


def test_ensemble_validation():
    s = all_ones_state(2)
    with pytest.raises(ValueError):
        MixedEnsemble(())
    with pytest.raises(ValueError, match=r"^ensemble weights have sum 1\.1, more than 1e-06 from 1$"):
        MixedEnsemble(((0.7, s), (0.4, s)))
    with pytest.raises(ValueError, match=r"^ensemble weights have a sum past the float range, more than 1e-06 from 1$"):
        MixedEnsemble(((1e308, s), (1e308, s)))
    with pytest.raises(ValueError):
        MixedEnsemble(((-0.2, s), (1.2, s)))
    with pytest.raises(ValueError):
        MixedEnsemble(((0.5, s), (0.5, all_ones_state(3))))


def test_kron_states():
    left = ket("0")
    right = plus_state(1)
    prod = kron_states(left, right)
    assert prod.n == 2
    assert expectation(prod, PauliString("ZX")) == pytest.approx(1.0)
    assert expectation(prod, PauliString("ZI")) == pytest.approx(1.0)


def test_expectation_does_not_keep_every_qubit_count():
    # nothing is cached per n: a scan down from n = 16 that kept an index
    # array per n (8 * 2^n bytes each) would hold about 1 MB
    tracemalloc.start()
    try:
        for n in range(16, 7, -1):
            assert expectation(ghz_state(n), PauliString("Z" * n)) == pytest.approx(1 - n % 2, abs=1e-12)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 16
