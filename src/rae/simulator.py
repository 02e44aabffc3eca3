"""Parity counts of amplitude-boosted measurement circuits.

The circuit family is: prepare the ansatz state, then apply L Grover-style
layers U = R_A P, where P is the target Pauli and R_A reflects about the
ansatz state.  A global depolarizing channel acts once after state
preparation (fidelity e^{-lam/2}) and once per layer (fidelity e^{-lam}),
so the signal contrast decays as e^{-lam (L + 1/2)}.

Under this noise model the even-parity probability of every circuit is the
closed form ``inference.chebyshev_parity_probability`` at the ansatz's exact
expectation value.  Callers evaluate it once for a whole curve or dataset,
check the circuit with ``check_circuit``, and draw every count with
``sample_parities``: shot noise enters only there.  It is also where the
bootstrap redraws its counts, so every seed in the package becomes counts
in that one function.  The density-matrix evolution that this closed form
summarizes is kept in the tests as the reference it is checked against.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .pauli import AnsatzSpec, PauliString


def check_circuit(ansatz: AnsatzSpec, target: PauliString, layers: int,
                  lam: float) -> None:
    """Reject a circuit the sampler cannot describe: a target on another
    register, the identity, a negative depth or a bad depolarizing rate."""
    if target.n_qubits != ansatz.n_qubits:
        raise ValueError(
            f"target {target.word!r} acts on {target.n_qubits} qubits, "
            f"ansatz prepares {ansatz.n_qubits}"
        )
    if target.is_identity:
        raise ValueError("target Pauli must be non-identity")
    if layers < 0:
        raise ValueError("layer count must be non-negative")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError("depolarizing rate must be finite and non-negative")


def sample_parities(p_even, n_shots, seed) -> list:
    """Even-parity counts among ``n_shots`` measurements, one per entry
    along the first axis of ``p_even``; the package's only source of
    randomness.

    Entry ``k`` is ``default_rng(child_k).binomial(n_shots, p_even[k])``
    for the ``k``-th child that ``SeedSequence.spawn`` would give ``seed``
    (an int or a ``SeedSequence``): an int for a scalar entry, an array for
    a row.  Entry ``k`` therefore depends only on ``(seed, k)``, and a
    longer draw extends a shorter one.  The children's PCG64 seeds are
    derived in one pass (``_child_seed_words``), not by spawning, so a
    ``SeedSequence`` passed in is numbered from its ``n_children_spawned``
    but not advanced: passing it twice draws the same counts twice.  No
    caller in the package does.
    """
    if np.any(np.asarray(n_shots) <= 0):
        raise ValueError("n_shots must be positive")
    from numpy.random import PCG64, Generator, SeedSequence
    base = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    child_seed = _child_seed_type()
    return [Generator(PCG64(child_seed(words))).binomial(n_shots, p)
            for words, p in zip(_child_seed_words(base, len(p_even)), p_even)]


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), whose output
# NumPy keeps stable across releases.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# generate_state(4, uint64) hashes 8 uint32 words, word i from pool lane
# i % pool_size, each with its own constant.
_OUT_CONSTS = [_INIT_B * pow(_MULT_B, i, 2**32) & _MASK32 for i in range(9)]
_OUT_XOR = np.array(_OUT_CONSTS[:8], np.uint32)[:, None]
_OUT_MULT = np.array(_OUT_CONSTS[1:], np.uint32)[:, None]
_OUT_WORDS = np.arange(8)


def _n_words(value) -> int:
    """How many uint32 words SeedSequence makes of an int, or of a nested
    sequence of ints (each int little-endian, 0 as one word)."""
    if isinstance(value, (int, np.integer)):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(map(_n_words, value))


def _child_seed_words(base, n: int) -> np.ndarray:
    """``(n, 4)`` uint64: row ``k`` equals
    ``base.spawn(...)[k].generate_state(4, np.uint64)`` for the ``n``
    children numbered from ``base.n_children_spawned``.

    A child's entropy is the base's, zero-padded to the pool size, then the
    base's spawn key, then its own index.  Everything up to the index is
    the same for every child and already hashed into ``base.pool``; only
    the index is mixed in per child, as a ``(pool_size, n)`` uint32 array
    with one hash constant per pool lane.  Building the pool from ``w``
    words advanced the hash constant ``w * pool_size`` times: once per
    lane for the first ``pool_size`` words, ``pool_size * (pool_size - 1)``
    times for the all-pairs mix, and ``pool_size`` times per later word.
    """
    first = base.n_children_spawned
    if first + n > 2**32:
        raise ValueError("child index must be below 2**32")
    size = base.pool_size
    words = max(_n_words(base.entropy), size) + _n_words(base.spawn_key)
    # The index k enters lane d as mix(pool[d], hashmix(k)): hashmix xors
    # with const_d and multiplies by const_{d+1}, mix is
    # MIX_L * pool[d] - MIX_R * hashed, and each ends with x ^= x >> 16.
    consts = [_INIT_A * pow(_MULT_A, words * size + d, 2**32) & _MASK32
              for d in range(size + 1)]
    xor, mult = np.array([consts[:-1], consts[1:]], np.uint32)[:, :, None]
    scaled = (base.pool * _MIX_L)[:, None]
    index = np.arange(first, first + n, dtype=np.uint64).astype(np.uint32)
    hashed = (index ^ xor) * mult
    hashed ^= hashed >> 16
    lanes = scaled - hashed * _MIX_R
    lanes ^= lanes >> 16
    state = (lanes[_OUT_WORDS % size] ^ _OUT_XOR) * _OUT_MULT
    state ^= state >> 16
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _child_seed_type():
    """A seed sequence that hands PCG64 one row of ``_child_seed_words``.
    Built on first use so that importing ``rae`` does not load
    ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class _ChildSeed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a child seed holds only PCG64's four uint64 words")
            return self.words

    return _ChildSeed
