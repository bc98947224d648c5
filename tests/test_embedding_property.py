"""Property test: the digit-scatter embedding against a Kronecker reference.

Random Hermitian blocks, real or complex, on supports of one to three
distinct sites in any order (gapped and unsorted included), on chains of up
to five qubits or four qutrits.  ``embed_block`` must equal
``oracle_dense.kron_embed`` exactly and with the same dtype, slice by slice
for a stack of blocks, and ``assemble`` of a random spec must equal the term-order sum of Kronecker
embeddings exactly.  Examples are derandomized so the suite stays
deterministic.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

import oracle_dense
import trotterlab as tl

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                             max_examples=100)


@st.composite
def chains(draw) -> tuple[int, int, np.random.Generator]:
    local_dim = draw(st.sampled_from((2, 3)))
    num_sites = draw(st.integers(2, 5 if local_dim == 2 else 4))
    return local_dim, num_sites, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


def random_block(rng, size: int, real: bool) -> np.ndarray:
    raw = rng.standard_normal((size, size))
    if not real:
        raw = raw + 1j * rng.standard_normal((size, size))
    return (raw + raw.conj().T) / 2


@PROPERTY_SETTINGS
@given(chain=chains(), width=st.integers(1, 3), real=st.booleans())
def test_embed_block_matches_kron_embed(chain, width, real):
    local_dim, num_sites, rng = chain
    where = rng.permutation(num_sites)[:min(width, num_sites)].tolist()
    block = random_block(rng, local_dim ** len(where), real)
    out = tl.embed_block(block, where, num_sites, local_dim)
    reference = oracle_dense.kron_embed(block, where, num_sites, local_dim)
    assert out.dtype == reference.dtype == (np.float64 if real else np.complex128)
    np.testing.assert_array_equal(out, reference)


@PROPERTY_SETTINGS
@given(chain=chains(), width=st.integers(1, 3), count=st.integers(1, 4), real=st.booleans())
def test_embed_block_on_a_stack_matches_kron_embed(chain, width, count, real):
    local_dim, num_sites, rng = chain
    where = rng.permutation(num_sites)[:min(width, num_sites)].tolist()
    stack = np.stack([random_block(rng, local_dim ** len(where), real) for _ in range(count)])
    out = tl.embed_block(stack, where, num_sites, local_dim)
    assert out.shape == (count,) + (local_dim ** num_sites,) * 2
    assert out.dtype == (np.float64 if real else np.complex128)
    for block, embedded in zip(stack, out):
        np.testing.assert_array_equal(
            embedded, oracle_dense.kron_embed(block, where, num_sites, local_dim))


@PROPERTY_SETTINGS
@given(chain=chains(), term_count=st.integers(1, 6), real=st.booleans())
def test_assemble_matches_kron_assemble(chain, term_count, real):
    local_dim, num_sites, rng = chain
    lattice = tl.LatticeSpec(num_sites, local_dim)
    terms = []
    for _ in range(term_count):
        width = int(rng.integers(1, min(3, num_sites) + 1))
        support = tuple(sorted(rng.choice(num_sites, size=width, replace=False).tolist()))
        terms.append(tl.LocalTerm(support, random_block(rng, local_dim ** width, real)))
    locality = max(len(term.support) for term in terms)
    spec = tl.HamiltonianSpec(lattice, tuple(terms), tl.greedy_partition(lattice, terms),
                              locality_k=locality)
    hamiltonian, parts = tl.assemble(spec)
    reference, reference_parts = oracle_dense.kron_assemble(spec)
    assert hamiltonian.dtype == reference.dtype == spec.dtype
    np.testing.assert_array_equal(hamiltonian, reference)
    assert len(parts) == len(reference_parts)
    for part, reference_part in zip(parts, reference_parts):
        assert part.dtype == reference_part.dtype
        np.testing.assert_array_equal(part, reference_part)
