"""Counter-style seed derivation so every run is reproducible in isolation."""

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1
# numpy.random.SeedSequence's hash: pool size and the constants of its
# hashmix, mix and generate_state steps
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_XSHIFT = np.uint32(16)


def derive_seed(master_seed, *keys):
    """Fold integer/string keys into a master seed, returning a uint64.

    The same (master_seed, keys) always yields the same value, independent
    of platform and of any other stream derived from the master seed.
    """
    entropy = [int(master_seed) & _MASK64]
    for key in keys:
        if isinstance(key, str):
            entropy.append(zlib.crc32(key.encode("utf-8")))
        else:
            entropy.append(int(key) & _MASK64)
    seq = np.random.SeedSequence(entropy)
    return int(seq.generate_state(1, np.uint64)[0])


def derive_seeds(master_seed, *keys):
    """derive_seed(master_seed, *row) for each row of the key columns, as a
    uint64 array: each key is a string, an int, or a sequence of ints, and
    the sequences are of one length.

    It runs SeedSequence's hash on uint32 columns. SeedSequence turns each
    key into one word, or two little-endian words when it is 2**32 or more,
    so rows are hashed in groups of one word layout.
    """
    columns = np.broadcast_arrays(*(_key_column(key) for key in (master_seed, *keys)))
    layouts = np.zeros(columns[0].size, dtype=np.int64)  # bit k set: key k is two words
    for k, column in enumerate(columns):
        layouts |= (column > np.uint64(0xFFFFFFFF)).astype(np.int64) << k
    seeds = np.empty(columns[0].size, dtype=np.uint64)
    for layout in np.unique(layouts):
        rows = np.flatnonzero(layouts == layout)
        words = []
        for k, column in enumerate(columns):
            values = column[rows]
            words.append((values & np.uint64(0xFFFFFFFF)).astype(np.uint32))
            if layout >> k & 1:
                words.append((values >> np.uint64(32)).astype(np.uint32))
        seeds[rows] = _seed_sequence_state(words)
    return seeds


def _key_column(key):
    """A key as uint64 values masked to 64 bits, as derive_seed folds them."""
    if isinstance(key, str):
        key = [zlib.crc32(key.encode("utf-8"))]
    elif isinstance(key, np.ndarray) and key.dtype.kind in "iu":
        return key.astype(np.uint64).reshape(-1)  # the cast keeps the low 64 bits
    elif np.ndim(key) == 0:
        key = [key]
    # each value on its own: an array of mixed ints may hold them as floats
    return np.array([int(v) & _MASK64 for v in key], dtype=np.uint64)


def _seed_sequence_state(words):
    """SeedSequence(entropy).generate_state(1, np.uint64) of each row, the
    entropy words given as uint32 columns. All arithmetic is on uint32 arrays
    and np.uint32 scalars, which wrap silently."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> _XSHIFT

    zeros = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zeros) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    state, hash_const = [], _INIT_B
    for word in pool[:2]:
        value = word ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        state.append((value ^ value >> _XSHIFT).astype(np.uint64))
    return state[0] | state[1] << np.uint64(32)


def generator(seed, *tags):
    """A PCG64 generator on the stream named by (seed, *tags)."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *tags)))
