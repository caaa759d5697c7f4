"""derive_seeds, the array form of derive_seed, against derive_seed itself."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixrobust.seeding import derive_seed, derive_seeds

fixed = settings(derandomize=True, deadline=None, max_examples=200)

# master seeds at each word-layout edge: 0 is one word, 2**32 - 1 the widest
# one-word value, 2**32 the first two-word one, 2**64 - 1 the widest after the
# mask; negatives and wider values are masked to 64 bits
EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, -1, -3, 2 ** 70 + 3, -2 ** 70]
masters = st.one_of(st.sampled_from(EDGES), st.integers(-2 ** 70, 2 ** 70))
# integer keys on both sides of 2**32, so one call mixes word layouts
keys = st.one_of(st.sampled_from(EDGES), st.integers(0, 2 ** 33), st.integers(-2 ** 70, 2 ** 70))
columns = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.lists(keys, min_size=n, max_size=n),
                        st.lists(keys, min_size=n, max_size=n)))
names = st.sampled_from(["balanced", "consistent", "reverse", "", "train", "é"])


def reference(master, *keys):
    """derive_seed of each row of the key columns; a string is every row's."""
    n = next(len(key) for key in keys if isinstance(key, list))
    rows = zip(*(key if isinstance(key, list) else [key] * n for key in keys))
    return [derive_seed(master, *row) for row in rows]


@fixed
@given(masters, columns, names)
@example(2 ** 32, ([2 ** 32 - 1, 2 ** 32, 0], [0, 2 ** 64 - 1, 2 ** 32]), "reverse")
def test_matches_derive_seed_row_by_row(master, ids_and_reps, scenario):
    ids, reps = ids_and_reps
    seeds = derive_seeds(master, ids, reps, scenario)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == reference(master, ids, reps, scenario)


@fixed
@given(masters, st.lists(keys, min_size=1, max_size=6), st.lists(names, max_size=4))
def test_more_than_four_entropy_words(master, ids, tags):
    """A master seed, string tags and a two-word key together run past the
    four-word pool, into SeedSequence's extra mixing loop."""
    seeds = derive_seeds(master, *tags, ids, ids, *tags)
    assert seeds.tolist() == reference(master, *tags, ids, ids, *tags)


@fixed
@given(masters, st.integers(1, 50), st.integers(1, 10), names)
def test_integer_arrays_match(master, first, replicates, scenario):
    """The columns expand_plan passes: int64 run ids and replicates."""
    run_ids = np.arange(first, first + 3 * replicates, dtype=np.int64)
    reps = np.repeat(np.arange(1, replicates + 1), 3)
    assert derive_seeds(master, run_ids, reps, scenario).tolist() == reference(
        master, run_ids.tolist(), reps.tolist(), scenario)


def test_scalar_keys_and_empty_columns():
    assert derive_seeds(7).tolist() == [derive_seed(7)]
    assert derive_seeds(7, 2 ** 40, "train").tolist() == [derive_seed(7, 2 ** 40, "train")]
    assert derive_seeds(7, np.uint64(2 ** 64 - 1)).tolist() == [derive_seed(7, 2 ** 64 - 1)]
    empty = derive_seeds(7, np.arange(0), np.arange(0), "reverse")
    assert empty.dtype == np.uint64 and empty.size == 0


def test_mixed_python_ints_keep_every_bit():
    """A list numpy would hold as floats (2**64 - 1 beside -1) is read exactly."""
    ids = [2 ** 64 - 1, -1, 2 ** 53 + 1]
    assert derive_seeds(3, ids).tolist() == reference(3, ids)
