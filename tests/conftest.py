import os
import time

import numpy as np
import pytest

from ramprimes import gap_analysis, prime_core, ramanujan_core, table_file

WIDE_BOUND = 21_000_000  # covers the default sharp-run search and all 10^7 scans


def search_mask(listed, values):
    """The Ramanujan mask over the ascending primes `listed` by binary search
    for each value, `mask[search(listed, values)] = True`: the reference that
    the scan's own mask is checked against."""
    idx = prime_core.search(listed, values)
    assert idx.size == 0 or (idx[-1] < listed.size and np.array_equal(listed[idx], values))
    mask = np.zeros(listed.size, dtype=bool)
    mask[idx] = True
    return mask


def table_of(values, scan_limit, complete_below):
    """A RamanujanTable of hand-picked prime values below `complete_below`,
    its mask packed from `search_mask` over the primes below that bound into a
    buffer of whole words (`word_mask`)."""
    values = np.asarray(values)
    listed = prime_core.build(max(complete_below - 1, 2)).primes_upto(complete_below - 1)
    return ramanujan_core.RamanujanTable(values, scan_limit, complete_below,
                                         word_mask(search_mask(listed, values)))


def word_mask(bits):
    """The boolean `bits` packed little-endian into the start of a buffer of whole
    words, as every RamanujanTable's mask is."""
    packed = np.packbits(bits, bitorder="little")
    mask = table_file.word_padded(packed.size)
    mask[:] = packed
    return mask


def odd_runs(rt, pt, bound):
    """The maximal odd Ramanujan runs starting below `bound`, as (start ranks,
    start primes, end primes, lengths), each joined from the walk steps of
    `gap_analysis._odd_runs` into one array."""
    empty = (np.zeros(0, np.int64),) * 4
    return tuple(np.concatenate(column)
                 for column in zip(empty, *gap_analysis._odd_runs(rt, pt, bound)))


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test after which a child process of this one is still running
    or was left unreaped: the one rule for every test that forks."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left behind: waitpid gave pid {pid}, status {status}")


@pytest.fixture(scope="session")
def pt1m():
    return prime_core.build(10 ** 6)


@pytest.fixture(scope="session")
def wide_tables():
    """(prime table, Ramanujan table below 21e6, seconds to build them)."""
    t0 = time.perf_counter()
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(WIDE_BOUND))
    rt = ramanujan_core.compute_below(WIDE_BOUND, pt)
    return pt, rt, time.perf_counter() - t0


@pytest.fixture(scope="session")
def pt_wide(wide_tables):
    return wide_tables[0]


@pytest.fixture(scope="session")
def rt_wide(wide_tables):
    return wide_tables[1]


@pytest.fixture(scope="session")
def rt_laishram(pt_wide):
    """The first 169350 Ramanujan primes, enough for the exact maximum check."""
    return ramanujan_core.compute_first(ramanujan_core.LAISHRAM_LIMIT, pt_wide)
