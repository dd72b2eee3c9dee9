import random

import pytest

from lockhound.errors import MainThreadError, UnknownPlaceError
from lockhound.places import (
    MAIN_THREAD, PlaceMap, common_prefix_len, get_thread,
    multiple_thread_guard,
)


def test_intern_assigns_dense_ids_in_order():
    pm = PlaceMap()
    assert pm.intern((1, 2)) == 0
    assert pm.intern((1,)) == 1
    assert pm.intern((3,)) == 2
    assert pm.intern((1, 2)) == 0  # stable on re-intern
    assert len(pm) == 3
    assert pm.places() == [(1, 2), (1,), (3,)]


def test_resolve_and_lookup_roundtrip():
    pm = PlaceMap()
    rng = random.Random(7)
    seen = {}
    for _ in range(500):
        p = tuple(rng.randrange(30) for _ in range(rng.randrange(1, 6)))
        pid = pm.intern(p)
        seen.setdefault(p, pid)
        assert pm.resolve(pid) == p
        assert pm.lookup(p) == seen[p]
    assert pm.lookup((99, 99, 99)) is None
    for bad in (len(pm), -1):
        with pytest.raises(UnknownPlaceError):
            pm.resolve(bad)


def test_intern_rejects_empty():
    with pytest.raises(ValueError):
        PlaceMap().intern(())


def test_common_prefix_len():
    assert common_prefix_len((1, 2, 3), (1, 2, 9)) == 2
    assert common_prefix_len((1,), (2,)) == 0
    assert common_prefix_len((1, 2), (1, 2)) == 2


def test_get_thread_scans_for_create_sites():
    creates = {10, 20}
    assert get_thread((10, 3), creates) == (10,)
    assert get_thread((5, 10, 7, 2), creates) == (5, 10)
    assert get_thread((10, 20, 4), creates) == (10, 20)  # innermost create wins
    assert get_thread((1, 2, 3), creates) == MAIN_THREAD
    assert get_thread((10,), creates) == MAIN_THREAD  # current loc is not a context


def test_multiple_thread_guard():
    multiple_thread_guard((10,))
    with pytest.raises(MainThreadError):
        multiple_thread_guard(MAIN_THREAD)
