"""Places: context-qualified program points, interned to dense ids.

A place is a tuple of location ids. All elements but the last are call or
create sites recording how control got here; the last element is the current
location. Places are hash-consed: one dict maps each place to its id and one
list maps ids back, so ids are dense and in first-intern order.
"""

from __future__ import annotations

from .errors import MainThreadError, UnknownPlaceError

Place = tuple[int, ...]

MAIN_THREAD: Place = ()


class PlaceMap:
    """Bijective interning of places to dense integer ids."""

    def __init__(self) -> None:
        self._ids: dict[Place, int] = {}
        self.by_id: list[Place] = []  # id -> place; read-only outside

    def __len__(self) -> int:
        return len(self.by_id)

    def intern(self, place: Place) -> int:
        pid = self._ids.get(place)
        if pid is None:
            if not place:
                raise ValueError("cannot intern the empty place")
            pid = self._ids[place] = len(self.by_id)
            self.by_id.append(place)
        return pid

    def resolve(self, place_id: int) -> Place:
        if not 0 <= place_id < len(self.by_id):
            raise UnknownPlaceError(place_id)
        return self.by_id[place_id]

    def lookup(self, place: Place) -> int | None:
        """Id of an already-interned place, or None."""
        return self._ids.get(place)

    def places(self) -> list[Place]:
        return list(self.by_id)


def get_thread(place: Place, create_sites: set[int]) -> Place:
    """Abstract thread id: prefix up to the last create site in the context.

    Only the context part is scanned; standing at a create site does not put
    the creator inside the thread it is about to start. The empty tuple is
    the main thread.
    """
    for i in range(len(place) - 2, -1, -1):
        if place[i] in create_sites:
            return place[: i + 1]
    return MAIN_THREAD


def common_prefix_len(p1: Place, p2: Place) -> int:
    n = 0
    for a, b in zip(p1, p2):
        if a != b:
            break
        n += 1
    return n


def multiple_thread_guard(t: Place) -> None:
    if t == MAIN_THREAD:
        raise MainThreadError("thread multiplicity asked for the main thread")
