"""The one store of kept values, `partitions.KEPT`: charges, eviction and threads."""

import sys
import threading
from bisect import bisect_right
from collections import OrderedDict

import pytest

import gaussdeg.partitions
from gaussdeg.degrees import conjecture_scan, degree_alternate, table_rows
from gaussdeg.partitions import (
    KEPT,
    _INTEGER_BYTES,
    _count_by_division,
    _primes,
    _sieve,
    enumerate_partitions,
    syt_count,
)
from gaussdeg.schur import VeroneseVariety


def _walk(value) -> int:
    """`sys.getsizeof` summed over `value` and every object it holds, each once."""
    seen, stack, total = set(), [value], 0
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, dict) or type(item).__name__ == "mappingproxy":
            stack.extend(item.keys())
            stack.extend(item.values())
        elif hasattr(item, "__dict__"):
            stack.append(vars(item))
    return total


def _kept_digits(records) -> int:
    """The digits a kept sweep holds, counted from its text: degrees and distinct counts."""
    counts = {id(pluecker): pluecker for _, pluecker, *_ in records}
    return sum(len(degree) for _, _, _, degree, *_ in records) + sum(
        len(str(count)) for count in counts.values()
    )


SMALL, SQUARE, HOOK = (3, 2, 1), (47,) * 17, (2,) + (1,) * 797  # 6, 799 and 799 cells


@pytest.mark.parametrize(
    ("key", "make"),
    [
        (("sweep", 3, 7), lambda: list(table_rows(VeroneseVariety(3, 7)))),
        (("table", 13, 2**64 - 1), lambda: VeroneseVariety(13, 2**64 - 1).integral_table),
        (("primes",), lambda: _primes(2**17)),
        (("weights", 13), lambda: degree_alternate(VeroneseVariety(13, 2), 14)),
        (("count", SMALL), lambda: syt_count(SMALL)),
        (("count", SQUARE), lambda: syt_count(SQUARE)),
        (("count", HOOK), lambda: syt_count(HOOK)),
    ],
    ids=["sweep", "table", "primes", "weights", "count-small", "count-rectangle", "count-hook"],
)
def test_each_kind_is_charged_near_the_bytes_it_holds(key, make):
    # a charge is worked out from sizes the maker has, never by a walk; it
    # stays within a factor of 2 of what a walk of the kept value finds, and
    # of a count's key too: its shape may hold more than the count
    make()
    value, charge = KEPT._entries[key]
    walked = _walk((key, value) if key[0] == "count" else value)
    assert walked / 2 <= charge <= walked * 2, (charge, walked)
    assert KEPT.total == sum(held for _, held in KEPT._entries.values())


def _sweep(d):
    return list(table_rows(VeroneseVariety(1, d)))


def _table(d):
    return VeroneseVariety(1, d).integral_table.entries


def _weights(n):
    return degree_alternate(VeroneseVariety(n, 2), n + 1).deg_xm


def _divided(n):
    """The partitions of 0..n past one row or column: the shapes whose counts are divided."""
    shapes = (lam for k in range(n + 1) for lam in enumerate_partitions(k, k))
    return [lam for lam in shapes if len(lam) > 1 and lam[0] > 1]


def test_kept_values_stay_within_the_budget_least_recent_first(monkeypatch):
    # sweeps and tables of the curves (1, d), alternate weights of n = 2..4
    # with the tableau counts they divide, the primes up to 2^8..2^10 and
    # the counts of (3, 2, 1) and (2, 1^797), charged 68-6,535 bytes each,
    # under a budget of 8,000 bytes: after every call the store holds the
    # entries used last, in the order of their last use, and a call that
    # evicts evicts the least recently used first and no more than it must
    budget, sizes, used, order, touched = 8_000, {}, [], [], []
    monkeypatch.setattr(gaussdeg.partitions, "KEPT_BYTES", budget)
    get, keep = KEPT.get, KEPT.keep

    def read(key):  # every key a call reads or keeps, in order
        value = get(key)
        if value is not None:
            touched.append(key)
        return value

    def kept_as(key, value, charge):
        keep(key, value, charge)
        if key in KEPT._entries:
            touched.append(key)
            sizes[key] = charge

    monkeypatch.setattr(KEPT, "get", read)
    monkeypatch.setattr(KEPT, "keep", kept_as)
    calls = [
        (_sweep, 10), (_sweep, 11), (_weights, 4), (_primes, 300), (syt_count, SMALL),
        (_sweep, 10), (_weights, 4), (_primes, 100),  # read again, so used last
        (_table, 13), (_sweep, 12), (syt_count, SMALL), (_table, 30), (_weights, 2),
        (_sweep, 10), (_table, 13), (_primes, 1_000), (_sweep, 20), (_weights, 3),
        (syt_count, HOOK), (_sweep, 11), (_weights, 4), (_table, 12), (_primes, 200),
        (_sweep, 12),
    ]
    for call, arg in calls:
        counts = set()  # the count keys the call reads or keeps
        if call is _sweep:
            keys = [("sweep", 1, arg)]
            if keys[0] not in KEPT._entries:  # a sweep made reads its table first
                keys.insert(0, ("table", 1, arg))
        elif call is syt_count:
            keys, counts = [], {("count", arg)}
        else:
            kinds = {_weights: ("weights", arg), _primes: ("primes",), _table: ("table", 1, arg)}
            keys = [kinds[call]]
            if call is _weights and keys[0] not in KEPT._entries:  # made from their counts
                counts = {("count", lam) for lam in _divided(arg)}
        before = list(KEPT._entries)
        touched.clear()
        call(arg)
        assert {key for key in touched if key[0] == "count"} == counts
        for key in touched:
            if key in order:
                order.remove(key)
            order.append(key)
        used = [key for key in used if key not in keys] + keys
        assert [key for key in order if key[0] != "count"] == used
        kept = list(KEPT._entries)
        if call is _sweep:
            records = KEPT._entries["sweep", 1, arg][0]
            assert 0 <= sizes["sweep", 1, arg] - _kept_digits(records) <= len(records)
        held = [key for key in kept if key[0] != "count"]
        assert held == used[len(used) - len(held) :]
        assert kept == order[len(order) - len(kept) :]
        assert KEPT.total == sum(map(sizes.get, kept)) <= budget
        if set(before) - set(kept):  # the last to go did not fit with what stays
            assert sizes[order[-len(kept) - 1]] + KEPT.total > budget
        for key in kept:
            if key[0] == "count":
                count, charge = KEPT._entries[key]
                assert count == _count_by_division(key[1])
                assert charge == count.bit_length() // 8 + _INTEGER_BYTES + 8 * len(key[1])
    assert {key[0] for key in kept} == {"sweep", "table", "weights", "primes", "count"}


def test_every_change_to_the_map_is_made_under_the_lock(monkeypatch):
    # a keep that evicts, a hit, a miss and a clear: each change to the map,
    # a hit's move to most recently used included, is made holding the lock
    changes, held = ("move_to_end", "popitem", "pop", "__setitem__", "clear"), []

    def recorded(name):
        change = getattr(OrderedDict, name)

        def call(self, *args, **kwargs):
            held.append((name, KEPT._lock.locked()))
            return change(self, *args, **kwargs)

        return call

    Recorded = type("Recorded", (OrderedDict,), {name: recorded(name) for name in changes})
    monkeypatch.setattr(KEPT, "_entries", Recorded())
    monkeypatch.setattr(gaussdeg.partitions, "KEPT_BYTES", 100)
    for value, shape in enumerate((SMALL, SQUARE, HOOK)):
        KEPT.keep(("count", shape), value, 40)
    assert KEPT.get(("count", SQUARE)) == 1 and KEPT.get(("count", SMALL)) is None
    KEPT.clear()
    assert {name for name, _ in held} == set(changes)
    assert all(locked for _, locked in held), held


def test_every_kind_kept_from_threads_stays_whole(monkeypatch):
    # four threads read and keep sweeps, tables, alternate weights, primes
    # and tableau counts, and clear the store, under a budget of 30,000
    # bytes that holds a few of them: no call raises, each gives the values
    # of a single thread, the store is never over budget, no kept prime list
    # is shorter than its bound, no kept count is another shape's, and a
    # caller's list of primes is its own
    budget, degrees = 30_000, range(10, 40)
    monkeypatch.setattr(gaussdeg.partitions, "KEPT_BYTES", budget)
    primes = _sieve(2**12)
    shapes = _divided(12) + [(400, 399), SQUARE]
    expected = {
        "table": {d: list(table_rows(VeroneseVariety(1, d))) for d in degrees},
        "conjecture": {d: list(conjecture_scan((1,), (d,))) for d in degrees},
        "entries": {d: dict(VeroneseVariety(2, d).integral_table.entries) for d in degrees},
        "alternate": {n: degree_alternate(VeroneseVariety(n, 3), n + 1) for n in range(1, 6)},
        "count": {lam: _count_by_division(lam) for lam in shapes},
    }
    KEPT.clear()
    errors = []

    def check_store():
        with KEPT._lock:
            entries = dict(KEPT._entries)
            total = KEPT.total
        if total != sum(held for _, held in entries.values()) or total > budget:
            errors.append(("over budget", total))
        if ("primes",) in entries:
            bound, kept = entries["primes",][0]
            if kept != primes[: bisect_right(primes, bound)]:
                errors.append(("primes", bound, len(kept)))
        for key, (value, _) in entries.items():
            if key[0] == "count" and value != expected["count"][key[1]]:
                errors.append(("count", key[1]))

    def ask(seed):
        try:
            for i in range(300):
                d = degrees[(seed * 7 + i * 11) % len(degrees)]
                if i % 50 == seed:
                    KEPT.clear()
                kind = i % 6
                if kind == 0:
                    same = list(table_rows(VeroneseVariety(1, d))) == expected["table"][d]
                elif kind == 1:
                    same = list(conjecture_scan((1,), (d,))) == expected["conjecture"][d]
                elif kind == 2:
                    entries = VeroneseVariety(2, d).integral_table.entries
                    same = entries == expected["entries"][d]
                elif kind == 3:
                    n = 1 + d % 5
                    report = degree_alternate(VeroneseVariety(n, 3), n + 1)
                    same = report == expected["alternate"][n]
                elif kind == 4:
                    lam = shapes[(seed * 31 + i * 17) % len(shapes)]
                    same = syt_count(lam) == expected["count"][lam]
                else:
                    n = (seed * 7919 + i * 104_729) % 2**12
                    asked = _primes(n)
                    same = asked == primes[: bisect_right(primes, n)]
                    asked.append(-1)  # the caller's to change
                if not same:
                    errors.append((seed, i, d, kind))
                check_store()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
