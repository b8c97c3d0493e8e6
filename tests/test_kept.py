"""The one store of kept values, `partitions.KEPT`: charges, eviction and threads."""

import sys
import threading
from bisect import bisect_right

import pytest

import gaussdeg.partitions
from gaussdeg.degrees import conjecture_scan, degree_alternate, table_rows
from gaussdeg.partitions import KEPT, _primes, _sieve
from gaussdeg.schur import VeroneseVariety, cache_clear


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


@pytest.mark.parametrize(
    ("key", "make"),
    [
        (("sweep", 3, 7), lambda: list(table_rows(VeroneseVariety(3, 7)))),
        (("table", 13, 2**64 - 1), lambda: VeroneseVariety(13, 2**64 - 1).integral_table),
        (("primes",), lambda: _primes(2**17)),
        (("weights", 13), lambda: degree_alternate(VeroneseVariety(13, 2), 14)),
    ],
    ids=["sweep", "table", "primes", "weights"],
)
def test_each_kind_is_charged_near_the_bytes_it_holds(key, make):
    # a charge is worked out from sizes the maker has, never by a walk; it
    # stays within a factor of 2 of what a walk of the kept value finds
    make()
    value, charge = KEPT._entries[key]
    walked = _walk(value)
    assert walked / 2 <= charge <= walked * 2, (charge, walked)
    assert KEPT.total == sum(held for _, held in KEPT._entries.values())


def _sweep(d):
    return list(table_rows(VeroneseVariety(1, d)))


def _table(d):
    return VeroneseVariety(1, d).integral_table.entries


def _weights(n):
    return degree_alternate(VeroneseVariety(n, 2), n + 1).deg_xm


def test_kept_values_stay_within_the_budget_least_recent_first(monkeypatch):
    # sweeps and tables of the curves (1, d), alternate weights of n = 2..4
    # and the primes up to 2^8..2^10, charged 68-6,192 bytes each, under a
    # budget of 8,000 bytes: after every call the store holds the entries
    # used last, in the order of their last use, and a call that evicts
    # evicts the least recently used first and no more than it must
    budget, sizes, used = 8_000, {}, []
    monkeypatch.setattr(gaussdeg.partitions, "KEPT_BYTES", budget)
    calls = [
        (_sweep, 10), (_sweep, 11), (_weights, 4), (_primes, 300),
        (_sweep, 10), (_weights, 4), (_primes, 100),  # read again, so used last
        (_table, 13), (_sweep, 12), (_table, 30), (_weights, 2),
        (_sweep, 10), (_table, 13), (_primes, 1_000), (_sweep, 20), (_weights, 3),
        (_sweep, 11), (_weights, 4), (_table, 12), (_primes, 200), (_sweep, 12),
    ]
    for call, arg in calls:
        if call is _sweep:
            keys = [("sweep", 1, arg)]
            if keys[0] not in KEPT._entries:  # a sweep made reads its table first
                keys.insert(0, ("table", 1, arg))
        else:
            kinds = {_weights: ("weights", arg), _primes: ("primes",), _table: ("table", 1, arg)}
            keys = [kinds[call]]
        before = list(KEPT._entries)
        call(arg)
        used = [key for key in used if key not in keys] + keys
        kept = list(KEPT._entries)
        sizes.update((key, KEPT._entries[key][1]) for key in kept)
        if call is _sweep:
            records = KEPT._entries["sweep", 1, arg][0]
            assert 0 <= sizes["sweep", 1, arg] - _kept_digits(records) <= len(records)
        first = len(used) - len(kept)
        assert kept == used[first:]
        assert KEPT.total == sum(map(sizes.get, kept)) <= budget
        if set(before) - set(kept):  # the last to go did not fit with what stays
            assert sizes[used[first - 1]] + KEPT.total > budget
    assert {key[0] for key in kept} == {"sweep", "table", "weights", "primes"}


def test_every_kind_kept_from_threads_stays_whole(monkeypatch):
    # four threads read and keep sweeps, tables, alternate weights and
    # primes, and clear the store, under a budget of 30,000 bytes that holds
    # a few of them: no call raises, each gives the values of a single
    # thread, the store is never over budget, no kept prime list is shorter
    # than its bound, and a caller's list of primes is its own
    budget, degrees = 30_000, range(10, 40)
    monkeypatch.setattr(gaussdeg.partitions, "KEPT_BYTES", budget)
    primes = _sieve(2**12)
    expected = {
        "table": {d: list(table_rows(VeroneseVariety(1, d))) for d in degrees},
        "conjecture": {d: list(conjecture_scan((1,), (d,))) for d in degrees},
        "entries": {d: dict(VeroneseVariety(2, d).integral_table.entries) for d in degrees},
        "alternate": {n: degree_alternate(VeroneseVariety(n, 3), n + 1) for n in range(1, 6)},
    }
    cache_clear()
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

    def ask(seed):
        try:
            for i in range(300):
                d = degrees[(seed * 7 + i * 11) % len(degrees)]
                if i % 50 == seed:
                    cache_clear()
                kind = i % 5
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
