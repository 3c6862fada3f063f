"""The one registry of singk3's caches.

Every singk3 cache is a functools.lru_cache made by cached, which records it,
so clear() empties them all.  cached returns the lru_cache wrapper itself:
cache_info, cache_clear and __wrapped__ work as on any lru_cache.

SIZE entries per cache, so that a long-lived process does not grow without
bound.  The limit counts entries, not bytes.
- classgroup caches reduced_primitive_forms, class_group, genus_partition and
  fundamental_data per d.  The discriminants of the 9348 reduced forms with
  |d| <= 2000 number 1000, so surface questions about those forms never make
  them evict.
- k3 caches j(O_d) per (d, precision), with the same 1000 keys there, and the
  pencil values (A, B) per (form, precision), which do evict: 15000 queries of
  the perfbench session workload (seed 1) ask about 3603 distinct forms and
  miss that cache 5031 times, so 1428 pencils are evaluated again.  An entry
  grows with the precision: 1024 (A, B) pairs take about 1.2 MB at 429 bits
  and 17 MB at 32000 bits, and 1024 j(O_d) values half that.
- modular caches pi at a power of two bits for class polynomials.  Its keys
  are powers of two up to 16384 bits below the class polynomial size limit,
  so it never holds more than a few kilobytes.
- cli caches its parser, one entry per process.
"""

from __future__ import annotations

from functools import lru_cache

SIZE = 1024

_CACHES = []


def cached(fn):
    """fn behind an lru_cache of SIZE entries, recorded for clear()."""
    wrapper = lru_cache(maxsize=SIZE)(fn)
    _CACHES.append(wrapper)
    return wrapper


def clear() -> None:
    """Empty every singk3 cache."""
    for wrapper in _CACHES:
        wrapper.cache_clear()
