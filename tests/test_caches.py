"""Process-wide caches live in three places only.

Every table that depends on n and at most one step set or modulus belongs
to the size's packed.Geometry, and packed.geometry keeps the Geometry of
the last 128 sizes.  A functools cache anywhere else would be a second home
for such a table, with a bound of its own.  Besides packed.geometry, only
the sweep's step-set enumeration is cached.
"""

import functools
import importlib
import pkgutil

import toeplab

ALLOWED = {"packed.geometry", "verify._subsets"}


def is_cache(value):
    value = getattr(value, "__func__", value)  # staticmethod, classmethod
    return hasattr(value, "cache_info") or isinstance(value, functools.cached_property)


def functools_caches():
    """module.name (or module.Class.name) of every functools cache that a
    toeplab module or one of its classes defines."""
    found = set()
    for info in pkgutil.iter_modules(toeplab.__path__):
        module = importlib.import_module(f"toeplab.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            if is_cache(value):
                found.add(f"{info.name}.{name}")
            elif isinstance(value, type):
                found.update(
                    f"{info.name}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if is_cache(member)
                )
    return found


def test_only_the_allowed_functools_caches():
    assert functools_caches() == ALLOWED
