"""The errors the command line turns into exit codes.  Each kind carries its
exit code and the label that starts its one stderr line."""

from __future__ import annotations

from functools import lru_cache, wraps


class LidtestError(Exception):
    exit_code = 1
    label = "error"

    def line(self) -> str:
        return f"{self.label}: {self}"


class ConfigError(LidtestError, ValueError):
    exit_code, label = 2, "config error"


class StrategyError(LidtestError, ValueError):
    exit_code, label = 3, "strategy error"


class SizeGuardError(LidtestError, ValueError):
    exit_code, label = 4, "size guard"


def check_size(what: str, size: int, cap: int) -> None:
    if size > cap:
        raise SizeGuardError(f"{what} = {size} exceeds the cap {cap}")


def check_power(what: str, base: int, exponent: int, cap: int, factor: int = 1) -> None:
    """check_size of factor * base ** exponent, with base >= 2 and factor >= 1.
    An exponent of cap.bit_length() or more is refused before the power is
    built: 2 ** cap.bit_length() already exceeds the cap."""
    if exponent >= cap.bit_length():
        raise SizeGuardError(f"{what} of at least 2^{cap.bit_length()} exceeds the cap {cap}")
    check_size(what, factor * base ** exponent, cap)


def guarded_cache(check, maxsize=None):
    """Decorator: cache a function of hashable arguments, running its size
    check before the cache on every call, so a lowered cap refuses a cached
    result too."""
    def wrap(fn):
        cached = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def call(*args):
            check(*args)
            return cached(*args)

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call
    return wrap
