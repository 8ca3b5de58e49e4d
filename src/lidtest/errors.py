"""The errors the command line turns into exit codes.  Each kind carries its
exit code and the label that starts its one stderr line."""

from __future__ import annotations


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
