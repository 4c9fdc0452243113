"""Run configuration shared by the CLI and the verification suite."""

from __future__ import annotations

from dataclasses import dataclass

from .series import DEFAULT_PRECISION


@dataclass
class Config:
    precision: int = DEFAULT_PRECISION   # series truncation window
    window: int = 12                     # homological truncation depth
    seed: int = 0                        # RNG seed for property checks
    format: str = "json"                 # 'json' | 'table'

    def __post_init__(self):
        if self.precision < 4:
            raise ValueError("precision must be at least 4")
        if self.window < 4:
            raise ValueError("window must be at least 4")
        if self.format not in ("json", "table"):
            raise ValueError("format must be 'json' or 'table'")
