"""Memory stressing strategies and testing environments (paper Sec. 3-4).

The paper compares four stressing strategies — the systematically tuned
``sys-str``, random ``rand-str``, L2-sized ``cache-str`` and native
``no-str`` — each with thread randomisation on (``+``) or off (``-``),
for eight testing environments in total.
"""

from .config import StressConfig
from .sequences import all_sequences, format_sequence, parse_sequence
from .strategies import (
    CacheStress,
    FixedLocationStress,
    NoStress,
    RandomStress,
    TunedStress,
    spec_from_json,
    spec_to_json,
)
from .environment import TestingEnvironment, standard_environments

__all__ = [
    "StressConfig",
    "all_sequences",
    "format_sequence",
    "parse_sequence",
    "CacheStress",
    "FixedLocationStress",
    "NoStress",
    "RandomStress",
    "TunedStress",
    "spec_to_json",
    "spec_from_json",
    "TestingEnvironment",
    "standard_environments",
]
