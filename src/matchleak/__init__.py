"""matchleak: a simulation lab for information leakage in threshold-based
Hamming matchers.

Build a sealed match oracle over Z_q^n with a configurable leak (distance,
error positions, or positions plus signed values; on accepted queries only
or on every query), run the recovery attack matching that scenario, and
check the spent queries or sessions against the scenario's worst-case bound.
"""

__version__ = "0.1.0"
