"""Exact quasimorphism probes on free and free-by-abelian groups.

The package computes homogenizations, defect bounds, approximate-kernel
certificates, Rips connectivity profiles, value-constrained path
searches with peak reduction, and windowed boundary solves, all in
exact arithmetic over Q(sqrt(d)), and emits machine-checkable reports.
"""

__version__ = "0.1.0"
