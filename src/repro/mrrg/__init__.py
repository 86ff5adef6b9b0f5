"""Modulo routing resource graph (MRRG).

The MRRG is the time-extended view of the CGRA used by modulo-scheduling
mappers: every hardware resource (FU, mesh link, crossbar port, register
slot) is replicated for each of the II cycles of the steady-state
schedule, and all claims are made modulo II. One object holds it,
:class:`ModuloResourcePool`, whose flat resource ids are the mapper's
one resource vocabulary (see :mod:`repro.mrrg.resources`).
"""

from repro.mrrg.resources import ModuloResourcePool

__all__ = ["ModuloResourcePool"]
