"""Loading Table I kernels by name and unroll factor.

Two registries live here. :func:`load_kernel` serves the *synthesized*
Table I suite — graphs matching the published statistics, with no
executable semantics. :func:`load_program` serves the *executable*
program suite (:data:`repro.kernels.programs.ALL_PROGRAMS`) — real
frontend ASTs whose reference interpretation, DFG interpretation and
mapped co-simulation must all agree (the differential tests).
"""

from __future__ import annotations

import functools

from repro.dfg.graph import DFG
from repro.dfg.transforms import unroll as unroll_transform
from repro.errors import DFGError
from repro.kernels.synthesis import synthesize_dfg
from repro.kernels.table1 import TABLE1_SPECS, kernel_spec

#: Graphs the per-process kernel memo holds; all 21 Table I kernels at
#: unroll 1 and 2 fit.
_KERNEL_MEMO_SIZE = 64


def kernel_names() -> list[str]:
    """All Table I kernel names."""
    return sorted(TABLE1_SPECS)


def executable_kernel_names() -> list[str]:
    """The kernels with real, executable semantics (frontend ASTs)."""
    from repro.kernels.programs import ALL_PROGRAMS

    return sorted(ALL_PROGRAMS)


def load_program(name: str, **sizes):
    """The executable program ``name``, optionally resized.

    ``sizes`` forwards to the program factory (e.g. ``n=10, taps=3``
    for ``fir``) so tests can shrink instances to simulation-friendly
    trip counts.
    """
    from repro.kernels.programs import ALL_PROGRAMS

    if name not in ALL_PROGRAMS:
        raise DFGError(
            f"no executable program {name!r} "
            f"(have: {', '.join(sorted(ALL_PROGRAMS))})"
        )
    return ALL_PROGRAMS[name](**sizes)


def load_kernel(name: str, unroll: int = 1) -> DFG:
    """The Table I kernel ``name`` at ``unroll``.

    Unroll factors 1 and 2 reproduce the published statistics exactly;
    higher factors apply the generic graph-level unrolling transform to
    the unroll-2 graph (Table I does not publish them).

    Each ``(name, unroll)`` graph is synthesized once per process and
    memoized; every call returns a fresh :meth:`DFG.copy` of it, so the
    caller owns its graph and may mutate it; the copy already holds the
    DFG piece of its mapping cache key. Errors are not memoized:
    a bad name or unroll raises :class:`DFGError` on every call.
    """
    return _synthesized(name, unroll).copy()


@functools.lru_cache(maxsize=_KERNEL_MEMO_SIZE)
def _synthesized(name: str, unroll: int) -> DFG:
    """The memoized graph behind :func:`load_kernel`; never handed out.

    It holds its structure JSON (:meth:`DFG.structure_json`) in its
    memo, so every copy carries the DFG piece of its mapping cache key.
    """
    graph = _synthesize(name, unroll)
    graph.structure_json()
    return graph


def _synthesize(name: str, unroll: int) -> DFG:
    spec = kernel_spec(name)
    if unroll < 1:
        raise DFGError("unroll factor must be >= 1")
    if unroll <= 2:
        n, e, r = spec.stats(unroll)
        return synthesize_dfg(
            f"{name}_u{unroll}" if unroll > 1 else name,
            n, e, r, domain=spec.domain,
        )
    if unroll % 2:
        raise DFGError(
            "unroll factors above 2 must be even (they extend the "
            "published unroll-2 graph)"
        )
    return unroll_transform(_synthesized(name, 2), unroll // 2)
