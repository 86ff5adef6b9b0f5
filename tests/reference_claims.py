"""The key-tuple claim vocabulary, kept as a test oracle.

The mapper claims through :class:`~repro.mrrg.resources.ModuloResourcePool`'s
flat resource ids (``claim_rid``, ``claim_route``). This module keeps
the older vocabulary the oracles are written in: resources named by
tuples (``("fu", tile)``, ``("link", src, dst)``, ``("xbar", tile)``,
``("reg", tile)``), claims as ``(key, start, length)`` triples built
by :func:`op_claims`, :func:`hop_claims`, :func:`wait_claims` and
:func:`route_claims`, and readers that look a key's rid up in the
fabric's layout (:func:`repro.mrrg.resources._fabric_layout`).

:func:`claim` raises the pool's exact messages, so an oracle replaying
claims through it fails where, and how, the pool does.
``tests/test_mrrg.py`` checks that ``claim_route`` leaves the pool
exactly as replaying :func:`route_claims` through :func:`claim` does.
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.mrrg.resources import ModuloResourcePool, _fabric_layout

ResourceKey = tuple

#: A claim: (resource key, start cycle, length in base cycles).
Claim = tuple[ResourceKey, int, int]


def fu_key(tile: int) -> ResourceKey:
    return ("fu", tile)


def link_key(src: int, dst: int) -> ResourceKey:
    return ("link", src, dst)


def xbar_key(tile: int) -> ResourceKey:
    return ("xbar", tile)


def reg_key(tile: int) -> ResourceKey:
    return ("reg", tile)


def op_claims(tile: int, t: int, slowdown: int) -> list[Claim]:
    """Resources an operation occupies."""
    return [(fu_key(tile), t, slowdown)]


def hop_claims(src: int, dst: int, depart: int, s_dst: int) -> list[Claim]:
    """Resources one mesh hop occupies (paced by the receiver's clock)."""
    return [
        (link_key(src, dst), depart, s_dst),
        (xbar_key(dst), depart, s_dst),
    ]


def wait_claims(tile: int, arrival: int, until: int) -> list[Claim]:
    """Register slots held while data waits at ``tile`` for its consumer."""
    length = until - arrival
    if length <= 0:
        return []
    return [(reg_key(tile), arrival, length)]


def route_claims(path: tuple[int, ...], ready: int, depart: int,
                 deadline: int, slow) -> list[Claim]:
    """The claims of a route under the per-tile slowdowns ``slow``."""
    claims: list[Claim] = []
    if len(path) == 1:
        claims.extend(wait_claims(path[0], ready, deadline))
        return claims
    claims.extend(wait_claims(path[0], ready, depart))
    t = depart
    for src, dst in zip(path, path[1:]):
        s = slow[dst]
        claims.extend(hop_claims(src, dst, t, s))
        t += s
    claims.extend(wait_claims(path[-1], t, deadline))
    return claims


def capacity(pool: ModuloResourcePool, key: ResourceKey) -> int:
    """Units of ``key`` one slot holds."""
    kind = key[0]
    if kind == "fu" or kind == "link":
        return 1
    if kind == "xbar":
        return pool.xbar_capacity
    if kind == "reg":
        return pool.cgra.tile(key[1]).num_registers
    raise MappingError(f"unknown resource kind {kind!r}")


def used(pool: ModuloResourcePool, key: ResourceKey, slot: int) -> int:
    """Units of ``key`` held in ``slot`` (0 for a resource the fabric
    does not have)."""
    # The pool's constructor cached the fabric's layout on its CGRA.
    rid = pool.cgra._mrrg_layout[0].get(key)
    if rid is None:
        return 0
    return pool._use[rid * pool.ii + slot % pool.ii]


def claim(pool: ModuloResourcePool, key: ResourceKey, start: int,
          length: int) -> None:
    """Claim ``key`` for ``length`` cycles from ``start``; raises
    :class:`MappingError` if it overflows or the fabric has no such
    resource. A claim of no cycles claims nothing."""
    if length <= 0:
        return
    rid = _fabric_layout(pool.cgra)[0].get(key)
    if rid is None:
        capacity(pool, key)  # raises on unknown kinds
        raise MappingError(f"unknown resource {key!r} on {pool.cgra.name}")
    pool.claim_rid(rid, start, length)


def claims_free(pool: ModuloResourcePool, claims: list[Claim]) -> bool:
    """Would all ``claims`` fit, including their mutual overlap? Checked
    on a scratch transaction, so the pool is left as it was."""
    token = pool.checkpoint()
    try:
        for key, start, length in claims:
            claim(pool, key, start, length)
    except MappingError:
        return False
    finally:
        pool.rollback(token)
    return True
