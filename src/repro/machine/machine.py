"""The bitstream interpreter (machine model).

State per tile: one FIFO queue per edge tag (the elastic buffers),
plus the in-flight completions of its FU. State per fabric: link
deliveries in flight. Each base cycle, every powered tile:

1. receives link deliveries that complete this cycle (push to the
   matching edge queue);
2. finishes FU issues whose latency elapsed (fan the result out into
   the word's ``out_edges`` queues, or commit a STORE);
3. executes its current slot's configuration word: issue the FU
   (popping operand queues / reading immediates) and perform sends
   (pop an edge queue, inject into a link with the receiver's
   clock-domain delay).

Nothing here consults the mapping: if the generator forgot a send,
mis-directed a port or wired an operand to the wrong queue, the machine
computes garbage and the tests catch it against the AST interpreter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.dfg.ops import Opcode, evaluate
from repro.errors import SimulationError
from repro.mapper.bitstream import Bitstream, ConfigWord

Memory = dict[str, list[float]]


@dataclass
class MachineResult:
    """The outcome of running a bitstream."""

    memory: Memory
    cycles: int
    issues: int
    sends: int
    skipped_sends: int
    stores_committed: int
    stores_predicated_off: int = 0
    queue_high_water: int = 0


@dataclass
class _Pending:
    """An FU issue in flight."""

    finish_cycle: int
    word: ConfigWord
    operands: list[float]


class _Tile:
    """Per-tile machine state."""

    def __init__(self, tile_id: int):
        self.id = tile_id
        self.queues: dict[int, deque[float]] = {}
        self.pending: list[_Pending] = []
        self.issues_done: dict[int, int] = {}  # node -> issue count

    def push(self, edge: int, value: float) -> None:
        self.queues.setdefault(edge, deque()).append(value)

    def pop(self, edge: int) -> float | None:
        queue = self.queues.get(edge)
        if not queue:
            return None
        return queue.popleft()

    def depth(self) -> int:
        return sum(len(q) for q in self.queues.values())


def run_bitstream(bitstream: Bitstream, memory: Memory,
                  iterations: int,
                  max_cycles: int | None = None) -> MachineResult:
    """Execute ``iterations`` of the configured schedule.

    ``memory`` maps array names (per the bitstream's memory layout) to
    word lists; it is copied, mutated by STOREs, and returned.
    """
    if iterations < 0:
        raise SimulationError("iterations must be non-negative")
    mem: Memory = {name: list(vals) for name, vals in memory.items()}
    for array in bitstream.memory_layout:
        if array not in mem:
            raise SimulationError(f"memory for array {array!r} missing")

    ii = bitstream.ii
    tiles = {t: _Tile(t) for t in bitstream.words}
    # Link delay lines: arrival cycle -> [(tile, edge, value)].
    in_flight: dict[int, list[tuple[int, int, float]]] = {}
    stats = MachineResult(
        memory=mem, cycles=0, issues=0, sends=0, skipped_sends=0,
        stores_committed=0,
    )

    if iterations == 0:
        return stats
    # Generous horizon: every issue slot of every iteration plus drain.
    horizon = max_cycles if max_cycles is not None else (
        iterations * ii + 64 * ii + 64
    )

    total_issues_needed = sum(
        1 for slots in bitstream.words.values()
        for word in slots if word.opcode is not None
    ) * iterations

    cycle = 0
    while cycle < horizon:
        # 1. link deliveries
        for tile_id, edge, value in in_flight.pop(cycle, ()):
            tiles[tile_id].push(edge, value)

        # 2. FU completions
        for tile in tiles.values():
            still = []
            for pending in tile.pending:
                if pending.finish_cycle == cycle:
                    _complete(pending, tile, mem, bitstream, stats)
                else:
                    still.append(pending)
            tile.pending = still

        # 3. execute configuration words
        slot = cycle % ii
        for tile_id, tile in tiles.items():
            word = bitstream.words[tile_id][slot]
            if word.opcode is not None:
                node = word.node if word.node is not None else -1
                done = tile.issues_done.get(node, 0)
                if done < iterations:
                    operands = _gather_operands(word, tile, done)
                    if operands is not None:
                        tile.issues_done[node] = done + 1
                        tile.pending.append(_Pending(
                            finish_cycle=cycle + word.latency,
                            word=word,
                            operands=operands,
                        ))
                        stats.issues += 1
            for send in word.sends:
                value = tile.pop(send.edge)
                if value is None:
                    stats.skipped_sends += 1  # pipeline fill / drain
                    continue
                in_flight.setdefault(cycle + send.delay, []).append(
                    (send.to_tile, send.edge, value)
                )
                stats.sends += 1

        stats.queue_high_water = max(
            stats.queue_high_water,
            max((t.depth() for t in tiles.values()), default=0),
        )

        cycle += 1
        if (stats.issues >= total_issues_needed
                and not _pending_count(tiles)
                and not in_flight):
            break

    stats.cycles = cycle
    if stats.issues < total_issues_needed:
        raise SimulationError(
            f"machine stalled: {stats.issues}/{total_issues_needed} "
            f"issues after {cycle} cycles (a generator or schedule bug)"
        )
    return stats


def _pending_count(tiles: dict[int, _Tile]) -> int:
    return sum(len(t.pending) for t in tiles.values())


def _gather_operands(word: ConfigWord, tile: _Tile,
                     issues_done: int) -> list[float] | None:
    """Pop the word's operands; None = not all available yet (bubble).

    A ``phi`` selector consumes its initialization immediate for the
    first ``dist`` firings (pipeline fill) and the back-edge queue
    afterwards — an empty queue past the fill means the value simply
    has not arrived yet, so the issue bubbles like any other.
    """
    # Peek first: either all operands are consumable or none are popped.
    for sel in word.operands:
        if sel.kind == "edge" and not tile.queues.get(sel.edge):
            return None
        if (sel.kind == "phi" and issues_done >= sel.dist
                and not tile.queues.get(sel.edge)):
            return None
    values: list[float] = []
    for sel in word.operands:
        if sel.kind == "imm":
            values.append(float(sel.value or 0.0))
        elif sel.kind == "phi":
            if issues_done < sel.dist:
                values.append(float(sel.value or 0.0))
            else:
                popped = tile.pop(sel.edge)
                if popped is None:  # unreachable after the peek
                    raise SimulationError("phi queue drained mid-issue")
                values.append(popped)
        else:
            popped = tile.pop(sel.edge)
            if popped is None:  # unreachable after the peek
                raise SimulationError("operand queue drained mid-issue")
            values.append(popped)
    return values


def _complete(pending: _Pending, tile: _Tile, mem: Memory,
              bitstream: Bitstream, stats: MachineResult) -> None:
    word = pending.word
    value = _evaluate(word, pending.operands, mem, stats)
    for edge in word.out_edges:
        tile.push(edge, value)


def _evaluate(word: ConfigWord, args: list[float], mem: Memory,
              stats: MachineResult) -> float:
    op = word.opcode
    if op is Opcode.LOAD:
        if word.mem_index_const is not None:
            index = word.mem_index_const
        else:
            index = int(args[0]) if args else 0
        return _mem_ref(word, mem)[index]
    if op is Opcode.STORE:
        index = int(args[0])
        value = args[1] if len(args) > 1 else 0.0
        pred = args[2] if len(args) > 2 else 1.0
        if pred:
            _mem_ref(word, mem)[index] = value
            stats.stores_committed += 1
        else:
            stats.stores_predicated_off += 1
        return value
    if op is Opcode.PHI:
        return args[0] if args else 0.0
    return evaluate(op, args, word.cmp_op)


def _mem_ref(word: ConfigWord, mem: Memory) -> list[float]:
    if word.array is None:
        raise SimulationError(
            f"memory op at node {word.node} lacks an array annotation "
            "(generate the bitstream with node_meta/bitstream_for_lowered)"
        )
    return mem[word.array]
