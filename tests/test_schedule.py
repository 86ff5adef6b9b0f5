"""Tests for the modulo-schedule difference-constraint solver."""

from repro.dfg import DFGBuilder, Opcode
from repro.mapper.schedule import modulo_schedule_times


def unit(_node: int) -> int:
    return 1


class TestModuloScheduleTimes:
    def test_chain_asap(self):
        b = DFGBuilder("chain")
        x = b.op(Opcode.LOAD)
        y = b.op(Opcode.ADD, x)
        z = b.op(Opcode.ADD, y)
        dfg = b.build()
        times = modulo_schedule_times(dfg, 4, unit)
        assert times[x] == 0 and times[y] == 1 and times[z] == 2

    def test_phi_pushed_late_by_back_edge(self):
        # phi -> a -> b -> (dist 1) -> phi, with b also fed by a long
        # chain: the phi must issue late enough for the cycle to close.
        b = DFGBuilder("late")
        phi = b.op(Opcode.PHI)
        a = b.op(Opcode.ADD, phi)
        chain = b.op(Opcode.LOAD)
        for _ in range(5):
            chain = b.op(Opcode.ADD, chain)
        closing = b.op(Opcode.ADD, a, chain)
        b.back_edge(closing, phi)
        dfg = b.build()
        ii = 4
        times = modulo_schedule_times(dfg, ii, unit)
        assert times is not None
        assert times[closing] + 1 <= times[phi] + ii
        assert times[phi] >= times[closing] + 1 - ii
        assert times[phi] > 0

    def test_infeasible_cycle_returns_none(self):
        b = DFGBuilder("tight")
        b.recurrence([Opcode.PHI] + [Opcode.ADD] * 5)  # 6 nodes, dist 1
        dfg = b.build()
        assert modulo_schedule_times(dfg, 4, unit) is None
        assert modulo_schedule_times(dfg, 6, unit) is not None

    def test_latency_function_respected(self):
        b = DFGBuilder("lat")
        x = b.op(Opcode.LOAD)
        y = b.op(Opcode.ADD, x)
        dfg = b.build()
        times = modulo_schedule_times(dfg, 8, lambda n: 4)
        assert times[y] == 4

    def test_transit_added(self):
        b = DFGBuilder("transit")
        x = b.op(Opcode.LOAD)
        y = b.op(Opcode.ADD, x)
        dfg = b.build()
        times = modulo_schedule_times(dfg, 8, unit, transit_of=lambda i: 3)
        assert times[y] == 4

    def test_floor_respected(self):
        b = DFGBuilder("floor")
        x = b.op(Opcode.LOAD)
        y = b.op(Opcode.ADD, x)
        dfg = b.build()
        times = modulo_schedule_times(dfg, 4, unit, floor={x: 5})
        assert times[x] == 5 and times[y] == 6

    def test_distance_relaxes_constraint(self):
        b = DFGBuilder("dist")
        x = b.op(Opcode.PHI)
        y = b.op(Opcode.ADD, x)
        b.back_edge(y, x, dist=3)
        dfg = b.build()
        times = modulo_schedule_times(dfg, 1, unit)
        # cycle latency 2 <= dist 3 * ii 1: feasible even at II = 1.
        assert times is not None

    def test_weights_evaluated_once_per_edge(self):
        # The late-phi graph needs several relaxation passes; the
        # callbacks are pure, so each edge's weight is taken once.
        b = DFGBuilder("once")
        phi = b.op(Opcode.PHI)
        a = b.op(Opcode.ADD, phi)
        chain = b.op(Opcode.LOAD)
        for _ in range(5):
            chain = b.op(Opcode.ADD, chain)
        closing = b.op(Opcode.ADD, a, chain)
        b.back_edge(closing, phi)
        dfg = b.build()
        transits: list[int] = []
        latencies: list[int] = []

        def transit_of(idx: int) -> int:
            transits.append(idx)
            return 1

        def latency_of(node: int) -> int:
            latencies.append(node)
            return 1

        times = modulo_schedule_times(dfg, 8, latency_of, transit_of)
        assert times is not None and times[phi] > 0
        assert sorted(transits) == list(range(dfg.num_edges))
        assert len(latencies) == dfg.num_edges
