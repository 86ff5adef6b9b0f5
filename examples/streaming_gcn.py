"""Streaming acceleration: a 2-layer GCN pipeline, ICED vs DRIPS.

The GCN classifies a stream of protein-like graphs; sparse inputs
bottleneck the dense stages, dense inputs the aggregations — so the
bottleneck shifts per input and a fixed allocation wastes energy.
ICED keeps the partition and lowers non-bottleneck islands' V/f every
10 inputs; DRIPS re-shapes island allocations at full voltage.

Run:  python examples/streaming_gcn.py
"""

from repro import gcn_app, partition_app, simulate_drips, simulate_stream, streaming_cgra
from repro.streaming import EnzymeGraphStream, skip_blocks, take_block


def main() -> None:
    fabric = streaming_cgra(6, 6)
    app = gcn_app()
    print(app)

    # 150 synthetic ENZYMES-like graphs; the first 50 profile the
    # partition (exactly the paper's setup), the rest are the run.
    stream = EnzymeGraphStream(num_graphs=150)
    profile = take_block(stream.feature_blocks(), 50)
    run = list(skip_blocks(stream.feature_blocks(), 50))

    partition = partition_app(app, fabric, profile)
    print("\npartition (kernel: islands, II):")
    for placement in partition.placements:
        print(f"  {placement.kernel.name:<14} islands="
              f"{placement.island_ids} II={placement.ii}")

    iced = simulate_stream(partition, run, window=10)
    drips = simulate_drips(partition, run, window=10)

    print(f"\n{'':<8}{'cycles':>12}{'power mW':>10}{'inputs/uJ':>11}")
    for result in (iced, drips):
        print(f"{result.strategy:<8}{result.makespan_cycles:>12.0f}"
              f"{result.average_power_mw:>10.1f}"
              f"{result.perf_per_watt():>11.4f}")
    ratio = iced.perf_per_watt() / drips.perf_per_watt()
    print(f"\nICED perf/W over DRIPS: {ratio:.2f}x "
          "(the paper averages 1.12x on GCN)")

    print("\nper-window perf/W ratio (Fig 13's series):")
    for iw, dw in zip(iced.windows, drips.windows):
        r = iw.perf_per_watt() / dw.perf_per_watt()
        bar = "#" * round(20 * min(r, 2.0))
        print(f"  window {iw.index:2d}: {r:5.2f} {bar}")

    print("\nICED DVFS levels in the last window:")
    for name, level in iced.windows[-1].levels.items():
        print(f"  {name:<14} {level}")


if __name__ == "__main__":
    main()
