"""Tests for the text visualizations and the toolchain CLI."""

import pytest

from repro import viz
from repro.__main__ import main
from repro.mapper.labeling import label_dvfs_levels


class TestViz:
    def test_render_fabric(self, cgra44):
        out = viz.render_fabric(cgra44)
        lines = out.splitlines()
        assert "4 islands" in lines[0]
        assert out.count("*") >= 4  # one SPM marker per memory tile

    def test_render_level_map_glyphs(self, iced_fir, cgra66):
        out = viz.render_level_map(iced_fir)
        grid = out.splitlines()[1:]
        assert len(grid) == 6
        glyphs = {glyph for row in grid for glyph in row.split()}
        assert glyphs <= {"N", "X", "R", "."}
        gated = sum(row.count(".") for row in grid)
        assert gated == len(iced_fir.gated_tiles())

    def test_render_schedule_contains_ops(self, baseline_fig1, fig1):
        out = viz.render_schedule(baseline_fig1)
        assert f"II={baseline_fig1.ii}" in out
        for node in fig1.nodes():
            if node.id in baseline_fig1.placements:
                assert node.label[:10] in out

    def test_render_dfg_with_labels(self, fig1, cgra44):
        labels = label_dvfs_levels(fig1, cgra44, 4)
        out = viz.render_dfg(fig1, labels)
        assert "@normal" in out
        assert "n1" in out
        assert "(sink)" in out or "->" in out

    def test_render_heatmap(self, iced_fir):
        out = viz.render_utilization_heatmap(iced_fir)
        grid = out.splitlines()[1:]
        assert len(grid) == 6
        cells = [cell for row in grid for cell in row.split()]
        assert all(c == "." or c.isdigit() for c in cells)


class TestCLI:
    def test_kernels_listing(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "spmv" in out and "solver1" in out

    def test_fabric(self, capsys):
        assert main(["fabric", "--cgra", "4x4", "--island", "2x2"]) == 0
        assert "4 islands" in capsys.readouterr().out

    def test_map_baseline(self, capsys):
        assert main(["map", "relu", "--strategy", "baseline",
                     "--cgra", "6x6"]) == 0
        out = capsys.readouterr().out
        assert "relu" in out and "II=" in out

    def test_map_iced_with_views(self, capsys):
        assert main(["map", "relu", "--strategy", "iced",
                     "--show", "levels,schedule,power"]) == 0
        out = capsys.readouterr().out
        assert "N=normal" in out
        assert "modulo schedule" in out
        assert "power" in out

    def test_map_bitstream_json(self, capsys):
        assert main(["map", "relu", "--show", "bitstream"]) == 0
        out = capsys.readouterr().out
        assert '"tiles"' in out

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["map", "nonexistent"])

    def test_experiments_passthrough(self, capsys):
        assert main(["experiments", "fig8"]) == 0
        assert "fig8" in capsys.readouterr().out


class TestDotExport:
    def test_dot_structure(self, fig1, cgra44):
        from repro.mapper.labeling import label_dvfs_levels
        labels = label_dvfs_levels(fig1, cgra44, 4)
        dot = viz.render_dfg_dot(fig1, labels)
        assert dot.startswith('digraph "fig1"')
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == fig1.num_edges
        assert "style=dashed" in dot       # loop-carried edges
        assert "palegreen" in dot          # normal critical nodes
        assert "lightblue" in dot          # relax cycle

    def test_dot_without_labels(self, fig1):
        dot = viz.render_dfg_dot(fig1)
        assert "palegreen" not in dot
        assert f"n{fig1.node_ids()[0]}" in dot


class TestSaveOption:
    def test_save_writes_three_files(self, tmp_path):
        from repro.experiments.__main__ import main
        assert main(["fig8", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "fig8.txt").exists()
        assert (tmp_path / "fig8.json").exists()
        assert (tmp_path / "fig8.csv").exists()
        import json
        payload = json.loads((tmp_path / "fig8.json").read_text())
        assert payload["id"] == "fig8"


class TestProfileCommand:
    def test_profile_prints_hot_functions(self, capsys):
        assert main(["profile", "relu", "--strategy", "baseline",
                     "--cgra", "4x4", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "relu (baseline, backend=engine)" in out
        assert "cumulative" in out
        assert "map_dfg" in out or "engine.py" in out

    def test_profile_exact_backend(self, capsys):
        assert main(["profile", "relu", "--strategy", "iced",
                     "--cgra", "4x4", "--backend", "exact",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "backend=exact" in out


class TestCacheEffortCommand:
    def test_cache_stats_reports_engine_effort(self, tmp_path, capsys):
        from repro.compile import DiskCache, compile_kernel
        from repro.arch import CGRA

        cache = DiskCache(tmp_path)
        compile_kernel("relu", CGRA.build(4, 4), strategy="iced",
                       cache=cache)
        effort = cache.engine_effort()
        assert effort["artifacts_with_stats"] == 1
        assert effort["routes_searched"] > 0
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "engine effort across cached artifacts" in out
        assert "route_memo_hits" in out


#: The pass rows `map fir --stats` prints, in pipeline order.
FIR_PASSES = ("lower", "analyze", "place_route", "refine_islands",
              "validate")


def _stats_calls(out: str) -> list[tuple[str, str]]:
    """(pass, calls) for each row of the `--stats` pass table."""
    rows: list[tuple[str, str]] = []
    in_table = False
    for line in out.splitlines():
        if line.startswith("pass "):
            in_table = True
        elif line.startswith("mapping cache:"):
            in_table = False
        elif in_table and not line.startswith("-"):
            name, calls = (cell.strip() for cell in line.split("|")[:2])
            rows.append((name, calls))
    return rows


class TestStatsFlag:
    def test_map_stats_prints_one_row_per_pass(self, capsys):
        assert main(["map", "fir", "--no-cache", "--stats"]) == 0
        rows = _stats_calls(capsys.readouterr().out)
        assert rows == [(name, "1") for name in FIR_PASSES]

    def test_map_stats_with_trace_prints_same_rows(self, tmp_path, capsys):
        trace = tmp_path / "map.json"
        assert main(["map", "fir", "--no-cache", "--stats",
                     "--trace", str(trace)]) == 0
        rows = _stats_calls(capsys.readouterr().out)
        assert rows == [(name, "1") for name in FIR_PASSES]
        assert trace.exists()

    def test_stream_stats_includes_pool_revalidation(self, tmp_path,
                                                     capsys):
        assert main(["stream", "gcn", "--inputs", "12", "--jobs", "2",
                     "--cache-dir", str(tmp_path), "--stats"]) == 0
        rows = dict(_stats_calls(capsys.readouterr().out))
        assert "revalidate" in rows
        assert rows["place_route"] == rows["validate"]
