"""Bad CLI input exits 2 with a one-line typed error, never a traceback.

Each argv below once escaped as a raw ``ZeroDivisionError``,
``ValueError``, ``TypeError``, ``JSONDecodeError``,
``FileNotFoundError``, ``DFGError``, ``ArchitectureError`` or
``IslandConfigError`` (or, for ``trace --window 0``, silently ran a
single window; for ``dse --jobs 0`` or a negative count, silently ran
serially; for ``dse --iterations -5`` printed negative energy; and for
``--inputs 0`` partitioned on an empty profile). The handlers now map
the typed ``StreamingError`` family (``FleetError`` and
``PartitionError`` included), ``ArchitectureError`` (a shape that is
not ``RxC`` with R, C >= 1, an island partition that does not fit),
``DFGError`` (an unroll factor below 1), ``DSEError`` (every bad
design-space value or file), unknown portfolio members and a malformed
``--failed`` list to exit status 2 and one stderr line named after the
subcommand. A rejected command writes no file (``trace`` writes its
trace only once the command completes).
"""

import pytest

from repro.__main__ import main


@pytest.mark.parametrize("argv", [
    ["fleet", "run", "--scenarios", ","],
    ["fleet", "run", "--strategies", ","],
    ["fleet", "run", "--failed", "x"],
    ["stream", "gcn", "--window", "0"],
    ["stream", "gcn", "--inputs", "3"],
    ["scenarios", "table", "--window", "0"],
    ["trace", "fir", "--window", "0"],
    ["dse", "--jobs", "0"],
    ["dse", "--jobs", "-2"],
    ["map", "fir", "--cgra", "6"],
    ["map", "fir", "--island", "0x2"],
    ["map", "fir", "--unroll", "0"],
    ["map", "fir", "--portfolio", "--members", "wat"],
    ["fabric", "--cgra", "6"],
    ["trace", "fir", "--cgra", "6"],
    ["profile", "fir", "--unroll", "0"],
    ["dse", "--fabrics", "6"],
    ["dse", "--fabrics", "6x6", "--islands", "0x2", "--kernels", "fir",
     "--strategies", "baseline"],
    ["dse", "--vf", "0"],
    ["dse", "--vf", "x"],
    ["dse", "--topologies", "nope"],
    ["dse", "--kernels", "nope"],
    ["dse", "--strategies", "nope"],
    ["dse", "--strategies", "anneal"],
    ["dse", "--iterations", "-5"],
    ["dse", "--iterations", "0"],
    ["dse", "--unroll", "0"],
    ["scenarios", "table", "--inputs", "0", "--only", "enzyme"],
    ["trace", "fir", "--inputs", "0"],
], ids=lambda argv: " ".join(argv))
def test_bad_input_exits_2_with_one_line_error(argv, tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)  # anything written lands in tmp_path
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"{argv[0]}: ")
    assert "Traceback" not in err[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["map", "fir", "--strategy", "anneal"], "invalid choice: 'anneal'"),
    (["dse", "--seed", "1"], "unrecognized arguments: --seed 1"),
], ids=["map fir --strategy anneal", "dse --seed 1"])
def test_removed_flags_and_values_exit_2_through_argparse(argv, message,
                                                          capsys):
    # Annealing is `--backend anneal`, not a strategy, and no compile
    # takes a seed.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    None,
    "{not json",
    '{"wat": 1}',
    '{"fabrics": "4"}',
    '{"fabrics": ["4"]}',
    '["6x6"]',
], ids=["missing", "not-json", "unknown-key", "shape-string", "shape-4",
        "not-an-object"])
def test_bad_design_space_file_exits_2(content, tmp_path, capsys,
                                       monkeypatch):
    space_dir = tmp_path / "spaces"
    space_dir.mkdir()
    space = space_dir / "space.json"
    if content is not None:
        space.write_text(content)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["dse", "--space", str(space)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("dse: ")
    assert list(work.iterdir()) == []
