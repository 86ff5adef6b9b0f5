"""Bad CLI input exits 2 with a one-line typed error, never a traceback.

Each argv below once escaped as a raw ``ZeroDivisionError``,
``ValueError``, ``DFGError``, ``ArchitectureError`` or
``IslandConfigError`` (or, for ``trace --window 0``, silently ran a
single window, and for ``dse --jobs 0`` or a negative count, silently
ran serially). The handlers now map the typed ``StreamingError`` family
(``FleetError`` included), ``ArchitectureError`` (a shape that is not
``RxC`` with R, C >= 1, an island partition that does not fit),
``DFGError`` (an unroll factor below 1), ``DSEError``, unknown
portfolio members and a malformed ``--failed`` list to exit status 2
and one stderr line named after the subcommand, before any expensive
compile or partition work (``trace`` builds its fabric before it opens
its trace file).
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
