"""The DSE subsystem: space expansion, Pareto extraction, sweep
driver determinism and cache provenance.

The load-bearing contracts:

* Pareto frontiers are non-dominated and *permutation-stable* —
  pure functions of the point set (hypothesis-tested);
* ``DesignSpace.expand`` is deterministic, densely indexed and drops
  only island shapes that do not fit their fabric;
* the optimized driver (cache reuse, blob aliasing, warm-started II)
  produces byte-identical rows *and* final mapping blobs to the
  one-cold-compile-per-point oracle (``tests/reference_dse.py``), and
  ``jobs=2`` matches
  ``jobs=1`` byte for byte, with or without a disk tier, from one
  pool dispatch per sweep;
* a sweep killed after its search wave resumes byte-identically;
* DSE-produced disk artifacts carry the sweep provenance tag and the
  per-sweep footprint report groups by it.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.compile.diskcache import DiskCache
from repro.compile.parallel import SweepExecutor
from repro.dse import (
    DesignPoint,
    DesignSpace,
    dominates,
    driver,
    pareto_front,
    run_dse,
)
from repro.dse.space import _parse_shape
from tests.reference_dse import reference_run_dse

SMALL_SPACE = DesignSpace(
    name="test",
    fabrics=((4, 4),),
    islands=((2, 2),),
    topologies=("mesh",),
    vf_levels=(3, 4),
    strategies=("baseline", "per_tile_dvfs", "iced"),
    kernels=("fir", "mvt"),
)


# -- pareto properties -------------------------------------------------------

def _rows(draw_objs):
    return [
        {"index": i, "energy_uj": e, "makespan_us": m, "area_mm2": a}
        for i, (e, m, a) in enumerate(draw_objs)
    ]


objective = st.tuples(
    st.integers(0, 6).map(float),
    st.integers(0, 6).map(float),
    st.integers(0, 6).map(float),
)


@given(st.lists(objective, min_size=1, max_size=24))
@settings(max_examples=120, deadline=None)
def test_pareto_front_is_non_dominated_and_complete(objs):
    rows = _rows(objs)
    front = pareto_front(rows)
    assert front, "a non-empty set always has a non-dominated point"
    front_ids = {row["index"] for row in front}
    for row in front:
        assert not any(dominates(other, row) for other in rows)
    # Completeness: anything off the frontier is dominated by someone.
    for row in rows:
        if row["index"] not in front_ids:
            assert any(dominates(other, row) for other in rows)


@given(st.lists(objective, min_size=1, max_size=20),
       st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_pareto_front_is_permutation_stable(objs, rng):
    rows = _rows(objs)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert pareto_front(shuffled) == pareto_front(rows)


def test_duplicate_objectives_all_survive():
    rows = _rows([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)])
    front = pareto_front(rows)
    assert [row["index"] for row in front] == [0, 1]


def test_dominates_is_strict():
    a = {"energy_uj": 1.0, "makespan_us": 1.0, "area_mm2": 1.0}
    assert not dominates(a, dict(a))
    better = dict(a, energy_uj=0.5)
    assert dominates(better, a)
    assert not dominates(a, better)


# -- space expansion ---------------------------------------------------------

def test_expand_is_deterministic_and_densely_indexed():
    points = SMALL_SPACE.expand()
    assert points == SMALL_SPACE.expand()
    assert [p.index for p in points] == list(range(len(points)))
    assert len(points) == 2 * 3 * 2  # vf x strategies x kernels


def test_expand_drops_oversized_islands_only():
    space = DesignSpace(fabrics=((4, 4), (8, 8)), islands=((8, 8),),
                        strategies=("baseline",), kernels=("fir",))
    points = space.expand()
    assert [(p.rows, p.cols) for p in points] == [(8, 8)]
    assert points[0].index == 0


def test_space_hash_tracks_content():
    assert SMALL_SPACE.space_hash() == SMALL_SPACE.space_hash()
    other = DesignSpace.from_dict(
        dict(SMALL_SPACE.to_dict(), iterations=2048)
    )
    assert other.space_hash() != SMALL_SPACE.space_hash()


def test_space_json_round_trip():
    rebuilt = DesignSpace.from_dict(
        json.loads(json.dumps(SMALL_SPACE.to_dict()))
    )
    assert rebuilt == SMALL_SPACE
    assert rebuilt.space_hash() == SMALL_SPACE.space_hash()


def test_parse_shape_rejects_junk():
    assert _parse_shape("6x6") == (6, 6)
    for bad in ("6", "ax4", ""):
        try:
            _parse_shape(bad)
        except ValueError:
            continue
        raise AssertionError(f"{bad!r} should not parse")


def test_point_keys_partition_the_axes():
    point = DesignPoint(index=0, rows=6, cols=6, island=(2, 2),
                        topology="torus", vf_levels=4,
                        strategy="iced", kernel="fir")
    assert point.fabric_key == (6, 6, (2, 2), "torus", 4)
    assert point.geometry_key == (6, 6, (2, 2), "torus")


# -- driver determinism ------------------------------------------------------

def test_optimized_matches_naive_rows_and_blobs():
    opt_blobs, naive_blobs = {}, {}
    optimized = run_dse(SMALL_SPACE, blob_sink=opt_blobs)
    naive = reference_run_dse(SMALL_SPACE, blob_sink=naive_blobs)
    assert optimized["points"] == naive["points"]
    assert optimized["frontier"] == naive["frontier"]
    assert opt_blobs == naive_blobs
    assert optimized["stats"]["compiles"] < naive["stats"]["compiles"]
    assert optimized["stats"]["aliased_blobs"] > 0


def test_jobs_two_matches_jobs_one_byte_for_byte(tmp_path):
    serial_blobs, pool_blobs = {}, {}
    serial = run_dse(SMALL_SPACE, jobs=1,
                     cache_dir=str(tmp_path / "c1"),
                     blob_sink=serial_blobs)
    pool = run_dse(SMALL_SPACE, jobs=2,
                   cache_dir=str(tmp_path / "c2"),
                   blob_sink=pool_blobs)
    for section in ("points", "frontier"):
        assert (json.dumps(serial[section], sort_keys=True)
                == json.dumps(pool[section], sort_keys=True))
    assert serial_blobs == pool_blobs


def test_jobs_two_without_cache_dir_matches_jobs_one():
    # Derived points resolve in the parent against the shared in-memory
    # cache, so a pool sweep with no disk tier still reuses every search.
    serial_blobs, pool_blobs = {}, {}
    serial = run_dse(SMALL_SPACE, jobs=1, blob_sink=serial_blobs)
    pool = run_dse(SMALL_SPACE, jobs=2, blob_sink=pool_blobs)
    for counter in ("compiles", "cache_hits", "aliased_blobs",
                    "unmappable"):
        assert pool["stats"][counter] == serial["stats"][counter], counter
    for section in ("points", "frontier"):
        assert (json.dumps(serial[section], sort_keys=True)
                == json.dumps(pool[section], sort_keys=True))
    assert serial_blobs == pool_blobs


def test_pool_sweep_dispatches_once(tmp_path, monkeypatch):
    # Every distinct search of both fabric groups goes out in one pool
    # dispatch; no derived point reaches a worker.
    dispatches = []
    original = SweepExecutor._run_pool

    def recording(self, items, *args, **kwargs):
        dispatches.append(len(items))
        return original(self, items, *args, **kwargs)

    monkeypatch.setattr(SweepExecutor, "_run_pool", recording)
    result = run_dse(SMALL_SPACE, jobs=2,
                     cache_dir=str(tmp_path / "cache"))
    assert result["stats"]["compiles"] == 6
    assert dispatches == [result["stats"]["compiles"]]


def test_unmappable_points_are_recorded_not_raised():
    space = DesignSpace(fabrics=((1, 1),), islands=((1, 1),),
                        strategies=("baseline",),
                        kernels=("fft",), vf_levels=(3,))
    result = run_dse(space)
    statuses = {row["status"] for row in result["points"]}
    assert statuses == {"unmappable"}
    assert result["frontier"] == []
    assert result["stats"]["unmappable"] == len(result["points"])


def test_result_document_shape():
    result = run_dse(DesignSpace(fabrics=((4, 4),),
                                 strategies=("baseline",),
                                 kernels=("fir",)))
    assert result["schema"] == 1
    assert result["space_hash"] == DesignSpace(
        fabrics=((4, 4),), strategies=("baseline",), kernels=("fir",)
    ).space_hash()
    row = result["points"][0]
    for field in ("index", "fabric", "island", "topology", "vf_levels",
                  "strategy", "kernel", "status", "ii", "power_mw",
                  "energy_uj", "makespan_us", "area_mm2"):
        assert field in row


def test_stats_time_both_waves():
    result = run_dse(SMALL_SPACE)
    stats = result["stats"]
    assert stats["search_wave_ms"] > 0 and stats["derived_wave_ms"] > 0
    assert stats["search_wave_ms"] + stats["derived_wave_ms"] \
        <= stats["wall_ms"]
    summary = driver.render_summary(result)
    assert (f"search wave {stats['search_wave_ms']:.0f} ms, derived wave "
            f"{stats['derived_wave_ms']:.0f} ms]") in summary


# -- sweep provenance --------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_artifacts_carry_sweep_tag_and_footprint_groups(tmp_path, jobs):
    # jobs=2 pins the pool path: the executor's worker-blob promotion
    # must not rewrite (and thereby untag) envelopes the driver
    # already stamped with sweep provenance.
    root = str(tmp_path / "cache")
    space = DesignSpace(fabrics=((4, 4),), vf_levels=(3, 4),
                        strategies=("baseline", "iced"), kernels=("fir",))
    result = run_dse(space, cache_dir=root, jobs=jobs)
    disk = DiskCache(root)
    assert len(disk) > 0
    footprint = disk.sweep_footprint()
    assert set(footprint) == {space.space_hash()}
    assert (footprint[space.space_hash()]["artifacts"] == len(disk))
    # meta() surfaces the tag for individual artifacts.
    tagged = [
        disk.meta(path.stem) for path in disk.artifact_paths()
    ]
    assert all(m.get("sweep", {}).get("space_hash") == space.space_hash()
               for m in tagged)
    points = {m["sweep"]["point"] for m in tagged}
    assert points <= {row["index"] for row in result["points"]}


def test_tag_sweep_keeps_first_producer(tmp_path):
    root = str(tmp_path / "cache")
    space = DesignSpace(fabrics=((4, 4),), strategies=("baseline",),
                        kernels=("fir",))
    run_dse(space, cache_dir=root)
    disk = DiskCache(root)
    key = disk.artifact_paths()[0].stem
    before = disk.meta(key)["sweep"]
    assert not disk.tag_sweep(key, "deadbeef0000", 99)
    assert disk.meta(key)["sweep"] == before


def test_aliased_artifacts_name_the_kernel_they_map(tmp_path):
    # Unrolled, relu maps as relu_u2: the blob aliased to the second
    # V/F depth must be filed under that name, as every compile is.
    root = str(tmp_path / "cache")
    space = DesignSpace(fabrics=((4, 4),), vf_levels=(2, 3),
                        strategies=("baseline", "iced"), kernels=("relu",),
                        unroll=2)
    result = run_dse(space, cache_dir=root)
    assert result["stats"]["aliased_blobs"] == 1
    envelopes = [json.loads(path.read_text())
                 for path in DiskCache(root).artifact_paths()]
    assert len(envelopes) == 4
    assert all(envelope["kernel"] == envelope["mapping"]["kernel"]
               == "relu_u2" for envelope in envelopes)


# -- sweep resume ------------------------------------------------------------

#: Two V/F depths: the search wave holds points 0 (the oblivious
#: search both depths share), 1 and 3 (one iced search per depth), and
#: point 2 is derived. The manifest checkpoints after each wave, so a
#: sweep killed among the derived points resumes from the search rows.
RESUME_SPACE = DesignSpace(name="resume", fabrics=((4, 4),),
                           vf_levels=(3, 4),
                           strategies=("baseline", "iced"),
                           kernels=("fir",))


def test_resume_replays_every_completed_row(tmp_path):
    manifest = tmp_path / "sweep.resume.json"
    first = run_dse(RESUME_SPACE, resume=manifest)
    assert manifest.exists()
    second = run_dse(RESUME_SPACE, resume=manifest)
    assert second["points"] == first["points"]
    assert second["frontier"] == first["frontier"]
    assert second["stats"]["resumed"] == len(first["points"])
    assert second["stats"]["compiles"] == 0
    assert second["stats"]["cache_hits"] == 0


def test_partial_manifest_compiles_only_the_rest(tmp_path):
    manifest = tmp_path / "sweep.resume.json"
    full = run_dse(RESUME_SPACE, resume=manifest)
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    kept = {index: row for index, row in doc["rows"].items()
            if int(index) % 2 == 0}
    doc["rows"] = kept
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    resumed = run_dse(RESUME_SPACE, resume=manifest)
    assert resumed["points"] == full["points"]
    assert resumed["stats"]["resumed"] == len(kept)
    assert (resumed["stats"]["compiles"]
            + resumed["stats"]["cache_hits"]) > 0
    # The checkpoint now holds the whole sweep again.
    refreshed = json.loads(manifest.read_text(encoding="utf-8"))
    assert len(refreshed["rows"]) == len(full["points"])


def test_sweep_killed_after_the_search_wave_resumes(tmp_path,
                                                    monkeypatch):
    manifest = tmp_path / "sweep.resume.json"
    full = run_dse(RESUME_SPACE)

    def killed(self, plan, executor):
        raise RuntimeError("killed before the first derived point")

    with monkeypatch.context() as patch:
        patch.setattr(driver._Sweep, "resolve", killed)
        with pytest.raises(RuntimeError, match="killed"):
            run_dse(RESUME_SPACE, resume=manifest)
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    assert sorted(int(index) for index in doc["rows"]) == [0, 1, 3]
    resumed = run_dse(RESUME_SPACE, resume=manifest)
    for section in ("points", "frontier"):
        assert (json.dumps(resumed[section], sort_keys=True)
                == json.dumps(full[section], sort_keys=True))
    assert resumed["stats"]["resumed"] == 3


def test_manifest_from_another_space_is_refused(tmp_path):
    from repro.errors import DSEError

    manifest = tmp_path / "sweep.resume.json"
    run_dse(RESUME_SPACE, resume=manifest)
    other = DesignSpace(fabrics=((4, 4),), strategies=("baseline",),
                        kernels=("mvt",))
    with pytest.raises(DSEError, match="space hash"):
        run_dse(other, resume=manifest)


def test_corrupt_manifest_is_refused(tmp_path):
    from repro.errors import DSEError

    manifest = tmp_path / "sweep.resume.json"
    manifest.write_text("not json", encoding="utf-8")
    with pytest.raises(DSEError, match="unreadable"):
        run_dse(RESUME_SPACE, resume=manifest)
    manifest.write_text(json.dumps({"schema": 99}), encoding="utf-8")
    with pytest.raises(DSEError, match="schema"):
        run_dse(RESUME_SPACE, resume=manifest)
