"""Campaign-level differential fuzzing: sharding, warm pools, kill+resume.

The campaign analogue of ``tests/fuzz/corpus.py``: every campaign spec is
a deterministic function of one integer seed (:func:`make_campaign_spec`),
the seed appears in the pytest id and every assertion message, and a
failing case is reproduced by ``make_campaign_spec(<seed>)``.

The serial executor shares each ``G_k`` build between the tasks of an
instance and ``k``, so the reference below it is every task run alone:
:func:`assert_serial_equals_fresh_tasks` checks the serial rows against
``execute_task`` on an emptied instance cache, task by task.

The central helper is :func:`assert_shard_exact`: executing a campaign as
``n`` sha256-stable shards and fusing the shard stores with
:func:`merge_shards` must reproduce the serial reference *exactly* —
pairwise-disjoint covering shards, identical per-task row content (minus
timing and cache flags), identical aggregate
:class:`~repro.analysis.records.ExperimentRecord`\\ s, and a byte-identical
``campaign_digest``.  The seeded test sweep layers the other execution
modes on top: a persistent two-worker :class:`WorkerPool` shared by all
fuzzed campaigns (warm starts), occasional fresh pools with other worker
counts, a kill+resume at a seeded cut point of the JSONL store, a traced
run, the incremental-aggregate report path, and compaction after a
planted duplicate — every variant must land on the byte-exact serial
reference digest.

Collected by pytest via the ``python_files`` entry in ``pytest.ini``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.runtime import (
    INSTANCE_CACHE,
    CampaignSpec,
    CampaignStore,
    WorkerPool,
    campaign_digest,
    campaign_records,
    execute_task,
    merge_shards,
    open_store,
    records_from_summaries,
    run_campaign,
    task_shard_index,
)

from tests.conftest import completed_of, shard_of
from tests.runtime.test_tasks import NONDETERMINISTIC_ROW_FIELDS

#: Seeded specs the differential sweep runs (acceptance floor: 50).
FUZZ_SPEC_COUNT = 50

#: Shard counts exercised by the partition property tests.
SHARD_COUNTS = (1, 2, 3, 7)

#: Families/oracles the fuzzed campaigns draw from — all coordinates kept
#: feasible (k ≤ 2, n ≥ 2k + 2), so every fuzzed task completes.
_FAMILIES = ("colorable", "uniform", "interval", "almost-uniform")
_ORACLES = ("greedy-first-fit", "capped:greedy-first-fit", "greedy-min-degree")


def make_campaign_spec(seed: int) -> CampaignSpec:
    """Deterministically derive one small, fully-feasible campaign from ``seed``."""
    rng = random.Random(seed)
    families = tuple(rng.sample(_FAMILIES, rng.randint(1, 2)))
    sizes = tuple(
        (rng.randint(6, 12), rng.randint(3, 6)) for _ in range(rng.randint(1, 2))
    )
    return CampaignSpec(
        name=f"campaign-fuzz-{seed}",
        seed=rng.randrange(2**32),
        families=families,
        sizes=sizes,
        ks=(rng.randint(1, 2),),
        oracles=tuple(rng.sample(_ORACLES, rng.randint(1, 2))),
        lams=rng.choice(((2.0,), (2.0, 3.0))),
        replicates=rng.randint(1, 2),
    )


def spec_corpus(count: int, base_seed: int = 0):
    """Yield ``count`` campaign specs with seeds ``base_seed .. base_seed+count-1``."""
    return [make_campaign_spec(base_seed + i) for i in range(count)]


def _digest_of(spec: CampaignSpec, directory) -> str:
    return campaign_digest(campaign_records(spec, open_store(directory).rows()))


def _incremental_digest_of(spec: CampaignSpec, directory) -> str:
    """Digest via the persisted partial aggregates, not the full row log."""
    return campaign_digest(
        records_from_summaries(spec, open_store(directory).summaries())
    )


def _deterministic_rows(store: CampaignStore):
    """Latest row per key with the order/timing-dependent fields stripped."""
    return {
        key: {k: v for k, v in row.items() if k not in NONDETERMINISTIC_ROW_FIELDS}
        for key, row in store.latest_rows().items()
    }


def assert_serial_equals_fresh_tasks(spec: CampaignSpec, serial_dir, ctx: str) -> None:
    """Assert every serial row equals its task run alone, on an emptied instance cache.

    With the cache emptied before each payload, no task shares an instance
    or a ``G_k`` build with another, so this is the per-task reference the
    serial executor's sharing must reproduce (timing and cache flags aside).
    """
    serial = _deterministic_rows(CampaignStore(serial_dir))
    try:
        for payload in spec.task_payloads():
            INSTANCE_CACHE.clear()
            fresh = {
                k: v for k, v in execute_task(payload).items() if k not in NONDETERMINISTIC_ROW_FIELDS
            }
            assert serial[payload["task_key"]] == fresh, (
                f"{ctx} serial row of {payload['task_key']} differs from the task run alone"
            )
    finally:
        INSTANCE_CACHE.clear()


def assert_shard_exact(spec: CampaignSpec, n_shards: int, base_dir) -> str:
    """Assert sharded-merged execution equals the serial reference, exactly.

    Runs the serial reference into ``base_dir/serial``, every shard into
    ``base_dir/shard<i>``, fuses the shards into ``base_dir/merged``, and
    asserts (1) the shards are a disjoint cover of the expansion, (2) the
    merged row set equals the serial rows key-for-key and field-for-field
    (minus timing/cache-flag fields), (3) the aggregate records and the
    ``campaign_digest`` are byte-identical.  Returns the reference digest
    so callers can pile further execution modes on top.
    """
    ctx = f"[campaign-fuzz spec={spec.name} n_shards={n_shards}]"
    base = Path(base_dir)
    shards = [shard_of(spec, index, n_shards) for index in range(n_shards)]
    shard_keys = [task.task_key for shard in shards for task in shard]
    assert len(shard_keys) == len(set(shard_keys)), f"{ctx} shards overlap"
    assert sorted(shard_keys) == sorted(t.task_key for t in spec.expand()), (
        f"{ctx} shard union is not the full task set"
    )

    reference = run_campaign(spec, base / "serial", workers=0)
    assert reference.failed == 0, f"{ctx} serial reference had failing tasks"
    serial_store = CampaignStore(base / "serial")
    serial_records = campaign_records(spec, serial_store.rows())
    serial_digest = campaign_digest(serial_records)

    shard_dirs = []
    for index in range(n_shards):
        stats = run_campaign(spec, base / f"shard{index}", shard=(index, n_shards))
        assert stats.executed == len(shards[index]), (
            f"{ctx} shard {index} executed {stats.executed} tasks, "
            f"expected {len(shards[index])}"
        )
        assert stats.failed == 0, f"{ctx} shard {index} had failing tasks"
        shard_dirs.append(base / f"shard{index}")

    merged = merge_shards(base / "merged", shard_dirs)
    assert _deterministic_rows(merged) == _deterministic_rows(serial_store), (
        f"{ctx} merged shard rows differ from the serial reference rows"
    )
    merged_records = campaign_records(spec, merged.rows())
    assert [r.to_dict() for r in merged_records] == [
        r.to_dict() for r in serial_records
    ], f"{ctx} merged aggregate records differ from the serial reference"
    merged_digest = campaign_digest(merged_records)
    assert merged_digest == serial_digest, (
        f"{ctx} merged digest {merged_digest[:12]} != serial {serial_digest[:12]}"
    )
    return serial_digest


@pytest.fixture(scope="module")
def shared_pool():
    """One persistent 2-worker pool shared by the whole fuzz sweep.

    This is the warm-start amortization feature under test: all 50+
    campaigns dispatch through the same worker processes.
    """
    with WorkerPool(2) as pool:
        yield pool


@pytest.mark.parametrize("seed", range(FUZZ_SPEC_COUNT))
def test_campaign_execution_modes_match_serial_reference(seed, tmp_path, shared_pool):
    """Sharded-merged, warm-pool and kill+resume all reproduce the serial digest."""
    spec = make_campaign_spec(seed)
    rng = random.Random(seed ^ 0x5EED)
    n_shards = rng.choice((2, 3, 5))
    ctx = f"[campaign-fuzz seed={seed} spec={spec.name} tasks={spec.num_tasks()}]"

    reference = assert_shard_exact(spec, n_shards, tmp_path)
    assert_serial_equals_fresh_tasks(spec, tmp_path / "serial", ctx)

    # Warm persistent pool (shared across every fuzzed campaign).
    expect_warm = shared_pool.started
    pool_stats = run_campaign(spec, tmp_path / "pool", pool=shared_pool)
    assert pool_stats.pool_warm == expect_warm, f"{ctx} pool warmth misreported"
    assert pool_stats.failed == 0, f"{ctx} warm-pool run had failing tasks"
    assert _digest_of(spec, tmp_path / "pool") == reference, (
        f"{ctx} warm-pool digest diverged from the serial reference"
    )

    # Every tenth seed also runs a fresh pool with another worker count.
    if seed % 10 == 5:
        with WorkerPool(rng.choice((2, 3))) as fresh_pool:
            run_campaign(spec, tmp_path / "fresh-pool", pool=fresh_pool)
        assert _digest_of(spec, tmp_path / "fresh-pool") == reference, (
            f"{ctx} fresh-pool digest diverged from the serial reference"
        )

    # Kill+resume: truncate the serial JSONL at a seeded cut point (plus a
    # half-written tail line) and let the serial executor finish the rest.
    serial_results = tmp_path / "serial" / CampaignStore(tmp_path / "serial").results_path.name
    lines = serial_results.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = rng.randrange(0, len(lines))
    killed = tmp_path / "killed"
    killed.mkdir()
    (killed / serial_results.name).write_text(
        "".join(lines[:cut]) + '{"task_key": "killed-mid-', encoding="utf-8"
    )
    killed_store = CampaignStore(killed)
    survivors = len(completed_of(killed_store.summaries()))
    resumed = run_campaign(spec, killed, workers=0)
    assert resumed.skipped == survivors, (
        f"{ctx} resume after cut={cut} skipped {resumed.skipped}, "
        f"expected {survivors} surviving rows"
    )
    assert resumed.executed == spec.num_tasks() - survivors, (
        f"{ctx} resume after cut={cut} executed {resumed.executed} tasks"
    )
    assert _digest_of(spec, killed) == reference, (
        f"{ctx} kill+resume (cut={cut}) digest diverged from the serial reference"
    )

    # Tracing is observational only: a traced serial run is
    # digest-identical to the untraced reference and leaves a
    # well-formed sidecar plus a metrics snapshot.
    traced = tmp_path / "traced"
    traced_stats = run_campaign(spec, traced, workers=0, trace=True)
    assert traced_stats.failed == 0, f"{ctx} traced run had failing tasks"
    assert _deterministic_rows(CampaignStore(traced)) == _deterministic_rows(
        CampaignStore(tmp_path / "serial")
    ), f"{ctx} traced rows differ from the untraced serial rows"
    assert _digest_of(spec, traced) == reference, (
        f"{ctx} traced digest diverged from the serial reference"
    )
    valid, trace_skipped = obs.validate_trace(traced / obs.TRACE_FILENAME)
    assert valid > 0 and trace_skipped == 0, (
        f"{ctx} traced sidecar malformed: valid={valid} skipped={trace_skipped}"
    )
    assert (traced / obs.METRICS_FILENAME).exists(), f"{ctx} metrics.json missing"

    # Incremental aggregation: the persisted partial aggregates feed the
    # same record builder as the full-row scan — digest-identical.
    assert _incremental_digest_of(spec, tmp_path / "serial") == reference, (
        f"{ctx} incremental-aggregate digest diverged from the full-row reference"
    )

    # Compaction is digest-preserving, even with a superseded duplicate
    # row planted on top of the resumed store.
    store = open_store(killed)
    store.append(store.rows()[0])
    stats = store.compact()
    assert stats.rows_dropped >= 1, f"{ctx} compaction dropped nothing"
    assert _digest_of(spec, killed) == reference, (
        f"{ctx} compacted digest diverged from the reference"
    )
    assert _incremental_digest_of(spec, killed) == reference, (
        f"{ctx} compacted incremental digest diverged"
    )


def test_interval_at_two_ks_matches_fresh_tasks(tmp_path, shared_pool):
    """One interval instance serves k = 2 and k = 3, but each k gets its own build.

    Every fuzzed spec draws a single k, so this named case covers the
    instances the cache shares across k.
    """
    spec = CampaignSpec(
        name="campaign-fuzz-interval-two-ks",
        seed=20190,
        families=("interval",),
        sizes=((10, 5), (12, 6)),
        ks=(2, 3),
        oracles=("greedy-first-fit", "capped:greedy-first-fit"),
        lams=(2.0,),
        replicates=2,
    )
    ctx = f"[campaign-fuzz spec={spec.name} tasks={spec.num_tasks()}]"
    reference = assert_shard_exact(spec, 2, tmp_path)
    assert_serial_equals_fresh_tasks(spec, tmp_path / "serial", ctx)
    run_campaign(spec, tmp_path / "pool", pool=shared_pool)
    assert _digest_of(spec, tmp_path / "pool") == reference, (
        f"{ctx} warm-pool digest diverged from the serial reference"
    )


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", range(FUZZ_SPEC_COUNT))
def test_shard_partition_is_disjoint_covering_and_ordered(seed, n_shards):
    """The task_shard_index partition is disjoint, covering and order-preserving."""
    spec = make_campaign_spec(seed)
    ctx = f"[campaign-fuzz seed={seed} n_shards={n_shards}]"
    expansion = [task.task_key for task in spec.expand()]
    position = {key: i for i, key in enumerate(expansion)}
    seen = []
    for index in range(n_shards):
        shard = [task.task_key for task in shard_of(spec, index, n_shards)]
        positions = [position[key] for key in shard]
        assert positions == sorted(positions), f"{ctx} shard {index} reorders tasks"
        seen.extend(shard)
    assert len(seen) == len(set(seen)), f"{ctx} shards overlap"
    assert sorted(seen) == sorted(expansion), f"{ctx} shard union != expansion"


def test_shard_assignment_is_stable_across_processes():
    """sha256 partition: immune to PYTHONHASHSEED (no hash() randomization)."""
    spec = make_campaign_spec(0)
    expected = {t.task_key: task_shard_index(t.task_key, 7) for t in spec.expand()}
    repo_root = Path(__file__).resolve().parents[2]
    script = (
        "import json; "
        "from tests.runtime.campaign_fuzz import make_campaign_spec; "
        "from repro.runtime import task_shard_index; "
        "spec = make_campaign_spec(0); "
        "print(json.dumps({t.task_key: task_shard_index(t.task_key, 7) "
        "for t in spec.expand()}))"
    )
    for hash_seed in ("0", "1", "424242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src"), str(repo_root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert json.loads(result.stdout) == expected, (
            f"shard assignment drifted under PYTHONHASHSEED={hash_seed}"
        )
