"""The benchmark's workloads: campaign specs generated from the seed, and one measured operation each.

Every workload is a closed loop with one caller: the benchmark process
calls ``repro.runtime.run_campaign`` with the serial executor, waits for it
to return, then takes the incremental report.  No worker pool is used, so
the numbers measure the program rather than how the OS schedules a pool on
shared cores.

* ``kernel-mix`` — the grid of ``examples/campaign_demo.json``: the oracle
  kernels dominate and most instance lookups hit the cache.
* ``multiphase-capped`` — n=120, m=80, k=4, λ=4 with the λ-capped
  first-fit oracle only: many phases per task, so per-phase upkeep
  (conflict-graph build, removals) dominates; min-degree never runs and
  every instance lookup misses the cache.
* ``resume-large`` — a store of 15,000 cheap rows whose last 2,000 rows
  were cut as a kill would cut them: one operation resumes the campaign and
  takes the incremental report, so the store layers dominate.

Operations draw fresh inputs from the seed: operation ``i`` of a compute
run with seed ``s`` uses the campaign seed ``1000·s + i``, and
``resume-large`` rotates over one populated store per set-up.  A run
therefore averages over many instance sets, which keeps one unlucky set
from moving a whole run.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List

import repro.runtime as runtime
from repro.runtime import CampaignSpec

#: The seed used when ``--seed`` is not given, and the seed of the pinned
#: specs below.
DEFAULT_SEED = 2019

#: Campaign digest of each workload's pinned spec (:meth:`Workload.pinned_spec`),
#: which every run, whatever its ``--seed``, runs and checks against this pin.
PINNED_DIGESTS = {
    "kernel-mix": "2f2e0e885f3a99bc1090f739e148c1769aadb235ddc2c254bb368b2be5895ce6",
    "multiphase-capped": "8d2625c4118d7def7446c7e39ddb8f274d14e4b5098fa72057d4a139b202ca9e",
    "resume-large": "cc661b05aa5a9d2fb546310a09eb5f111524f3240f5acc4207cf0c902d58e89e",
}

#: Rows cut from the tail of the ``resume-large`` store (the first of them
#: torn in half, as a kill mid-write leaves it).  One resume has five to
#: ten pauses of 1–70 ms (mostly collections); at 2,000 rows they stay
#: under 0.5% of its gaps, so ``task_ms.p99`` falls in the bulk, not on
#: their edge (at 500 and 1,000 rows it flipped between the two).
RESUME_CUT = 2000
#: Replicates and cut rows of the reduced ``resume-large`` copy whose
#: digest is pinned (100 rows, the last 10 cut and resumed).
PINNED_REPLICATES = 50
PINNED_CUT = 10


def operation_seed(seed: int, index: int) -> int:
    """The campaign seed of operation (or store) ``index`` of a run with seed ``seed``."""
    return 1000 * seed + index


def kernel_mix_spec(seed: int) -> CampaignSpec:
    """The demo grid: 3 families × 2 sizes × 2 ks × 3 oracles × 6 replicates = 216 tasks."""
    return CampaignSpec(
        name="perfbench-kernel-mix",
        seed=seed,
        families=("colorable", "uniform", "interval"),
        sizes=((20, 12), (30, 20)),
        ks=(2, 3),
        oracles=("greedy-first-fit", "greedy-min-degree", "capped:greedy-first-fit"),
        lams=(2.0,),
        replicates=6,
        epsilon=0.5,
    )


def multiphase_spec(seed: int) -> CampaignSpec:
    """The worst-case λ regime: 2 families at n=120, m=80, k=4, λ=4, capped first-fit: 50 tasks."""
    return CampaignSpec(
        name="perfbench-multiphase-capped",
        seed=seed,
        families=("colorable", "uniform"),
        sizes=((120, 80),),
        ks=(4,),
        oracles=("capped:greedy-first-fit",),
        lams=(4.0,),
        replicates=25,
        epsilon=0.5,
    )


def resume_spec(seed: int, replicates: int = 7_500) -> CampaignSpec:
    """Cheap tiny tasks (2 families at n=10, m=5, k=2): 15,000 rows."""
    return CampaignSpec(
        name="perfbench-resume-large",
        seed=seed,
        families=("colorable", "uniform"),
        sizes=((10, 5),),
        ks=(2,),
        oracles=("greedy-first-fit",),
        lams=(2.0,),
        replicates=replicates,
        epsilon=0.5,
    )


@dataclass
class OpResult:
    """What one measured operation did and how long each part took."""

    spec: CampaignSpec
    directory: Path
    tasks: int
    #: Tasks the operation had to execute.
    expected: int
    failed: int
    digest: str
    wall_s: float = 0.0
    run_s: float = 0.0
    resume_s: float = 0.0
    report_s: float = 0.0
    gaps_s: List[float] = field(default_factory=list)
    #: Tasks executed beyond the expected ones (the no-op resume must run none).
    extra_executed: int = 0
    #: Reference-host seconds per measured second when the operation ran.
    scale: float = 1.0


def _stamper(stamps: List[float]) -> Callable[[dict], None]:
    return lambda row: stamps.append(time.perf_counter())


def _gaps(stamps: List[float]) -> List[float]:
    return [b - a for a, b in zip(stamps, stamps[1:])]


def report_digest(spec: CampaignSpec, directory) -> str:
    """The incremental report: persisted summaries → records → digest."""
    store = runtime.open_store(directory)
    return runtime.campaign_digest(runtime.records_from_summaries(spec, store.summaries()))


def _remove(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)


def _fresh_start() -> None:
    """Start every operation alike: empty instance cache, no garbage pending."""
    runtime.INSTANCE_CACHE.clear()
    gc.collect()


class Workload:
    """A named workload: set-up, then measured operations under ``workdir``."""

    name = ""
    #: Rows the pinned run cuts from its store and resumes (0: a fresh campaign).
    pinned_cut = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: When set, the timed part of each operation runs under its root span.
        self.ledger = None

    @staticmethod
    def make_spec(seed: int) -> CampaignSpec:
        raise NotImplementedError

    def spec_for(self, index: int) -> CampaignSpec:
        """The campaign spec operation ``index`` runs."""
        raise NotImplementedError

    def measured(self):
        """The timed part of an operation: a root span when a ledger records."""
        return self.ledger.root() if self.ledger is not None else contextlib.nullcontext()

    def pinned_spec(self) -> CampaignSpec:
        """The small fixed spec whose digest is pinned in :data:`PINNED_DIGESTS`."""
        return self.make_spec(operation_seed(DEFAULT_SEED, 0))

    def run_pinned(self, directory: Path) -> OpResult:
        """Run the pinned spec, untimed: the pin gate of every run, whatever its seed."""
        spec = self.pinned_spec()
        _remove(directory)
        if self.pinned_cut:
            populate(directory, spec, self.pinned_cut)
        stats = runtime.run_campaign(spec, directory)
        return OpResult(
            spec=spec,
            directory=directory,
            tasks=stats.executed,
            expected=self.pinned_cut or spec.num_tasks(),
            failed=stats.failed,
            digest=report_digest(spec, directory),
        )

    def setup(self) -> None:
        """Generate and expand the first spec, and warm the code paths on a one-replicate copy."""
        spec = self.spec_for(0)
        spec.task_payloads()
        warm = self.workdir / "warm-up"
        _remove(warm)
        warm_spec = replace(spec, replicates=1)
        runtime.run_campaign(warm_spec, warm)
        report_digest(warm_spec, warm)
        _remove(warm)

    def operation(self, index: int) -> OpResult:
        raise NotImplementedError


class ComputeWorkload(Workload):
    """A fresh campaign on an empty store, a no-op resume of it, and the report."""

    def spec_for(self, index: int) -> CampaignSpec:
        return self.make_spec(operation_seed(self.seed, index))

    def operation(self, index: int) -> OpResult:
        spec = self.spec_for(index)
        directory = self.workdir / f"op-{index}"
        _remove(directory)
        _fresh_start()
        stamps: List[float] = []
        with self.measured():
            start = time.perf_counter()
            stats = runtime.run_campaign(spec, directory, on_row=_stamper(stamps))
            ran = time.perf_counter()
            again = runtime.run_campaign(spec, directory)
            resumed = time.perf_counter()
            digest = report_digest(spec, directory)
            end = time.perf_counter()
        return OpResult(
            spec=spec,
            directory=directory,
            tasks=stats.executed,
            expected=spec.num_tasks(),
            failed=stats.failed,
            digest=digest,
            wall_s=end - start,
            run_s=ran - start,
            resume_s=resumed - ran,
            report_s=end - resumed,
            gaps_s=_gaps(stamps),
            extra_executed=again.executed,
        )


class KernelMix(ComputeWorkload):
    name = "kernel-mix"
    make_spec = staticmethod(kernel_mix_spec)


class MultiphaseCapped(ComputeWorkload):
    name = "multiphase-capped"
    make_spec = staticmethod(multiphase_spec)


class ResumeLarge(Workload):
    """Resume a killed 15,000-row store: plan, run the cut rows, append, report.

    Every set-up populates one more store, store ``j`` at campaign seed
    ``1000·s + j``, and operation ``i`` restores store ``i`` modulo the
    number of stores — so a run resumes as many distinct task sets as it
    has set-ups.
    """

    name = "resume-large"
    make_spec = staticmethod(resume_spec)
    pinned_cut = PINNED_CUT

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.stores: List[Path] = []

    @property
    def work(self) -> Path:
        return self.workdir / "work"

    def spec_for(self, index: int) -> CampaignSpec:
        return self.make_spec(operation_seed(self.seed, index % max(1, len(self.stores))))

    def pinned_spec(self) -> CampaignSpec:
        """A reduced copy: 100 rows at the default seed, cut and resumed like the big store."""
        return resume_spec(operation_seed(DEFAULT_SEED, 0), PINNED_REPLICATES)

    def setup(self) -> None:
        """Also populate the next store, in a child process so its memory stays out of the parent's peak."""
        super().setup()
        store = self.workdir / f"pristine-{len(self.stores)}"
        _remove(store)
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--populate", str(store),
             "--seed", str(operation_seed(self.seed, len(self.stores)))],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        self.stores.append(store)

    def operation(self, index: int) -> OpResult:
        spec = self.spec_for(index)
        _remove(self.work)
        shutil.copytree(self.stores[index % len(self.stores)], self.work)
        _fresh_start()
        stamps: List[float] = []
        with self.measured():
            start = time.perf_counter()
            stats = runtime.run_campaign(spec, self.work, on_row=_stamper(stamps))
            ran = time.perf_counter()
            digest = report_digest(spec, self.work)
            end = time.perf_counter()
        return OpResult(
            spec=spec,
            directory=self.work,
            tasks=stats.executed,
            expected=RESUME_CUT,
            failed=stats.failed,
            digest=digest,
            wall_s=end - start,
            run_s=ran - start,
            resume_s=ran - start,
            report_s=end - ran,
            gaps_s=_gaps(stamps),
        )


def populate(directory: Path, spec: CampaignSpec, cut: int = RESUME_CUT) -> None:
    """Run the whole campaign ``spec``, cut its last rows as a kill would, and take a status.

    The last ``cut`` rows are removed, the first of them torn in half; a
    ``summaries()`` call then persists the sidecar, as a status command run
    after the kill does.
    """
    runtime.run_campaign(spec, directory)
    store = runtime.open_store(directory)
    data = store.results_path.read_bytes()
    end_of_kept = len(data) - 1
    for _ in range(cut):
        end_of_kept = data.rfind(b"\n", 0, end_of_kept)
    torn_start = end_of_kept + 1
    torn_end = data.index(b"\n", torn_start)
    with open(store.results_path, "r+b") as handle:
        handle.truncate(torn_start + (torn_end - torn_start) // 2)
    store.summaries()


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (KernelMix, MultiphaseCapped, ResumeLarge)
}
