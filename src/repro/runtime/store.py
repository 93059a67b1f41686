"""Result store for campaign artifacts: one append-only JSONL log.

A campaign directory always holds ``spec.json`` — the
:class:`~repro.runtime.spec.CampaignSpec` that owns the directory
(written on first use; later runs must present a spec with the same
content digest, so two campaigns can never interleave rows) — plus
``results.jsonl``, one JSON object per line, appended and flushed as each
task completes.  The append-and-flush discipline is what makes campaigns
resumable: if the process is killed mid-run, every fully written line
survives, at most the final line is truncated, and
:meth:`CampaignStore.rows` simply skips lines that do not parse.  With
``durability="fsync"`` every append is also fsynced, so even a *machine*
crash loses at most one row.

Three scale features sit on top of the log:

* **Incremental aggregation** (:meth:`~CampaignStore.summaries`): the
  per-task summaries of :mod:`repro.runtime.summary` are kept in an
  append-only sidecar, ``aggregates.json``, one delta line per write, each
  covering the log up to a byte cursor.  A store that has read its
  summaries folds the summaries of its own appends and
  :meth:`~CampaignStore.checkpoint` persists them, so resume, status and
  report parse only rows some other writer appended — O(new rows), not
  O(all rows) — and feed the exact same record builder as the full-row
  reference path.
* **Compaction** (:meth:`~CampaignStore.compact`, ``repro campaign
  compact``): drops superseded and duplicate rows, keeping exactly the
  latest row per task key — digest-identical by construction, crash-safe
  via write-to-temp + fsync + atomic rename.
* **Merging** (:func:`merge_shards`): fuses shard directories into one
  store with batched, durability-honoring writes, folding the shards'
  summaries as it appends their rows instead of re-scanning the merged
  log.

A resumed run reads :meth:`~CampaignStore.summaries` and executes only the
tasks whose latest entry is not ``"done"`` — failed and timed-out rows are
retried up to the retry policy's attempt budget
(:meth:`~CampaignStore.retry_exhausted_keys` names the rows that used it
up), and a re-completed key supersedes older rows (last write wins).  The
query views (:meth:`~CampaignStore.completed_keys`,
:meth:`~CampaignStore.status_counts`, …) answer from the same summaries.
"""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.exceptions import CampaignError
from repro.runtime.spec import DURABILITY_LEVELS, CampaignSpec
from repro.runtime.summary import SUMMARY_VERSION, summarize_row

# Store metrics.  "Flush" counts write barriers, one per write call;
# fsyncs count only under durability="fsync".  Compaction counters mirror
# CompactionStats so a scraper sees reclamation without parsing CLI output.
_M_ROWS_APPENDED = obs.counter(
    "repro_store_rows_appended_total",
    "Result rows appended to campaign stores.",
)
_M_FLUSHES = obs.counter(
    "repro_store_flushes_total",
    "Write barriers issued (flushed JSONL writes).",
)
_M_FSYNCS = obs.counter(
    "repro_store_fsyncs_total",
    "Durable syncs issued under durability=fsync.",
)
_M_COMPACTIONS = obs.counter(
    "repro_store_compactions_total",
    "Store compactions performed.",
)
_M_COMPACTION_ROWS_DROPPED = obs.counter(
    "repro_store_compaction_rows_dropped_total",
    "Superseded/duplicate rows dropped by compactions.",
)

SPEC_FILENAME = "spec.json"
RESULTS_FILENAME = "results.jsonl"
AGGREGATES_FILENAME = "aggregates.json"

#: The results file of the removed SQLite backend; ``open_store`` refuses it.
LEGACY_SQLITE_FILENAME = "results.sqlite"

#: Terminal row statuses a retry policy re-executes (everything but "done").
RETRYABLE_STATUSES = ("failed", "timeout")

#: Decodes the sidecar's delta lines in place, without slicing them out.
_DECODER = json.JSONDecoder()


# ----------------------------------------------------------------------
# query helpers over a latest-per-key mapping
# ----------------------------------------------------------------------
# These accept either a latest-rows mapping or a summaries mapping (both
# carry "status" / "attempt" / "instance_cache_hit"), so a CLI command
# can read the store once and derive every view from that single read.

def completed_of(latest: Mapping[str, Mapping[str, Any]]) -> Set[str]:
    """Task keys whose latest entry is ``"done"`` — the resume skip-set."""
    return {key for key, entry in latest.items() if entry["status"] == "done"}


def status_counts_of(latest: Mapping[str, Mapping[str, Any]]) -> Dict[str, int]:
    """Count latest entries per status (``done`` / ``failed`` / ``timeout`` / …)."""
    counts: Dict[str, int] = {}
    for entry in latest.values():
        counts[entry["status"]] = counts.get(entry["status"], 0) + 1
    return counts


def retry_exhausted_of(
    latest: Mapping[str, Mapping[str, Any]], max_attempts: int
) -> Set[str]:
    """Task keys whose latest entry burned the whole retry budget."""
    if max_attempts < 1:
        raise CampaignError(f"max_attempts must be >= 1, got {max_attempts}")
    return {
        key
        for key, entry in latest.items()
        if entry["status"] in RETRYABLE_STATUSES
        and entry.get("attempt", 1) >= max_attempts
    }


def cache_counts_of(latest: Mapping[str, Mapping[str, Any]]) -> Dict[str, int]:
    """Instance-cache hits/misses over the latest entries.

    Entries without the flag (failed rows, stores written before the
    cache existed) count toward neither bucket.
    """
    counts = {"cache_hits": 0, "cache_misses": 0}
    for entry in latest.values():
        if "instance_cache_hit" in entry:
            counts["cache_hits" if entry["instance_cache_hit"] else "cache_misses"] += 1
    return counts


def _parse_row(raw) -> Optional[Dict[str, Any]]:
    """Parse one JSONL line (str or bytes) into a row, or None when malformed.

    Blank lines, the truncated tail of a killed run, and objects without
    a ``task_key``/``status`` all return None — resuming re-executes
    those tasks, which is always safe because tasks are pure.
    """
    raw = raw.strip()
    if not raw:
        return None
    try:
        row = json.loads(raw)
    except ValueError:
        return None
    if isinstance(row, dict) and "task_key" in row and "status" in row:
        return row
    return None


@dataclass(frozen=True)
class CompactionStats:
    """What one :meth:`compact` call did: row and byte counts before/after."""

    rows_before: int
    rows_after: int
    bytes_before: int
    bytes_after: int

    @property
    def rows_dropped(self) -> int:
        return self.rows_before - self.rows_after


class CampaignStore:
    """Append-only JSONL store rooted at one campaign directory.

    ``durability`` selects the write discipline of :meth:`append`:
    ``"flush"`` (default) flushes each row so a process kill loses at
    most one line; ``"fsync"`` additionally fsyncs so a machine crash
    loses at most one line.

    The store holds one append handle on ``results.jsonl`` from its first
    write until :meth:`close`, so a run opens the log once, not once per
    row; a write after :meth:`close` opens it again.  A store dropped
    without :meth:`close` closes the handle when it is collected.
    """

    def __init__(self, directory, durability: str = "flush") -> None:
        if durability not in DURABILITY_LEVELS:
            raise CampaignError(
                f"durability must be one of {DURABILITY_LEVELS}, got {durability!r}"
            )
        self.directory = Path(directory)
        self.spec_path = self.directory / SPEC_FILENAME
        self.results_path = self.directory / RESULTS_FILENAME
        self.aggregates_path = self.directory / AGGREGATES_FILENAME
        self.durability = durability
        # The append handle, the (st_ino, st_dev) of the file it writes,
        # and the finalizer that closes it; all None while no handle is open.
        self._handle: Optional[BinaryIO] = None
        self._handle_id: Optional[Tuple[int, int]] = None
        self._closer: Optional[weakref.finalize] = None
        # Byte size of results.jsonl after our last write, or None when we
        # have not looked yet.  While the size matches, the file still ends
        # with the newline we wrote, so append can skip the tail check; any
        # external change (kill truncation, test tampering) shows up as a
        # size mismatch and re-triggers it.
        self._known_size: Optional[int] = None
        # Fold state, set by summaries(): the byte offset of results.jsonl
        # that the sidecar plus _unsaved cover (None until this store reads
        # its summaries, and again once another writer moves the log or the
        # sidecar under it), the sidecar's length as this store last read or
        # wrote it, and the summaries of the rows it appended since.
        self._covered: Optional[int] = None
        self._sidecar_length = 0
        self._unsaved: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # spec identity
    # ------------------------------------------------------------------
    def initialize(self, spec: CampaignSpec) -> None:
        """Create the directory and bind it to ``spec`` (or verify the binding).

        First use writes ``spec.json``; later use re-reads it and raises
        :class:`CampaignError` when the content digest differs, so a
        directory can never accumulate rows from two different campaigns.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.spec_path.exists():
            existing = self.load_spec()
            if existing.digest() != spec.digest():
                raise CampaignError(
                    f"campaign directory {self.directory} already belongs to campaign "
                    f"{existing.name!r} (spec digest {existing.digest()[:12]}); refusing "
                    f"to mix in results for {spec.name!r} ({spec.digest()[:12]})"
                )
            return
        self.spec_path.write_text(spec.to_json() + "\n", encoding="utf-8")

    def load_spec(self) -> CampaignSpec:
        """Read the spec bound to this directory."""
        if not self.spec_path.exists():
            raise CampaignError(
                f"{self.spec_path} does not exist; is {self.directory} a campaign directory?"
            )
        return CampaignSpec.from_json(self.spec_path.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    @staticmethod
    def _check_row(row: Dict[str, Any]) -> None:
        if "task_key" not in row or "status" not in row:
            raise CampaignError(
                f"result rows need 'task_key' and 'status', got {sorted(row)!r}"
            )

    def _needs_tail_newline(self) -> bool:
        """True when a kill left the file without a trailing newline.

        The next write must terminate that truncated line first, so a new
        row is not glued onto the partial one and lost with it.
        """
        if not self.results_path.exists():
            return False
        with open(self.results_path, "rb") as handle:
            handle.seek(0, 2)
            if handle.tell() == 0:
                return False
            handle.seek(-1, 2)
            return handle.read(1) != b"\n"

    def _torn_tail(self, size: int) -> Optional[bytes]:
        """The unterminated bytes between the covered offset and ``size``.

        None when the log no longer extends the covered offset by at most
        one torn line: another writer appended to it or cut it.
        """
        offset = self._covered
        if size < offset:
            return None
        with open(self.results_path, "rb") as handle:
            if offset:
                handle.seek(offset - 1)
                if handle.read(1) != b"\n":
                    return None
            tail = handle.read()
        return None if b"\n" in tail else tail

    def _append_handle(self) -> BinaryIO:
        """The held append handle, opened again unless ``results_path`` still names its file.

        Another store's :meth:`compact` renames a new log into place; the
        old file's handle would write rows nobody reads again.
        """
        if self._handle is not None:
            try:
                stat = os.stat(self.results_path)
                moved = (stat.st_ino, stat.st_dev) != self._handle_id
            except FileNotFoundError:
                moved = True
            if not moved:
                return self._handle
            self.close()
        self.directory.mkdir(parents=True, exist_ok=True)
        handle = open(self.results_path, "ab")
        stat = os.fstat(handle.fileno())
        self._handle, self._handle_id = handle, (stat.st_ino, stat.st_dev)
        self._closer = weakref.finalize(self, handle.close)
        return handle

    def close(self) -> None:
        """Close the append handle, if one is open; a later write opens it again."""
        closer = self._closer
        self._closer = self._handle = self._handle_id = None
        if closer is not None:
            closer()

    def _write_lines(self, rows: List[Dict[str, Any]]) -> None:
        """Append ``rows``, folding their summaries while the log is as this store left it.

        One ``stat`` of ``results_path`` and one ``fstat`` of the held
        handle per append: while the file size still matches what we last
        wrote, our own trailing newline is necessarily intact, and any
        external change (kill truncation, test tampering) shows up as a
        size mismatch that re-triggers the tail check.  A folding store
        also folds the torn tail this write terminates, if that row parsed.
        A failed write closes the handle, so no half-written buffer
        outlives it.
        """
        payload = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode("utf-8")
        handle = self._append_handle()
        size = os.fstat(handle.fileno()).st_size
        torn: Optional[bytes] = b""
        if self._covered is not None and size != self._covered:
            torn = self._torn_tail(size)
            if torn is None:
                self._covered, self._unsaved = None, {}
        needs_newline = size != self._known_size and self._needs_tail_newline()
        try:
            if needs_newline:
                handle.write(b"\n")
            handle.write(payload)
            handle.flush()
            if self.durability == "fsync":
                os.fsync(handle.fileno())
                _M_FSYNCS.inc()
            self._known_size = handle.tell()
        except BaseException:
            self.close()
            raise
        _M_ROWS_APPENDED.inc(len(rows))
        _M_FLUSHES.inc()
        if self._covered is not None:
            tail_row = _parse_row(torn) if torn else None
            for row in rows if tail_row is None else [tail_row, *rows]:
                self._unsaved[row["task_key"]] = summarize_row(row)
            self._covered = self._known_size

    def append(self, row: Dict[str, Any]) -> None:
        """Append one result row, flushed so a kill loses at most this line.

        Under ``durability="fsync"`` the row is also fsynced to disk, so
        at most this line is lost even if the whole machine dies before
        the page cache is written back.
        """
        self._check_row(row)
        self._write_lines([row])

    def append_many(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Append a batch of rows through one handle: one flush, one fsync.

        Same durability contract as :meth:`append`, amortized — the whole
        batch is written, flushed, and (under ``"fsync"``) fsynced once.
        """
        rows = list(rows)
        for row in rows:
            self._check_row(row)
        if rows:
            self._write_lines(rows)

    def iter_rows(self) -> Iterator[Dict[str, Any]]:
        """Yield every well-formed result row, in file order.

        Lines that fail to parse (the truncated tail of a killed run) and
        lines without a ``task_key`` are skipped — resuming re-executes
        those tasks, which is always safe because tasks are pure.  This
        parses every row; resume, status and report read
        :meth:`summaries` instead, which parses only the rows after the
        sidecar's cursor.
        """
        if not self.results_path.exists():
            return
        with open(self.results_path, "r", encoding="utf-8") as handle:
            for line in handle:
                row = _parse_row(line)
                if row is not None:
                    yield row

    def rows(self) -> List[Dict[str, Any]]:
        """Read every well-formed result row, in file order (see :meth:`iter_rows`)."""
        return list(self.iter_rows())

    # ------------------------------------------------------------------
    # query views over the latest entry per key
    # ------------------------------------------------------------------
    def latest_rows(self) -> Dict[str, Dict[str, Any]]:
        """Map each task key to its most recent row (a retry supersedes a failure).

        Parses the whole log; the views below answer from
        :meth:`summaries` instead.
        """
        latest: Dict[str, Dict[str, Any]] = {}
        for row in self.rows():
            latest[row["task_key"]] = row
        return latest

    def completed_keys(self) -> Set[str]:
        """Task keys whose latest row is ``"done"`` — the resume skip-set."""
        return completed_of(self.summaries())

    def status_counts(self) -> Dict[str, int]:
        """Count latest rows per status (``done`` / ``failed`` / ``timeout`` / …)."""
        return status_counts_of(self.summaries())

    def retry_exhausted_keys(self, max_attempts: int) -> Set[str]:
        """Task keys whose latest row burned the whole retry budget.

        A key qualifies when its latest row is a retryable failure
        (``failed`` or ``timeout``) whose ``attempt`` counter — the
        number of consecutive executions that died with the *same* error
        signature — has reached ``max_attempts``.  The scheduler skips
        these on resume (re-running them would deterministically fail the
        same way again) and ``repro campaign status`` warns about them.
        """
        return retry_exhausted_of(self.summaries(), max_attempts)

    def cache_counts(self) -> Dict[str, int]:
        """Instance-cache hits/misses over the latest rows (status reporting)."""
        return cache_counts_of(self.summaries())

    # ------------------------------------------------------------------
    # incremental aggregation
    # ------------------------------------------------------------------
    def _results_size(self) -> int:
        try:
            return os.path.getsize(self.results_path)
        except OSError:
            return 0

    def _load_sidecar(self) -> Tuple[Dict[str, Dict[str, Any]], int, int, bool]:
        """Apply the sidecar's deltas in order: ``(summaries, cursor, length, clean)``.

        Deltas apply up to the first line that is unterminated, does not
        parse, has another version or moves the cursor back; ``length``
        counts the bytes before it and ``clean`` says whether that is the
        whole file.  The file is held as one text copy, decoded in place
        (deltas are ASCII, so character offsets are byte offsets).
        """
        try:
            with open(self.aggregates_path, encoding="ascii", newline="") as handle:
                text = handle.read()
        except FileNotFoundError:
            return {}, 0, 0, True
        except (OSError, ValueError):
            return {}, 0, 0, False
        summaries: Dict[str, Dict[str, Any]] = {}
        cursor = length = 0
        while length < len(text):
            try:
                delta, end = _DECODER.raw_decode(text, length)
            except ValueError:
                break
            if not (
                text.startswith("\n", end)
                and isinstance(delta, dict)
                and delta.get("version") == SUMMARY_VERSION
                and isinstance(delta.get("byte_offset"), int)
                and delta["byte_offset"] >= cursor
                and isinstance(delta.get("summaries"), dict)
            ):
                break
            summaries.update(delta["summaries"])
            cursor = delta["byte_offset"]
            length = end + 1
        return summaries, cursor, length, length == len(text)

    def _append_delta(self, cursor: int, summaries: Mapping[str, Mapping[str, Any]]) -> None:
        """Append one delta covering the log from the sidecar's last cursor to ``cursor``.

        It goes only onto the sidecar as this store last read or wrote it.
        If another writer changed the sidecar, or the write fails, the
        store stops folding: a later delta would then start at a cursor
        the sidecar does not hold, and claim rows it never summarized.
        """
        data = (
            json.dumps(
                {"byte_offset": cursor, "summaries": summaries, "version": SUMMARY_VERSION},
                sort_keys=True,
            )
            + "\n"
        ).encode("ascii")
        try:
            with open(self.aggregates_path, "ab") as handle:
                written = handle.tell() == self._sidecar_length
                if written:
                    handle.write(data)
                    handle.flush()
                    if self.durability == "fsync":
                        os.fsync(handle.fileno())
        except OSError:
            written = False
        if written:
            self._covered = cursor
            self._sidecar_length += len(data)
            self._unsaved = {}
        else:
            self._covered, self._unsaved = None, {}

    def checkpoint(self) -> None:
        """Persist the summaries folded since the sidecar was last read or written, as one delta.

        :func:`~repro.runtime.scheduler.run_campaign` and
        :func:`merge_shards` call this once at the end, so the next resume,
        status or report parses no row they appended.  A no-op when nothing
        was folded.
        """
        if self._unsaved:
            self._append_delta(self._covered, self._unsaved)

    def summaries(self) -> Dict[str, Dict[str, Any]]:
        """Latest-per-key summaries: the sidecar's deltas plus the rows after its cursor.

        Checkpoints what this store folded, applies the sidecar's deltas,
        then parses only the lines of ``results.jsonl`` after the last
        cursor and appends them as one more delta (O(new rows)).  The
        sidecar is a pure cache of ``results.jsonl``, never a source of
        truth: it is rebuilt from every row when its cursor no longer lands
        on a line boundary of the log (kill truncation below it, external
        rewrites) or its version is not the current one, and a torn tail
        of it is cut off.  A valid-but-unterminated tail row (the write a
        kill interrupted) is served in the returned mapping, matching
        :meth:`rows`, but no cursor passes it until an append terminates
        it.  From here on this store folds the summaries of its own appends
        (see :meth:`checkpoint`); it keeps no copy of the returned mapping.
        """
        self.checkpoint()
        summaries, cursor, length, clean = self._load_sidecar()
        size = self._results_size()
        if size < cursor:
            summaries, cursor, length, clean = {}, 0, 0, False
        fresh: Dict[str, Dict[str, Any]] = {}
        end = cursor
        tail_row = None
        if size > cursor:
            with open(self.results_path, "rb") as handle:
                if cursor:
                    handle.seek(cursor - 1)
                    if handle.read(1) != b"\n":
                        summaries, cursor, length, clean = {}, 0, 0, False
                        handle.seek(0)
                end = cursor
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        tail_row = _parse_row(raw)
                        break
                    end += len(raw)
                    row = _parse_row(raw)
                    if row is not None:
                        fresh[row["task_key"]] = summarize_row(row)
        summaries.update(fresh)
        self._covered, self._sidecar_length, self._unsaved = end, length, {}
        if not clean:
            try:
                os.truncate(self.aggregates_path, length)
            except OSError:
                self._covered = None
        if end > cursor and self._covered is not None:
            self._append_delta(end, fresh)
        if tail_row is not None:
            summaries[tail_row["task_key"]] = summarize_row(tail_row)
        return summaries

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self) -> CompactionStats:
        """Rewrite the log keeping only the latest row per task key.

        Digest-identical by construction (exactly the rows
        :meth:`latest_rows` selects, in file order of their final
        occurrence) and crash-safe: the survivors are written to a
        temporary file, fsynced, and atomically renamed over
        ``results.jsonl``, so a kill at any point leaves either the old
        or the new log — never a mix.  The summary sidecar is removed
        before the rename and rewritten after it as one delta covering the
        compacted file — the one full rewrite of the sidecar.
        """
        try:
            bytes_before = os.path.getsize(self.results_path)
        except OSError:
            return CompactionStats(0, 0, 0, 0)
        rows = self.rows()
        final_index = {row["task_key"]: i for i, row in enumerate(rows)}
        kept = [row for i, row in enumerate(rows) if final_index[row["task_key"]] == i]
        tmp = self.results_path.with_name(RESULTS_FILENAME + ".tmp")
        with open(tmp, "wb") as handle:
            for row in kept:
                handle.write((json.dumps(row, sort_keys=True) + "\n").encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        # The old sidecar's cursors do not describe the compacted log.
        self.aggregates_path.unlink(missing_ok=True)
        self.close()
        os.replace(tmp, self.results_path)
        bytes_after = os.path.getsize(self.results_path)
        self._known_size = bytes_after
        self._sidecar_length = 0
        self._append_delta(bytes_after, {row["task_key"]: summarize_row(row) for row in kept})
        _M_COMPACTIONS.inc()
        _M_COMPACTION_ROWS_DROPPED.inc(len(rows) - len(kept))
        return CompactionStats(len(rows), len(kept), bytes_before, bytes_after)


# perfbench/ledger.py imports this name and wraps latest_rows through its class __dict__.
BaseCampaignStore = CampaignStore


def open_store(directory, durability: str = "flush") -> CampaignStore:
    """Open the campaign store rooted at ``directory``.

    Refuses a directory holding the removed backend's ``results.sqlite``:
    its rows would stay invisible, so every task would silently re-run
    into a fresh ``results.jsonl`` beside them.
    """
    legacy = Path(directory) / LEGACY_SQLITE_FILENAME
    if legacy.exists():
        raise CampaignError(
            f"{legacy} was written by the removed SQLite store backend; "
            f"only {RESULTS_FILENAME} stores are supported — re-run the campaign "
            f"into a fresh directory"
        )
    return CampaignStore(directory, durability=durability)


def merge_shards(destination, shard_dirs, durability: Optional[str] = None) -> CampaignStore:
    """Fuse shard campaign directories into one store and return it.

    Every shard directory must be bound to the *same* spec (content
    digest); a foreign spec is refused, because its rows would poison the
    merged aggregate.  Rows are appended in argument order (file order
    within each shard), so overlapping stores resolve exactly like a
    single store does: last write wins per task key.  The destination may
    already hold rows for the same spec (merging into a partially
    complete store is an ordinary resume) but must not be one of the
    shard directories being merged.

    Writes honor the spec's ``durability`` (or an explicit ``durability``
    override): each shard's rows go through one batched
    :meth:`~CampaignStore.append_many` — one flush, and under ``"fsync"``
    one fsync, per shard.  The merged store reads its summaries first, so
    it folds the summaries of each shard's rows as it appends them, and
    one :meth:`~CampaignStore.checkpoint` persists them: no row of the
    merged log is parsed again.
    """
    shard_dirs = [Path(d) for d in shard_dirs]
    if not shard_dirs:
        raise CampaignError("merge_shards needs at least one shard directory")
    destination = Path(destination)
    for shard_dir in shard_dirs:
        if shard_dir.resolve() == destination.resolve():
            raise CampaignError(
                f"merge destination {destination} is itself one of the shard "
                f"directories; merge into a fresh directory"
            )
    stores = [open_store(d) for d in shard_dirs]
    spec = stores[0].load_spec()
    for store in stores[1:]:
        other = store.load_spec()
        if other.digest() != spec.digest():
            raise CampaignError(
                f"shard store {store.directory} belongs to campaign {other.name!r} "
                f"(spec digest {other.digest()[:12]}), not {spec.name!r} "
                f"({spec.digest()[:12]}); refusing to merge foreign shards"
            )
    merged = open_store(
        destination,
        durability=durability if durability is not None else spec.durability,
    )
    merged.initialize(spec)
    merged.summaries()
    for store in stores:
        merged.append_many(store.rows())
    merged.checkpoint()
    merged.close()
    return merged
