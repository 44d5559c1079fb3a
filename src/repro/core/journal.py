"""Event-sourced campaign journal: crash-safe exploration state.

Exploration state used to live only in coordinator memory — PR 5's
respawn/reissue/degrade ladder survives *worker* death, but a
coordinator crash, OOM-kill or Ctrl-C lost the whole campaign. This
module is the durability tier underneath the parallel coordinators: an
append-only event log recording every campaign-level transition, with
a content-addressed blob pack as the payload layer (the log holds
digests, never bodies).

Layout::

    <journal>/events.log   framed, per-record-checksummed event log
    <journal>/blobs.pack   append-only pack of content-addressed pickles
                           (checkpoints, shard results, the recipe)

**Record framing.** Each record is ``4-byte LE payload length ·
16-byte blake2b(payload) checksum · payload`` where the payload is
canonical JSON (sorted keys). Appends go through one buffered file,
flushed per record (so a SIGKILL'd coordinator loses nothing the OS
already has) and fsync'd every ``fsync_every`` records — checkpoints,
campaign open and seal always fsync, so a power cut can only cost
events *after* the last checkpoint, which resume re-executes anyway.

**Blob pack.** A blob is one frame of ``blobs.pack``, framed exactly
like a record, so the frame checksum *is* the blob's content address
(its hex is the digest events carry). Each put is flushed before it
returns — before the event that references it is appended — and an
``fsync=True`` put (checkpoints, the campaign recipe) also fsyncs the
pack before the checkpoint record is committed. A body that is already
indexed is never appended again. Opening builds the
``digest → (offset, length)`` index from the frame headers alone;
:meth:`Journal.get_blob` re-hashes the body it reads, so a rotten
blob is detected at read time and resume falls back to re-execution.

**Recovery semantics** (:meth:`Journal.open`):

* the file ends mid-record (torn tail — the classic crash-during-append
  shape), or the *final* record's checksum fails: the tail is truncated
  to the last intact record and recovery proceeds from there. Never
  silently — the truncation is recorded both on
  :attr:`Journal.recovery` and, for writable opens, as a
  ``tail-recovered`` event in the log itself;
* an *interior* record fails its checksum (bit rot, tampering — records
  follow it, so this was never an interrupted append):
  :class:`~repro.errors.JournalCorruptError` naming the byte offset.
  Resume refuses to guess what a damaged history meant;
* the pack ends mid-frame (a header, or a length running past EOF):
  the torn frame is truncated the same way, recorded on
  :attr:`Journal.pack_recovery` and, for writable opens, as a
  ``pack-recovered`` event. Pack damage never makes a journal
  unopenable — rot inside a body fails only that blob's read, and a
  blob that ends up unindexed counts as missing.

**Checkpoint + event suffix.** Coordinators write periodic ``checkpoint``
records whose blob holds the full resumable state (DSE frontier /
fuzzing scheduler); finer-grained events (``lease-issued``,
``envelope-merged``, ``state-forked``, ``bug-found``,
``fuzz-shard-completed``, ``snapshot-sealed``) both narrate the campaign
and, where they carry result blobs, let resume re-apply completed work
after the last checkpoint instead of re-executing it (see
``ParallelFuzzer``). Everything else after the checkpoint simply
re-executes — sound because lease and shard outcomes are deterministic
and schedule-independent, the PR-4/5 invariant this module extends
across process lifetimes.

**Deterministic crash injection.** ``REPRO_JOURNAL_KILL_AFTER=<n>``
SIGKILLs the process after the *n*-th appended record (the record
itself is flushed first). The resilience suite uses it to die at seeded
points mid-campaign and assert that ``repro resume`` reaches a verdict
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import signal
import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import JournalCorruptError, JournalError

PathLike = Union[str, pathlib.Path]

#: Frame header (events.log records and blobs.pack blobs alike): 4-byte
#: LE payload length + 16-byte checksum.
_LEN = struct.Struct("<I")
_DIGEST_SIZE = 16
_HEADER_SIZE = _LEN.size + _DIGEST_SIZE

#: Journal format version, carried by the first record of every log.
#: Version 2 stores blobs in ``blobs.pack``; version 1 (one file per
#: blob under ``blobs/``) is refused.
FORMAT_VERSION = 2

#: Default append→fsync batching (checkpoints always fsync).
DEFAULT_FSYNC_EVERY = 16

#: Env hook: SIGKILL this process after appending record #n.
KILL_AFTER_ENV = "REPRO_JOURNAL_KILL_AFTER"


def config_fingerprint(config: Any) -> str:
    """Short digest of a session config (any stable-``repr`` object),
    recorded at campaign open so a resume against drifted settings is
    detectable in the journal."""
    return hashlib.blake2b(repr(config).encode("utf-8"),
                           digest_size=8).hexdigest()


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()


def _frame(payload: bytes) -> bytes:
    return _LEN.pack(len(payload)) + _checksum(payload) + payload


def read_frames(data: bytes) -> Iterator[tuple]:
    """Parse ``events.log`` bytes into ``(offset, payload)`` frames.

    Raises :class:`JournalCorruptError` for interior checksum damage;
    yields a final ``(offset, None)`` marker instead of a frame when the
    tail is torn (truncated mid-record, or the last record's checksum
    fails) — callers truncate there.
    """
    offset, size = 0, len(data)
    while offset < size:
        if size - offset < _HEADER_SIZE:
            yield offset, None  # torn: partial header
            return
        (length,) = _LEN.unpack_from(data, offset)
        digest = data[offset + _LEN.size:offset + _HEADER_SIZE]
        end = offset + _HEADER_SIZE + length
        if end > size:
            yield offset, None  # torn: partial payload
            return
        payload = data[offset + _HEADER_SIZE:end]
        if _checksum(payload) != digest:
            if end == size:
                yield offset, None  # damaged final record: torn tail
                return
            raise JournalCorruptError(
                f"journal record at byte offset {offset} fails its "
                f"checksum (interior damage, not a torn tail)",
                offset=offset)
        yield offset, payload
        offset = end


def index_pack(path: pathlib.Path) -> Tuple[Dict[str, Tuple[int, int]],
                                            int, int]:
    """Index ``blobs.pack`` by walking its frame headers (bodies are
    skipped, not hashed): returns ``(digest → (body offset, length),
    intact end, file size)``. The walk stops at a torn frame — a partial
    header or a length running past EOF — so ``intact end < file size``
    means the tail from there on is unindexed."""
    index: Dict[str, Tuple[int, int]] = {}
    if not path.exists():
        return index, 0, 0
    size = path.stat().st_size
    offset = 0
    with open(path, "rb") as fh:
        while True:
            header = fh.read(_HEADER_SIZE)
            if len(header) < _HEADER_SIZE:
                break
            (length,) = _LEN.unpack_from(header)
            end = offset + _HEADER_SIZE + length
            if end > size:
                break
            index.setdefault(header[_LEN.size:].hex(),
                             (offset + _HEADER_SIZE, length))
            fh.seek(end)
            offset = end
    return index, offset, size


class Journal:
    """One campaign's append-only, checksummed event log + blob pack."""

    def __init__(self, directory: PathLike, fsync_every: int =
                 DEFAULT_FSYNC_EVERY, readonly: bool = False):
        self.directory = pathlib.Path(directory)
        self.path = self.directory / "events.log"
        self.pack_path = self.directory / "blobs.pack"
        #: Pack index: blob digest → (body offset, body length).
        self.blobs: Dict[str, Tuple[int, int]] = {}
        self.fsync_every = max(1, fsync_every)
        self.readonly = readonly
        self.records: List[Dict[str, Any]] = []
        #: Torn-tail recovery info from :meth:`open` (``None`` when the
        #: log was intact): ``{"truncated_at": offset, "dropped": n}``.
        self.recovery: Optional[Dict[str, int]] = None
        #: The same for ``blobs.pack``.
        self.pack_recovery: Optional[Dict[str, int]] = None
        self._fh = None
        self._pack = None
        self._seq = 0
        self._unsynced = 0
        self._appended = 0
        kill_after = os.environ.get(KILL_AFTER_ENV, "")
        self._kill_after = int(kill_after) if kill_after else 0

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, directory: PathLike,
               fsync_every: int = DEFAULT_FSYNC_EVERY) -> "Journal":
        """Start a fresh journal. Refuses to reuse an existing one —
        an interrupted campaign is resumed, never overwritten."""
        journal = cls(directory, fsync_every=fsync_every)
        if journal.path.exists():
            raise JournalError(
                f"journal {journal.path} already exists; resume it "
                f"(repro resume) instead of overwriting")
        journal.directory.mkdir(parents=True, exist_ok=True)
        journal._fh = open(journal.path, "ab")
        journal._pack = open(journal.pack_path, "wb")
        journal.append("journal-opened", version=FORMAT_VERSION)
        journal.commit()
        return journal

    @classmethod
    def open(cls, directory: PathLike,
             fsync_every: int = DEFAULT_FSYNC_EVERY,
             readonly: bool = False) -> "Journal":
        """Open an existing journal, recovering a torn tail.

        Interior corruption of the event log raises
        :class:`JournalCorruptError`; a torn tail of the log or of the
        pack is truncated (writable opens persist the truncation and
        log a ``tail-recovered`` / ``pack-recovered`` event so the
        repair is never silent).
        """
        journal = cls(directory, fsync_every=fsync_every,
                      readonly=readonly)
        if not journal.path.exists():
            raise JournalError(f"no journal at {journal.path}")
        data = journal.path.read_bytes()
        good_end = 0
        for offset, payload in read_frames(data):
            if payload is None:
                journal.recovery = {"truncated_at": offset,
                                    "dropped": len(data) - offset}
                break
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise JournalCorruptError(
                    f"journal record at byte offset {offset} is not "
                    f"valid JSON despite an intact checksum: {exc}",
                    offset=offset)
            journal.records.append(record)
            good_end = offset + _HEADER_SIZE + len(payload)
        journal._seq = len(journal.records)
        if not journal.records:
            raise JournalError(
                f"journal {journal.path} holds no intact records")
        if journal.records[0].get("kind") != "journal-opened":
            raise JournalError(
                f"journal {journal.path} does not start with a "
                f"journal-opened record")
        version = journal.records[0].get("version")
        if version != FORMAT_VERSION:
            raise JournalError(
                f"unsupported journal format {version!r} (this build "
                f"reads format {FORMAT_VERSION} only)")
        journal.blobs, pack_end, pack_size = index_pack(journal.pack_path)
        if pack_end < pack_size:
            journal.pack_recovery = {"truncated_at": pack_end,
                                     "dropped": pack_size - pack_end}
        if readonly:
            return journal
        for path, end, torn in ((journal.path, good_end, journal.recovery),
                                (journal.pack_path, pack_end,
                                 journal.pack_recovery)):
            if torn is not None:
                with open(path, "r+b") as fh:
                    fh.truncate(end)
                    fh.flush()
                    os.fsync(fh.fileno())
        journal._fh = open(journal.path, "ab")
        journal._pack = open(journal.pack_path, "ab")
        if journal.recovery is not None:
            journal.append("tail-recovered", **journal.recovery)
        if journal.pack_recovery is not None:
            journal.append("pack-recovered", **journal.pack_recovery)
        journal.commit()
        return journal

    def close(self) -> None:
        if self._pack is not None:
            self._pack.close()
            self._pack = None
        if self._fh is not None:
            self.commit()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appending ----------------------------------------------------------

    def _writable(self) -> None:
        if self._fh is None:
            raise JournalError(
                "journal is closed or readonly" if self.readonly
                else "journal is closed")

    def append(self, kind: str, **fields: Any) -> int:
        """Append one event record; returns its sequence number.

        Fields must be JSON-serialisable — anything heavier goes to the
        blob pack first and rides as a digest (:meth:`put_blob`).
        """
        self._writable()
        self._seq += 1
        record = {"seq": self._seq, "kind": kind, **fields}
        payload = json.dumps(record, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        self._fh.write(_frame(payload))
        # Per-record flush: a SIGKILL'd process loses nothing the OS
        # already holds. fsync (power-cut durability) is batched.
        self._fh.flush()
        self.records.append(record)
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self.commit()
        self._appended += 1
        if self._kill_after and self._appended >= self._kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        return record["seq"]

    def commit(self) -> None:
        """Force appended records to stable storage (fsync)."""
        if self._fh is not None and self._unsynced:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._unsynced = 0

    # -- blobs --------------------------------------------------------------

    def put_blob(self, obj: Any, fsync: bool = False) -> str:
        """Pickle *obj* into the blob pack; returns the digest an event
        record carries in the object's place.

        The frame is flushed before this returns, so the event that
        references it can never reach the OS first. ``fsync=True``
        (checkpoints) also forces the pack to stable storage — the
        caller commits the referencing record after it.
        """
        self._writable()
        data = pickle.dumps(obj)
        checksum = _checksum(data)
        digest = checksum.hex()
        if digest not in self.blobs:
            offset = self._pack.tell() + _HEADER_SIZE
            self._pack.write(_LEN.pack(len(data)) + checksum)
            self._pack.write(data)
            self._pack.flush()
            self.blobs[digest] = (offset, len(data))
        if fsync:
            os.fsync(self._pack.fileno())
        return digest

    def get_blob(self, digest: str) -> Any:
        """Load + verify one blob. Raises :class:`JournalCorruptError`
        when the body no longer hashes to its digest, or when the pack
        does not index it at all (lost to a torn tail)."""
        entry = self.blobs.get(digest)
        if entry is None:
            raise JournalCorruptError(
                f"blob {digest} is not in {self.pack_path}", digest=digest)
        offset, length = entry
        with open(self.pack_path, "rb") as fh:
            fh.seek(offset)
            data = fh.read(length)
        if _checksum(data).hex() != digest:
            raise JournalCorruptError(
                f"blob {digest} at byte offset {offset} of "
                f"{self.pack_path} fails verification", digest=digest)
        return pickle.loads(data)

    # -- reading ------------------------------------------------------------

    def events(self, kind: Optional[str] = None,
               after_seq: int = 0) -> List[Dict[str, Any]]:
        return [r for r in self.records
                if r["seq"] > after_seq
                and (kind is None or r["kind"] == kind)]

    def first(self, kind: str) -> Optional[Dict[str, Any]]:
        for record in self.records:
            if record["kind"] == kind:
                return record
        return None

    def last(self, kind: str) -> Optional[Dict[str, Any]]:
        for record in reversed(self.records):
            if record["kind"] == kind:
                return record
        return None

    @property
    def sealed(self) -> bool:
        return self.last("campaign-sealed") is not None

    @staticmethod
    def campaign_mode(directory: PathLike) -> str:
        """Peek the campaign mode ("dse" | "fuzz") without holding the
        journal open — the CLI's resume/replay dispatcher."""
        journal = Journal.open(directory, readonly=True)
        opened = journal.first("campaign-opened")
        if opened is None:
            raise JournalError(
                f"journal {directory} records no campaign-opened event")
        return opened["mode"]
