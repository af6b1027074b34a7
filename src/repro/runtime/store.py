"""Content-addressed result store: memoize deterministic simulations.

Every ``(model config, seed plan entry, horizon, metric)`` task in this
repo is a pure function of its inputs — the seed plans make results
independent of workers/chunking/backends, and the vectorized engine is
bit-identical to the interpreted one.  This module exploits that:
results are stored on disk under a **canonical content hash of the task
spec**, so figure regenerations, repeated sweeps and adaptive top-ups
recompute only what has never been computed before.

The three layers:

* :func:`canonicalize` / :func:`task_key` — a canonical, content-based
  hash of an arbitrary task item (nested dataclasses, dicts, numpy
  scalars, callables).  Dict-key order never matters, numpy scalars
  hash like their Python values, and dataclass fields *at their
  declared default* are dropped — so adding a new defaulted config
  field does not invalidate existing entries, while any semantic change
  (horizon, seed entry, net structure, parameter value) does.
* :class:`ResultStore` — the on-disk store: one pickle payload per key
  under ``objects/<k[:2]>/<k>``, written atomically (temp file +
  ``os.replace``), self-checking on read (magic + SHA-256 over the
  payload; a corrupt or truncated entry warns, is deleted, and reads as
  a miss — **never** a crash or a silently-wrong hit), plus a
  ``manifest.json`` carrying schema/version stamps and persistent
  hit/miss counters.  A manifest from a different schema disables the
  store with a warning (every read misses, writes are skipped).
* the dispatch layer that consults it —
  :func:`~repro.runtime.adaptive.run_replications` — reads the store
  in the *parent* process, submit only the misses through the
  :class:`~repro.runtime.ParallelExecutor` (so remote socket workers
  never need the store directory), and writes freshly computed values
  back.

Engine-equivalence classes
--------------------------
Keys are always derived from the **interpreted-engine task shape**
(``task_key(fn, item)`` with the per-replication item), even when the
work is executed by the vectorized lockstep engine: PR 6's bit-identity
contract makes both engines one equivalence class, so a sweep run under
``engine="vectorized"`` warms the cache for ``engine="interpreted"``
and vice versa.  Execution knobs (workers, chunking, backend)
are never part of a key — they never change results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import re
import shutil
import warnings
from collections.abc import Callable, Mapping, Set
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "StoreWarning",
    "StoreStats",
    "ResultStore",
    "canonicalize",
    "canonical_json",
    "task_key",
    "request_key",
]

#: Version stamp of the *key derivation* (canonicalization rules).  A
#: change to the rules must bump this so stale keys can never alias new
#: ones.
KEY_SCHEMA = 1

#: Version stamp of the on-disk layout (manifest + entry format).
STORE_SCHEMA = 1

#: Magic prefix of every entry file; encodes the entry-format version.
#: An entry written by a future format has a different magic and reads
#: as version skew (recompute), not as garbage.
ENTRY_MAGIC = b"RPRSTOR1"

_DIGEST_BYTES = 32  # SHA-256
_READ_CHUNK = 1 << 16  # bytes per os.read of an entry
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class StoreWarning(UserWarning):
    """A store entry or manifest failed validation and was bypassed.

    Raised as a *warning*, never an exception: integrity failures
    (corruption, truncation, checksum mismatch, schema skew) degrade to
    a recompute, because a missing cache entry is always safe and a
    wrong one silently corrupts science.
    """


# ----------------------------------------------------------------------
# Canonical task hashing
# ----------------------------------------------------------------------


def _callable_id(fn: Callable[..., Any]) -> str:
    """Stable ``module:qualname`` identity of a module-level callable.

    Lambdas, closures and ``functools.partial`` objects have no stable
    content-addressable name — two different lambdas share the qualname
    ``<lambda>`` — so they are rejected loudly rather than hashed
    ambiguously (an ambiguous key risks a wrong cache hit).
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise TypeError(
            f"cannot derive a stable store key for {fn!r}: only "
            "module-level callables are content-addressable (lambdas "
            "and closures have ambiguous names)"
        )
    return f"{module}:{qualname}"


def _class_id(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


#: ``(class id, dataclasses.fields)`` per concrete dataclass type, built
#: on first sight: a sweep canonicalizes the same config classes once
#: per task, and neither part can change after the class is created.
_DATACLASS_SHAPES: dict[type, tuple[str, tuple[dataclasses.Field, ...]]] = {}


def _field_is_default(field: dataclasses.Field, value: Any) -> bool:
    """True when a dataclass field still carries its declared default.

    Comparison failures (exotic ``__eq__``) count as *not* default —
    keeping the field in the hash is always safe, dropping it is not.
    """
    try:
        if field.default is not dataclasses.MISSING:
            return bool(value == field.default)
        if field.default_factory is not dataclasses.MISSING:
            return bool(value == field.default_factory())
    except Exception:  # noqa: BLE001 - equality is caller-defined
        return False
    return False


def canonicalize(obj: Any) -> Any:
    """Lower an arbitrary task item to a canonical JSON-able structure.

    The canonical form is what gets hashed, so its rules *are* the
    cache-identity rules:

    * dict/mapping keys are sorted — insertion order never matters;
    * numpy scalars lower to their Python values (``np.float64(0.5)``
      and ``0.5`` are the same content); floats are tagged with their
      exact ``float.hex()`` — bit-exact, no repr rounding;
    * tuples and lists are both sequences (``(1, 2)`` ≡ ``[1, 2]``);
    * dataclass instances hash as (class identity, non-default fields):
      a field equal to its declared default is dropped, so *adding* a
      defaulted field to a config dataclass keeps old keys valid, while
      changing any field's value changes the key;
    * module-level callables hash by ``module:qualname``; lambdas and
      closures raise :class:`TypeError` (ambiguous identity);
    * anything else without a ``__dict__`` raises :class:`TypeError` —
      an item the canonicalizer does not understand must fail loudly,
      never hash by object identity.
    """
    # Exact built-in types and dataclasses seen before skip the
    # isinstance chain below; each returns what the chain would.
    cls = type(obj)
    if cls is str or cls is int:
        return obj
    if cls is float:
        return ["f", obj.hex()]
    if cls is tuple or cls is list:
        return ["l", [canonicalize(v) for v in obj]]
    shape = _DATACLASS_SHAPES.get(cls)
    if shape is not None:
        return _canonical_dataclass(obj, shape)
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return ["f", float(obj).hex()]
    if isinstance(obj, (bytes, bytearray)):
        return ["b", bytes(obj).hex()]
    if isinstance(obj, np.ndarray):
        return ["nd", list(obj.shape), obj.dtype.str, obj.tobytes().hex()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        shape = _DATACLASS_SHAPES[cls] = (_class_id(cls), dataclasses.fields(cls))
        return _canonical_dataclass(obj, shape)
    if isinstance(obj, Mapping):
        pairs = sorted(
            (
                (
                    json.dumps(canonicalize(k), sort_keys=True),
                    canonicalize(v),
                )
                for k, v in obj.items()
            ),
            key=lambda kv: kv[0],
        )
        return ["d", [[k, v] for k, v in pairs]]
    if isinstance(obj, Set):
        return [
            "s",
            sorted(json.dumps(canonicalize(v), sort_keys=True) for v in obj),
        ]
    if isinstance(obj, (list, tuple)):
        return ["l", [canonicalize(v) for v in obj]]
    if callable(obj):
        return ["fn", _callable_id(obj)]
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return ["obj", _class_id(type(obj)), canonicalize(state)]
    raise TypeError(
        f"cannot canonicalize {type(obj).__qualname__} for a store key: "
        "use plain data, dataclasses, or module-level callables in task "
        "items"
    )


def _canonical_dataclass(
    obj: Any, shape: tuple[str, tuple[dataclasses.Field, ...]]
) -> list[Any]:
    class_id, fields = shape
    body = {}
    for f in fields:
        value = getattr(obj, f.name)
        if not _field_is_default(f, value):
            body[f.name] = canonicalize(value)
    return ["dc", class_id, body]


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of an item (what :func:`task_key` hashes)."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


#: A round's memo of task key fragments: part id -> (part, text).
Fragments = dict[int, tuple[Any, str]]


def _key_head(fn: Callable[..., Any]) -> str:
    """The text of a task key payload up to its item."""
    return f'["repro-store",{KEY_SCHEMA},{_json_str(_callable_id(fn))},'


def _fragment(part: Any, fragments: Fragments) -> str:
    """The canonical JSON text of one task part, memoized by identity.

    Exact ``str``/``int``/``float`` parts are encoded directly.  Any
    other part is looked up by ``id``: the memo keeps the part itself
    alongside its text, so the id cannot be reused while the memo
    lives.  Equality would be the wrong memo key — ``1 == 1.0 == True``
    and ``0.0 == -0.0``, yet each canonicalizes differently.
    """
    cls = type(part)
    if cls is str:
        return _json_str(part)
    if cls is int:
        return int.__repr__(part)
    if cls is float:
        return f'["f","{part.hex()}"]'
    entry = fragments.get(id(part))
    if entry is None:
        entry = fragments[id(part)] = (part, canonical_json(part))
    return entry[1]


def task_key(
    fn: Callable[..., Any],
    item: Any,
    fragments: Fragments | None = None,
) -> str:
    """The store key of one task: SHA-256 of (key schema, fn, item).

    ``fn`` is the *interpreted-engine* task evaluator — the vectorized
    engine shares its keys (see the module docstring on equivalence
    classes).  Execution knobs must not appear in ``item``.

    ``fragments`` is an optional memo (start with ``{}``) shared by
    the keys of tasks that share parts, such as one round of network
    node tasks built on a few parameter objects.  A tuple or list
    item's parts are then canonicalized once per distinct object (see
    :func:`_fragment`) and joined: a JSON list's text is its elements'
    texts joined by ``,``, so the key is byte for byte the one
    computed without the memo.  The parts must not be mutated while
    the memo lives.
    """
    cls = type(item)
    if fragments is not None and (cls is tuple or cls is list):
        body = ",".join([_fragment(part, fragments) for part in item])
        payload = f'{_key_head(fn)}["l",[{body}]]]'
    else:
        payload = f"{_key_head(fn)}{canonical_json(item)}]"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def request_key(obj: Any) -> str:
    """A canonical SHA-256 over an arbitrary request payload.

    The serving layer's request digest: two requests that spell the
    same content (dict order, tuple-vs-list, numpy scalars) share a
    key, under the same :func:`canonicalize` rules as task hashing but
    in a distinct namespace — a request key can never alias a
    :func:`task_key` entry.  Used for idempotent job submission
    (``repro.serving`` coalesces identical in-flight requests), not for
    store addressing.

    >>> request_key({"a": 1, "b": 2.0}) == request_key({"b": 2.0, "a": 1})
    True
    """
    payload = json.dumps(
        ["repro-request", KEY_SCHEMA, canonicalize(obj)],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoreStats:
    """A snapshot of the store: contents plus lifetime counters.

    ``hits``/``misses``/``puts``/``corrupt`` include both the counters
    persisted by previous sessions (via
    :meth:`ResultStore.flush_counters`) and the current session's.
    """

    entries: int
    total_bytes: int
    hits: int
    misses: int
    puts: int
    corrupt: int

    def lines(self) -> list[str]:
        """Human-readable report rows (the CLI ``store stats`` output)."""
        return [
            f"entries : {self.entries}",
            f"bytes   : {self.total_bytes}",
            f"hits    : {self.hits}",
            f"misses  : {self.misses}",
            f"puts    : {self.puts}",
            f"corrupt : {self.corrupt}",
        ]


_COUNTER_NAMES = ("hits", "misses", "puts", "corrupt")


class ResultStore:
    """Content-addressed on-disk cache of per-replication results.

    Parameters
    ----------
    root:
        Store directory; created (with a fresh ``manifest.json``) if
        missing.

    Notes
    -----
    * **Atomic writes** — payloads land via temp file +
      :func:`os.replace`, so readers never observe a half-written
      entry, and concurrent writers of the same key are safe (the
      values are bit-identical by determinism; last rename wins).
    * **Verified reads** — every entry carries a magic/version prefix
      and a SHA-256 over its payload.  Any mismatch (truncation,
      garbage, bit flips, a future entry format) warns
      (:class:`StoreWarning`), deletes the bad entry, and reads as a
      miss, so the caller recomputes.
    * **Schema skew** — a manifest written by a different
      :data:`STORE_SCHEMA` disables the store for this session with a
      warning: reads miss, writes are skipped, nothing crashes.
    * The store is consulted in the parent process only (see
      :func:`~repro.runtime.adaptive.run_replications`), so it is never
      pickled into worker tasks.

    Example
    -------
    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     store = ResultStore(d)
    ...     key = task_key(canonical_json, {"horizon": 900.0, "seed": 7})
    ...     store.put(key, 42.0)
    ...     store.get(key)
    (True, 42.0)
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        self._disabled = False
        self.root.mkdir(parents=True, exist_ok=True)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(exist_ok=True)
        self._objects = os.fspath(self.objects_dir)
        manifest = self._read_manifest()
        if manifest is None:
            self._write_manifest(self._fresh_manifest())
        elif (
            manifest.get("store_schema") != STORE_SCHEMA
            or manifest.get("key_schema") != KEY_SCHEMA
        ):
            warnings.warn(
                f"result store at {self.root} has schema "
                f"{manifest.get('store_schema')!r}/key schema "
                f"{manifest.get('key_schema')!r} (this build expects "
                f"{STORE_SCHEMA}/{KEY_SCHEMA}); store disabled for this "
                "run — everything will be recomputed",
                StoreWarning,
                stacklevel=2,
            )
            self._disabled = True

    # -- manifest ------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def enabled(self) -> bool:
        """False when schema skew disabled the store for this session."""
        return not self._disabled

    @staticmethod
    def _fresh_manifest() -> dict[str, Any]:
        return {
            "format": "repro-result-store",
            "store_schema": STORE_SCHEMA,
            "key_schema": KEY_SCHEMA,
            "counters": {name: 0 for name in _COUNTER_NAMES},
        }

    def _read_manifest(self) -> dict[str, Any] | None:
        try:
            with open(self.manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            if not isinstance(manifest, dict):
                raise ValueError("manifest is not a JSON object")
            return manifest
        except FileNotFoundError:
            return None
        except (ValueError, OSError) as exc:
            warnings.warn(
                f"result store manifest at {self.manifest_path} is "
                f"unreadable ({exc}); rewriting a fresh one",
                StoreWarning,
                stacklevel=3,
            )
            return None

    def _write_manifest(self, manifest: dict[str, Any]) -> None:
        tmp = self.manifest_path.with_name(f".manifest.{os.getpid()}.tmp")
        tmp.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.manifest_path)

    def flush_counters(self) -> None:
        """Fold this session's hit/miss counters into the manifest.

        Makes cache effectiveness observable across processes — a warm
        CLI run flushes on exit, and ``repro.cli store stats`` (a fresh
        process) reports the accumulated totals.
        """
        if self._disabled:
            return
        if not any(getattr(self, name) for name in _COUNTER_NAMES):
            return
        manifest = self._read_manifest() or self._fresh_manifest()
        counters = manifest.setdefault("counters", {})
        for name in _COUNTER_NAMES:
            counters[name] = int(counters.get(name, 0)) + getattr(self, name)
            setattr(self, name, 0)
        self._write_manifest(manifest)

    # -- entries -------------------------------------------------------

    def _entry_file(self, key: str) -> str:
        """The entry file of ``key``: ``objects/<key[:2]>/<key>``.

        A plain string path, so a warm read of many keys builds no
        :class:`~pathlib.Path` objects.  Malformed keys raise
        ``ValueError``.
        """
        if not _KEY_RE.fullmatch(key):
            raise ValueError(
                f"store keys are 64-char lowercase hex digests, got {key!r}"
            )
        return f"{self._objects}/{key[:2]}/{key}"

    def get(self, key: str) -> tuple[bool, Any]:
        """Look up one key: ``(True, value)`` on a verified hit.

        Returns ``(False, None)`` on a miss *or* on any integrity
        failure — a corrupt, truncated or version-skewed entry warns,
        is deleted (so the recomputed value can heal it), and is
        treated as a miss.
        """
        path = self._entry_file(key)
        if self._disabled:
            self.misses += 1
            return False, None
        # Raw descriptor reads: a file object costs more than the read.
        # ``os.open`` succeeds on a directory and only ``os.read``
        # raises, so the whole read sits inside the handler.
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                chunks = []
                while chunk := os.read(fd, _READ_CHUNK):
                    chunks.append(chunk)
            finally:
                os.close(fd)
            blob = b"".join(chunks)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except OSError as exc:
            self._quarantine(path, f"unreadable ({exc})")
            return False, None
        reason = _validate_entry(blob)
        if reason is not None:
            self._quarantine(path, reason)
            return False, None
        try:
            value = pickle.loads(blob[len(ENTRY_MAGIC) + _DIGEST_BYTES :])
        except Exception as exc:  # noqa: BLE001 - any unpickle failure
            self._quarantine(path, f"payload failed to unpickle ({exc})")
            return False, None
        self.hits += 1
        return True, value

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` — introspection only.

        A pure read-path probe: no counters move and the payload is not
        validated, so a corrupt entry still answers ``True`` here and
        only degrades to a miss (with a warning) when :meth:`get`
        actually reads it.
        """
        path = self._entry_file(key)
        return not self._disabled and os.path.isfile(path)

    def _quarantine(self, path: str, reason: str) -> None:
        """Warn about a bad entry, drop it, count it as corrupt+miss.

        Whatever sits at the entry path goes, a directory too, so the
        recomputed value's :meth:`put` can take its place.
        """
        warnings.warn(
            f"result store entry {os.path.basename(path)[:12]}… is invalid "
            f"({reason}); recomputing this task",
            StoreWarning,
            stacklevel=4,
        )
        self.corrupt += 1
        self.misses += 1
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path, ignore_errors=True)
            return
        try:
            os.unlink(path)
        except OSError:
            pass

    def put(self, key: str, value: Any) -> None:
        """Store one value under its key, atomically."""
        path = self._entry_file(key)
        if self._disabled:
            return
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload
        tmp = f"{shard}/.{key}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self.puts += 1

    # -- maintenance ---------------------------------------------------

    def _entry_files(self) -> list[Path]:
        return sorted(
            p
            for p in self.objects_dir.glob("??/*")
            if p.is_file() and _KEY_RE.fullmatch(p.name)
        )

    def stats(self) -> StoreStats:
        """Contents + lifetime counters (persisted and this session)."""
        entries = self._entry_files()
        manifest = (self._read_manifest() or {}) if not self._disabled else {}
        persisted = manifest.get("counters", {})
        return StoreStats(
            entries=len(entries),
            total_bytes=sum(p.stat().st_size for p in entries),
            **{
                name: int(persisted.get(name, 0)) + getattr(self, name)
                for name in _COUNTER_NAMES
            },
        )

    def verify(self) -> tuple[int, list[Path]]:
        """Checksum every entry; returns ``(n_ok, corrupt_paths)``."""
        ok = 0
        bad: list[Path] = []
        for path in self._entry_files():
            if _validate_entry(path.read_bytes()) is None:
                ok += 1
            else:
                bad.append(path)
        return ok, bad

    def gc(self) -> tuple[int, int]:
        """Drop corrupt entries and stale temp files.

        Returns ``(files_removed, bytes_reclaimed)``.
        """
        removed = 0
        reclaimed = 0
        _ok, bad = self.verify()
        stale_tmp = [p for p in self.objects_dir.glob("**/.*.tmp") if p.is_file()]
        stale_tmp += [p for p in self.root.glob(".manifest.*.tmp") if p.is_file()]
        for path in bad + stale_tmp:
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            reclaimed += size
        return removed, reclaimed


def _validate_entry(blob: bytes) -> str | None:
    """Why a raw entry blob is invalid, or ``None`` when it verifies."""
    header = len(ENTRY_MAGIC) + _DIGEST_BYTES
    if len(blob) < header:
        return f"truncated header ({len(blob)} bytes)"
    if blob[: len(ENTRY_MAGIC)] != ENTRY_MAGIC:
        return "entry format/version mismatch (bad magic)"
    digest = blob[len(ENTRY_MAGIC) : header]
    if hashlib.sha256(blob[header:]).digest() != digest:
        return "checksum mismatch (corrupt or truncated payload)"
    return None
