"""Content-addressed result cache for parallel experiment cells.

Every cell result is keyed on the four things that determine it bit for
bit: the experiment name, the seed, a canonical hash of the cell config,
and a fingerprint of the ``repro`` source tree.  Re-running a soak after an
interrupt (or re-running it untouched) skips every completed cell; editing
*any* source file under ``src/repro`` rotates the code fingerprint and
invalidates the whole cache at once — deliberately coarse, because a cell's
behaviour can depend on any module the simulation transitively imports.

Entries are one JSON file per cell under ``root/<experiment>/<kk>/<key>.json``
(two-level fan-out keeps directories small on big sweeps); writes go through
:func:`write_atomic` (temp file + rename, umask-respecting mode) so a killed
soak never leaves a torn entry behind.

A cache can also mount a **read-through remote tier**: a second directory
(NFS mount, rsync'd mirror) holding the same layout.  A local miss consults
the remote; a remote hit is written back into the local tier atomically, so
the next lookup is local.  This is how a warm campaign cache is shared
across hosts.
"""

import hashlib
import json
import os
import tempfile

#: What :meth:`ResultCache.get` returns on a miss.  A sentinel rather than
#: ``None`` because ``None`` is a perfectly good cached payload — without
#: the distinction a None-valued cell would be re-executed and re-written
#: on every run.
MISS = object()


def config_hash(config):
    """Canonical sha256 of a JSON-able config dict (key order immaterial).

    Strict JSON only: ``allow_nan=False`` makes NaN/Infinity configs an
    error here instead of serialising as repr-dependent non-RFC tokens
    that silently fork cache keys (:class:`~repro.par.shard.WorkItem`
    rejects them earlier, at construction, with the cell identity).
    """
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"),
                       allow_nan=False)
    return hashlib.sha256(canon.encode()).hexdigest()


_CODE_FINGERPRINT = None


def code_fingerprint():
    """sha256 over every ``.py`` file in the installed ``repro`` package.

    Memoised per process: the tree is read once per run, not once per cell.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def write_atomic(path, text):
    """Write ``text`` to ``path`` via a temp file + rename.

    A killed writer never leaves a torn file behind.  The file gets the
    0666-minus-umask mode a plain ``open`` would: ``tempfile.mkstemp``
    deliberately creates 0600 files, and an entry that kept that mode
    would be unreadable to every other user of a shared cache directory,
    which reads as a permanent miss.
    """
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_entry(path):
    """The entry at ``path`` if it is a JSON object carrying
    ``"payload"``; ``None`` if it is absent, torn or malformed."""
    try:
        with open(path) as handle:
            entry = json.load(handle)
    except (OSError, ValueError):
        return None
    return entry if isinstance(entry, dict) and "payload" in entry else None


class ResultCache:
    """Filesystem-backed cache of finished cell payloads.

    ``remote`` is an optional second tier consulted on local misses: a
    directory holding the same ``<experiment>/<kk>/<key>.json`` layout.
    Remote hits are written back into the local tier (atomically, like
    any put) so they are local from then on; an absent or unreadable
    remote entry reads as a miss.
    """

    def __init__(self, root, fingerprint=None, remote=None):
        self.root = root
        self.fingerprint = fingerprint or code_fingerprint()
        self.remote = remote
        self.hits = 0
        self.remote_hits = 0
        self.misses = 0
        self.writes = 0

    def key_for(self, item):
        """The cell's content address."""
        material = "|".join((
            item.experiment, str(int(item.seed)),
            config_hash(item.config), self.fingerprint,
        ))
        return hashlib.sha256(material.encode()).hexdigest()

    def rel_path_for(self, item):
        """The entry's path relative to either tier's root."""
        key = self.key_for(item)
        return os.path.join(item.experiment, key[:2], key + ".json")

    def path_for(self, item):
        return os.path.join(self.root, self.rel_path_for(item))

    def get(self, item):
        """The cached payload, or :data:`MISS` (counts a hit or a miss).

        Any unreadable entry — absent, torn JSON, or a JSON value that is
        not an object carrying ``"payload"`` — reads as a miss; the cell
        simply re-runs and rewrites it.  On a local miss the remote tier
        (when mounted) is consulted and a hit is written back locally.
        """
        entry = _read_entry(self.path_for(item))
        if entry is not None:
            self.hits += 1
            return entry["payload"]
        if self.remote:
            entry = _read_entry(os.path.join(self.remote,
                                             self.rel_path_for(item)))
        if entry is None:
            self.misses += 1
            return MISS
        write_atomic(self.path_for(item), json.dumps(entry, sort_keys=True))
        self.remote_hits += 1
        return entry["payload"]

    def put(self, item, payload):
        """Store a finished cell atomically (temp file + rename)."""
        entry = {
            # the payload is all get() returns; the rest is for humans
            # poking at the cache directory
            "experiment": item.experiment,
            "seed": int(item.seed),
            "config": dict(item.config),
            "payload": payload,
        }
        write_atomic(self.path_for(item), json.dumps(entry, sort_keys=True))
        self.writes += 1

    def stats(self):
        return {"hits": self.hits, "remote_hits": self.remote_hits,
                "misses": self.misses, "writes": self.writes}
