"""Subgroup-lattice cache keyed by a content hash of the Cayley table.

Relabeled but equal tables hash identically because the key covers exactly
(order, table, identity); isomorphic groups with different tables hash
differently, which is documented behavior (no isomorphism testing).  A
writer takes an advisory lock on the directory's `.lock` file, writes
`<digest>.tmp` and renames it over the entry; the lock keeps concurrent CLI
invocations from sharing the temp name.  Readers take no lock: the rename
is atomic, so a reader opens either the old entry or the whole new one,
never a partial write.

An entry records its format version, the group order, the subgroup count
and a digest of the member lists.  An entry that is missing, unreadable, not
JSON, of another format, whose count or digest does not match its list, or
whose lists are not int lists that `Subgroup` accepts is a miss: the
lattice is recomputed and the entry overwritten, never trusted.

No command reads the cache: `constant` and `verify` rank the kernel
lattice, and `constant --candidates` lists every subgroup afresh.  A
well-formed entry can still lack subgroups, which no check here can see.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    GroupStructureError,
    Subgroup,
    all_subgroups,
)

ENV_CACHE_DIR = "BLGROUPS_CACHE_DIR"
FORMAT_VERSION = 2


def cache_key(G: FiniteGroup) -> str:
    payload = json.dumps(
        {"order": G.order, "table": [list(r) for r in G.table], "identity": G.identity},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _members_digest(members: list) -> str:
    text = json.dumps(members, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _valid_lattice(data, G: FiniteGroup) -> Optional[list[Subgroup]]:
    """The subgroups of a well-formed entry for G, else None."""
    if not isinstance(data, dict):
        return None
    members = data.get("subgroups")
    if (
        data.get("format") != FORMAT_VERSION
        or data.get("order") != G.order
        or not isinstance(members, list)
        or data.get("count") != len(members)
        or data.get("digest") != _members_digest(members)
        or not all(
            isinstance(m, list) and all(type(x) is int for x in m) for m in members
        )
    ):
        return None
    try:
        return [Subgroup(G, tuple(m)) for m in members]
    except GroupStructureError:
        return None


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "blgroups"


class SubgroupCache:
    def __init__(self, directory: Optional[Path] = None, enabled: bool = True):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.enabled = enabled
        self.last_hit = False

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def subgroups(
        self, G: FiniteGroup, order_cap: int = DEFAULT_ORDER_CAP
    ) -> list[Subgroup]:
        """Cached subgroup lattice of G, computing and storing on a miss."""
        self.last_hit = False
        if not self.enabled:
            return all_subgroups(G, order_cap)
        path = self._path(cache_key(G))
        subs = _valid_lattice(self._read(path), G)
        if subs is not None:
            self.last_hit = True
            return subs
        subs = all_subgroups(G, order_cap)
        self.directory.mkdir(parents=True, exist_ok=True)
        members = [list(s.members) for s in subs]
        payload = {
            "format": FORMAT_VERSION,
            "order": G.order,
            "count": len(members),
            "digest": _members_digest(members),
            "subgroups": members,
        }
        tmp = path.with_suffix(".tmp")
        lock_path = self.directory / ".lock"
        with open(lock_path, "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                with open(tmp, "w") as fh:
                    json.dump(payload, fh, sort_keys=True)
                os.replace(tmp, path)
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)
        return subs

    @staticmethod
    def _read(path: Path):
        """The parsed entry, or None if it is missing, unreadable or not JSON."""
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, ValueError):  # ValueError covers bad JSON and bad UTF-8
            return None
