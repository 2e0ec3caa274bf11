"""The shared parse cache: one ``ast.parse`` per file per process.

Every consumer of a parsed module — the per-file SPC rule pack, the
whole-program SPC1xx passes, the self-lint test suite — goes through
one :class:`ParseCache`, so a file read and parsed for the per-file
rules is reused verbatim by the project index instead of being re-read
and re-parsed.  Entries are keyed by path and invalidated on
``(mtime_ns, size)`` change, which makes the cache safe to keep alive
across repeated sweeps inside one process (watch loops, test suites).

Files that cannot be read or parsed are *negatively* cached as the
violation list they produce (``SPC000`` / ``SPC999``), preserving the
engine's never-raise guarantee through the cached path too.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Tuple

from .core import INTERNAL_CODE, SYNTAX_CODE, SourceFile, Violation


class ParseCache:
    """path → parsed :class:`SourceFile` (or its failure violations)."""

    def __init__(self) -> None:
        #: path -> (stat key or None, SourceFile or None, failure
        #: violations); a None key marks a pre-seeded in-memory source
        self._entries: Dict[str, Tuple[Optional[Tuple[int, int]],
                                       Optional[SourceFile],
                                       List[Violation]]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _stat_key(path: str) -> Optional[Tuple[int, int]]:
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def load(self, path: str) -> Tuple[Optional[SourceFile], List[Violation]]:
        """Read + parse *path*, cached.  Never raises.

        Returns ``(source, violations)``: a parsed :class:`SourceFile`
        and no violations on success, or ``None`` plus the SPC000/SPC999
        findings describing why the file is unusable.
        """
        key = self._stat_key(path)
        cached = self._entries.get(path)
        if cached is not None and cached[0] == key:
            self.hits += 1
            return cached[1], cached[2]
        self.misses += 1
        source, violations = self._parse(path)
        if key is not None:
            self._entries[path] = (key, source, violations)
        return source, violations

    def insert(self, source: SourceFile) -> None:
        """Pre-seed the cache with an already-parsed source (tests).

        The stored stat key mirrors what :meth:`load` will compute for
        the path — ``None`` for a purely in-memory source — so a
        pre-seeded entry is found again instead of falling through to a
        doomed filesystem read.
        """
        self._entries[source.path] = (self._stat_key(source.path),
                                      source, [])

    @staticmethod
    def _parse(path: str) -> Tuple[Optional[SourceFile], List[Violation]]:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as exc:
            return None, [Violation(
                rule=INTERNAL_CODE, path=path, line=1, col=0,
                message=f"cannot read file: {exc}",
            )]
        try:
            tree = ast.parse(text, filename=path)
        except (SyntaxError, ValueError) as exc:
            # ValueError: source with null bytes.
            line = getattr(exc, "lineno", None) or 1
            col = (getattr(exc, "offset", None) or 1) - 1
            return None, [Violation(
                rule=SYNTAX_CODE, path=path, line=line, col=max(col, 0),
                message=(f"file does not parse: "
                         f"{exc.__class__.__name__}: {exc}"),
            )]
        return SourceFile(path, text, tree), []
