"""Unit tests for the shared parse cache (spclint.cache).

The cache's contract: one ``ast.parse`` per file per process, identity
reuse across consumers, ``(mtime_ns, size)`` invalidation, and negative
caching of unreadable/unparseable files that preserves the engine's
never-raise guarantee.
"""

import os

from spclint.cache import ParseCache
from spclint.core import INTERNAL_CODE, SYNTAX_CODE
from spclint.engine import analyze_paths


class TestHitsAndIdentity:
    def test_second_load_is_a_hit_returning_same_object(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        cache = ParseCache()
        first, _ = cache.load(str(target))
        second, _ = cache.load(str(target))
        assert first is second
        assert cache.misses == 1 and cache.hits == 1

    def test_repeat_sweep_reuses_every_parse(self, tmp_path):
        (tmp_path / "mod.py").write_text("def f():\n    return 1\n")
        cache = ParseCache()
        analyze_paths([str(tmp_path)], cache=cache)
        assert cache.misses == 1
        analyze_paths([str(tmp_path)], cache=cache)
        # The second sweep — per-file rules AND the project pass — found
        # everything already parsed.
        assert cache.misses == 1
        assert cache.hits == 1


class TestInvalidation:
    def test_content_change_invalidates(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        cache = ParseCache()
        first, _ = cache.load(str(target))
        target.write_text("x = 2  # different size\n")
        second, _ = cache.load(str(target))
        assert first is not second
        assert second.text.startswith("x = 2")
        assert cache.misses == 2

    def test_touch_with_same_size_invalidates_via_mtime(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        cache = ParseCache()
        cache.load(str(target))
        stat = os.stat(target)
        os.utime(target, ns=(stat.st_atime_ns,
                             stat.st_mtime_ns + 1_000_000))
        cache.load(str(target))
        assert cache.misses == 2


class TestNegativeCaching:
    def test_syntax_error_cached_as_spc999(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("def broken(:\n")
        cache = ParseCache()
        source, violations = cache.load(str(target))
        assert source is None
        assert [v.rule for v in violations] == [SYNTAX_CODE]
        again, _ = cache.load(str(target))
        assert again is None
        assert cache.hits == 1          # the failure itself was cached

    def test_missing_file_is_spc000_and_not_cached(self, tmp_path):
        path = str(tmp_path / "nowhere.py")
        cache = ParseCache()
        source, violations = cache.load(path)
        assert source is None
        assert [v.rule for v in violations] == [INTERNAL_CODE]
        # No stat key -> no entry; a file appearing later must be seen.
        assert len(cache) == 0
        (tmp_path / "nowhere.py").write_text("x = 1\n")
        source, violations = cache.load(path)
        assert source is not None and violations == []
