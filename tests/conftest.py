"""Test-wide settings: property tests replay the same examples and store none."""
import os
import tempfile

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# hypothesis also caches the constants it reads from local source files;
# keep that cache out of the checkout
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)
