"""Shared test settings.

Every hypothesis property test runs derandomized, without an example
database and without a deadline, so the suite is deterministic.  A test's
own ``@settings`` still sets its example budget.  Hypothesis also caches
the constants it reads from local source files, starting at collection;
that cache goes to a temporary directory removed after the run, so the
suite writes no ``.hypothesis/`` directory.
"""

import tempfile

from hypothesis import configuration, settings

settings.register_profile("mapgroups", derandomize=True, database=None, deadline=None)
settings.load_profile("mapgroups")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(storage.name)
    config.add_cleanup(storage.cleanup)
    config.add_cleanup(lambda: configuration.set_hypothesis_home_dir(None))
