"""One Hypothesis profile for the whole suite: the same examples on every
run (derandomized), no example database written, and no per-example
deadline, which a loaded host would trip.  The "mutants" profile, which
`tools/mutants.py` selects with `--hypothesis-profile=mutants`, is the same
without the shrink phase: a planted defect fails on the first failing
example as it would on the shrunk one, without the time shrinking takes.

A failing Hypothesis test imports `hypothesis.extra._patching` to report
its failing example.  Where libcst is installed, that import warns
(`mypy_extensions.TypedDict is deprecated`), and pyproject's
`filterwarnings = ["error"]` would turn the warning into an INTERNALERROR
that ends the session.  The hook below imports the module first, with that
one warning ignored, so the test reports as an ordinary failure."""

import contextlib
import warnings

from hypothesis import Phase, settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("mutants", settings.get_profile("tier1"),
                          phases=[phase for phase in Phase if phase != Phase.shrink])
settings.load_profile("tier1")


def pytest_runtest_makereport(item, call):
    if call.excinfo is not None:
        with warnings.catch_warnings(), contextlib.suppress(ImportError):
            warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                    DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401
