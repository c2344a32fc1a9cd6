"""Test-session set-up.

Under ``filterwarnings = ["error"]`` a failing hypothesis test would abort the
whole session with INTERNALERROR: hypothesis's failure report imports
``hypothesis.extra._patching``, whose import raises a DeprecationWarning about
``mypy_extensions.TypedDict``.  Importing that module once here, with the one
warning ignored only for the duration of the import, lets the report find it
already loaded; the session's warning filters are left as they are.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    import hypothesis.extra._patching  # noqa: F401
