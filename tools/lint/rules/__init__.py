"""The shipped lint rules.

Importing this package populates :data:`tools.lint.core.REGISTRY` — each
rule module registers its rule class via the :func:`~tools.lint.core.register`
decorator at import time.  See ``docs/STATIC_ANALYSIS.md`` for the
invariant behind each rule.
"""

from __future__ import annotations

from . import api_annotations  # noqa: F401 (registers api-annotations)
from . import exception_discipline  # noqa: F401 (registers exception-discipline)
from . import lock_discipline  # noqa: F401 (registers lock-discipline)
from . import payload_pickle_safety  # noqa: F401 (registers payload-pickle-safety)
from . import rng_discipline  # noqa: F401 (registers rng-discipline)
from . import unused_import  # noqa: F401 (registers unused-import)
from . import wallclock_discipline  # noqa: F401 (registers wallclock-discipline)
