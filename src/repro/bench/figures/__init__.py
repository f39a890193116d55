"""One module per paper figure.

Each module exposes ``run(profile)`` / ``render(records)`` / ``main()``
and registers itself with :mod:`repro.bench.registry` at import time —
importing this package populates the registry the CLI resolves names
from.
"""

from repro.bench.figures import (  # noqa: F401 - imported for registration
    fig4,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig_checkpoint,
    fig_cluster_recovery,
    fig_failover,
    fig_prefetch,
    fig_recovery,
    fig_rescale,
    fig_skew,
)
