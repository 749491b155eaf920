"""capeskit: desk-scale hybrid ensemble seasonal-forecasting toolkit."""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    AnomalyField,
    Climatology,
    GridField,
    GridSpec,
    anomaly_percent,
    read_grid,
    write_grid,
)
from .verify import PsBreakdown, acc, classify, ps_breakdown, ps_score, rmse  # noqa: F401
from .fusion import (  # noqa: F401
    EnsembleSet,
    FusionConfig,
    MemberMeta,
    contribution_scores,
    fuse,
)
