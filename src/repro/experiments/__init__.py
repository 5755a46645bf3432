"""Per-table/figure reproduction drivers (see DESIGN.md §4 for the index).

Each module regenerates one paper artifact:

* :mod:`.table1` — Table 1 (gossip trade-offs, all rows).
* :mod:`.table2` — Table 2 (consensus trade-offs, all rows).
* :mod:`.theorem1` — Theorem 1 / Figure 1 (the adaptive lower bound).
* :mod:`.corollary2` — Corollary 2 (cost of asynchrony).
* :mod:`.scaling` — scaling-shape validation of the Table 1 columns.
"""

from .campaign import (
    CampaignDrained,
    CampaignManifest,
    DRAIN_EXIT_CODE,
    GracefulShutdown,
    run_jobs,
)
from .corollary2 import (
    Corollary2Row,
    format_corollary2,
    run_coa_growth,
    run_corollary2,
)
from .grid import GridRunner, GridSpec, aggregate
from .pool import TrialPool
from .lemmas import (
    EarsMilestones,
    TearsLemmaReport,
    measure_ears_milestones,
    measure_tears_lemmas,
)
from .report import ReportConfig, generate_report
from .scaling import (
    ScalingRow,
    format_scaling,
    ordering_is_correct,
    run_message_scaling,
    run_time_scaling,
    run_time_vs_latency,
)
from .table1 import Table1Row, format_table1, run_table1
from .table2 import Table2Row, format_table2, run_table2
from .theorem1 import PORTFOLIO, Theorem1Row, format_theorem1, run_theorem1

__all__ = [
    "CampaignDrained",
    "CampaignManifest",
    "Corollary2Row",
    "DRAIN_EXIT_CODE",
    "EarsMilestones",
    "GracefulShutdown",
    "GridRunner",
    "GridSpec",
    "PORTFOLIO",
    "aggregate",
    "ReportConfig",
    "ScalingRow",
    "Table1Row",
    "Table2Row",
    "TearsLemmaReport",
    "Theorem1Row",
    "TrialPool",
    "format_corollary2",
    "generate_report",
    "measure_ears_milestones",
    "measure_tears_lemmas",
    "run_coa_growth",
    "format_scaling",
    "format_table1",
    "format_table2",
    "format_theorem1",
    "ordering_is_correct",
    "run_corollary2",
    "run_jobs",
    "run_message_scaling",
    "run_table1",
    "run_table2",
    "run_theorem1",
    "run_time_scaling",
    "run_time_vs_latency",
]
