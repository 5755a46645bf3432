"""Per-table/figure reproduction drivers (see DESIGN.md §4 for the index).

Each module regenerates one paper artifact:

* :mod:`.table1` — Table 1 (gossip trade-offs, all rows).
* :mod:`.table2` — Table 2 (consensus trade-offs, all rows).
* :mod:`.theorem1` — Theorem 1 / Figure 1 (the adaptive lower bound).
* :mod:`.corollary2` — Corollary 2 (cost of asynchrony).
* :mod:`.scaling` — scaling-shape validation of the Table 1 columns.
"""

from .._util import lazy_exports

# name -> defining submodule, imported on first use (see lazy_exports):
# a pool worker that wants TrialPool does not load the report generator.
_EXPORTS = {
    "CampaignDrained": "campaign",
    "DRAIN_EXIT_CODE": "campaign",
    "GracefulShutdown": "campaign",
    "run_jobs": "campaign",
    "Corollary2Row": "corollary2",
    "format_corollary2": "corollary2",
    "run_coa_growth": "corollary2",
    "run_corollary2": "corollary2",
    "GridSpec": "grid",
    "aggregate": "grid",
    "open_grid_store": "grid",
    "TrialPool": "pool",
    "EarsMilestones": "lemmas",
    "TearsLemmaReport": "lemmas",
    "measure_ears_milestones": "lemmas",
    "measure_tears_lemmas": "lemmas",
    "ReportConfig": "report",
    "generate_report": "report",
    "ScalingRow": "scaling",
    "format_scaling": "scaling",
    "ordering_is_correct": "scaling",
    "run_message_scaling": "scaling",
    "run_time_scaling": "scaling",
    "run_time_vs_latency": "scaling",
    "Table1Row": "table1",
    "format_table1": "table1",
    "run_table1": "table1",
    "Table2Row": "table2",
    "format_table2": "table2",
    "run_table2": "table2",
    "PORTFOLIO": "theorem1",
    "Theorem1Row": "theorem1",
    "format_theorem1": "theorem1",
    "run_theorem1": "theorem1",
    "theorem1_rows": "theorem1",
    "theorem1_specs": "theorem1",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
