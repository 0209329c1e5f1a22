"""Experiment harness: runners, sweeps, comparisons, ablations, tables."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - tooling only; names resolve lazily
    from repro.analysis.ablations import (
        FlagAblationResult,
        run_flag_ablation,
        run_modulus_ablation,
        run_naive_ablation,
    )
    from repro.analysis.compare import (
        MutexComparison,
        aggregate_comparison,
        compare_mutex_protocols,
    )
    from repro.analysis.experiments import (
        Figure1Result,
        run_capacity_sweep,
        run_figure1,
        run_impossibility_experiment,
        run_property1_check,
    )
    from repro.analysis.metrics import Summary, summarize
    from repro.analysis.runner import (
        TrialResult,
        pif_scaling_row,
        run_idl_trial,
        run_mutex_trial,
        run_pif_trial,
        run_trial,
        sweep,
    )
    from repro.analysis.tables import render_table

__all__ = [
    "Figure1Result",
    "FlagAblationResult",
    "MutexComparison",
    "Summary",
    "TrialResult",
    "aggregate_comparison",
    "compare_mutex_protocols",
    "pif_scaling_row",
    "render_table",
    "run_capacity_sweep",
    "run_figure1",
    "run_flag_ablation",
    "run_idl_trial",
    "run_impossibility_experiment",
    "run_modulus_ablation",
    "run_mutex_trial",
    "run_naive_ablation",
    "run_pif_trial",
    "run_property1_check",
    "run_trial",
    "summarize",
    "sweep",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "ablations": (
        "FlagAblationResult", "run_flag_ablation", "run_modulus_ablation",
        "run_naive_ablation",
    ),
    "compare": (
        "MutexComparison", "aggregate_comparison", "compare_mutex_protocols",
    ),
    "experiments": (
        "Figure1Result", "run_capacity_sweep", "run_figure1",
        "run_impossibility_experiment", "run_property1_check",
    ),
    "metrics": ("Summary", "summarize"),
    "runner": (
        "TrialResult", "pif_scaling_row", "run_idl_trial",
        "run_mutex_trial", "run_pif_trial", "run_trial", "sweep",
    ),
    "tables": ("render_table",),
})
