"""Static analyzer recommending runtime-permission request insertion points,
plus a permission-usage corpus auditor."""

from .analysis import (
    AnalysisReport,
    Limits,
    SensitiveSite,
    cha_reach_partition,
    find_sensitive_sites,
    traverse,
    write_report,
)
from .cfa1 import Context, filter_edges, refine_pts
from .collector import (
    EvalLabels,
    PermissionUsage,
    classify,
    collect_usage,
    compare_specs,
    coverage,
    coverage_from_counts,
    eval_metrics,
    overprivilege_report,
)
from .entrypoints import CallbackRef, detect_callbacks, generate_dummy_main
from .hierarchy import ClassHierarchy, build_hierarchy
from .model import (
    AppModel,
    LinkConfig,
    LinkedProgram,
    SiteId,
    link_program,
    load_app,
    serialize,
)
from .permspec import (
    DocCandidate,
    GroupTable,
    PermissionSpec,
    SpecEntry,
    filter_dangerous,
    load_groups,
    load_spec,
    merge_specs,
    mine_doc_candidates,
)
from .pointsto import CallGraph, PointsToSolution, augment_call_graph, solve_0cfa

__version__ = "0.1.0"
