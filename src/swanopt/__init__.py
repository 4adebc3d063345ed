"""Segmented-waveguide pinching-antenna uplink: channel model, analytical
sum-rate bounds, and greedy segment-activation / placement / phase optimizers.
"""

from .bound import (
    ProjectionOutOfRangeError,
    SegmentSplit,
    exact_amplitude_bound,
    f_exact,
    f_integral,
    split_for_user,
    sum_rate_bound,
    user_gain_bound,
)
from .channel import (
    cascaded_gain_matrix,
    placement_sum_rate,
    segment_gains,
    sum_rate,
)
from .geometry import (
    SPEED_OF_LIGHT_M_S,
    Placement,
    SystemParams,
    User,
    UserSet,
    WaveguideLayout,
    build_centered_layout,
    dbm_to_watts,
    sample_users,
)
from .harness import (
    SCHEMES,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    run_bound_sweep,
    run_segment_sweep,
    run_single,
    run_user_sweep,
    sweep_csv_text,
    trace_csv_text,
    write_sweep_result,
    write_trace_result,
)
from .harness import TOOL_VERSION as __version__
from .optimize import (
    GreedyTrace,
    PhaseOptResult,
    TraceLevel,
    build_phase_matrix,
    candidate_grid,
    full_sa_baseline,
    greedy_hssa_type1,
    greedy_hssa_type2,
    grid_gain_table,
    phase_alternating_opt,
)
