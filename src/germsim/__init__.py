"""Germ couplings of drifted Brownian motions: simulation and verification."""

__version__ = "0.1.0"

from .coupling import (
    first_meeting,
    germ_transform,
    invert_time,
    reflect_after_last_visit,
    sample_coupled_pair,
)
from .paths import (
    CsvFormatError,
    DriftedLaw,
    Path,
    TimeGrid,
    line_value,
    read_csv,
    write_csv,
)
from .rng import RngStream, substream
from .stats import (
    Ecdf,
    GofReport,
    branch_probability,
    fragmentation_cdf,
    ks_statistic,
    ks_threshold,
    levy_cdf,
    std_normal_cdf,
)
from .subordinator import (
    DriftGrid,
    fragmentation_process,
    fragmentation_process_dual,
    sample_passage_time,
)
from .verify import VerifyConfig, run_verification

__all__ = [
    "CsvFormatError",
    "DriftGrid",
    "DriftedLaw",
    "Ecdf",
    "GofReport",
    "Path",
    "RngStream",
    "TimeGrid",
    "VerifyConfig",
    "branch_probability",
    "first_meeting",
    "fragmentation_cdf",
    "fragmentation_process",
    "fragmentation_process_dual",
    "germ_transform",
    "invert_time",
    "ks_statistic",
    "ks_threshold",
    "levy_cdf",
    "line_value",
    "read_csv",
    "reflect_after_last_visit",
    "run_verification",
    "sample_coupled_pair",
    "sample_passage_time",
    "std_normal_cdf",
    "substream",
    "write_csv",
]
