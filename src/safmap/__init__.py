"""Stuck-at-fault aware weight mapping for bit-sliced compute-in-memory
crossbars: closest-value mapping, sign-flip and bit-flip transformations,
a precomputed mapping table, a bit-exact functional crossbar simulator
and a Monte Carlo evaluation harness."""

__version__ = "0.1.0"

from .crossbar import (
    ActivationVector,
    CrossbarConfig,
    DimensionMismatchError,
    mvm_exact,
    mvm_simulate,
    mvm_simulate_batch,
)
from .faults import (
    FAULT_FREE,
    SA0,
    SA1,
    FaultInjectionSpec,
    InvalidRateError,
    SafMask,
    count_unmasked,
    gen_saf_mask,
)
from .harness import EvalReport, SweepSpec, bench_lut, run_inference, run_sweep
from .lut import CvmLut, build_cvm_lut, load_or_build, read_lut, write_lut
from .mapping import (
    ChunkGeometry,
    LayerWeights,
    MappedLayout,
    SCHEMES,
    UnsignedLayerError,
    build_layout,
    mapping_error,
)
from .numfmt import MODE_TWOS_COMPLEMENT, MODE_UNSIGNED, OutOfRangeError, decode
from .quant import NonFiniteError, QuantizedTensor, quantize
from .toymodel import ToyModel, TrainingDivergedError, make_blob_dataset, train_toy
