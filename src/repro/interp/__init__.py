"""IR interpreter running linked firmware images on the simulated machine."""

from .costs import (
    CORE_EMULATION_COST,
    DEFAULT_COST,
    DIV_COST,
    INSTRUCTION_COSTS,
    REGION_SWITCH_COST,
    SANITIZE_CHECK_COST,
    STACK_RELOCATE_WORD_COST,
    SWITCH_BASE_COST,
    SYNC_WORD_COST,
)
from .batch import BatchLane, BatchResult, BatchRunner
from .blockcompile import (
    BLOCKCOMPILE_OFF_VALUES,
    BLOCKCOMPILE_ON_VALUES,
    block_compile_enabled,
    compile_block,
)
from .hooks import RuntimeHooks
from .interpreter import ExecutionLimitExceeded, Frame, Interpreter
from .tracefuse import (
    DEFAULT_TRACE_THRESHOLD,
    TRACEFUSE_OFF_VALUES,
    TRACEFUSE_ON_VALUES,
    compile_trace,
    trace_fuse_enabled,
    trace_threshold,
)

__all__ = [
    "CORE_EMULATION_COST", "DEFAULT_COST", "DIV_COST", "INSTRUCTION_COSTS",
    "REGION_SWITCH_COST", "SANITIZE_CHECK_COST", "STACK_RELOCATE_WORD_COST",
    "SWITCH_BASE_COST", "SYNC_WORD_COST",
    "BLOCKCOMPILE_OFF_VALUES", "BLOCKCOMPILE_ON_VALUES",
    "block_compile_enabled", "compile_block",
    "DEFAULT_TRACE_THRESHOLD", "TRACEFUSE_OFF_VALUES", "TRACEFUSE_ON_VALUES",
    "compile_trace", "trace_fuse_enabled", "trace_threshold",
    "BatchLane", "BatchResult", "BatchRunner",
    "RuntimeHooks", "ExecutionLimitExceeded", "Frame", "Interpreter",
]
