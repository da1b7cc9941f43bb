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
from .blockcompile import compile_block
from .hooks import RuntimeHooks
from .interpreter import ExecutionLimitExceeded, Frame, Interpreter
from .tracefuse import compile_trace

__all__ = [
    "CORE_EMULATION_COST", "DEFAULT_COST", "DIV_COST", "INSTRUCTION_COSTS",
    "REGION_SWITCH_COST", "SANITIZE_CHECK_COST", "STACK_RELOCATE_WORD_COST",
    "SWITCH_BASE_COST", "SYNC_WORD_COST",
    "compile_block", "compile_trace",
    "BatchLane", "BatchResult", "BatchRunner",
    "RuntimeHooks", "ExecutionLimitExceeded", "Frame", "Interpreter",
]
