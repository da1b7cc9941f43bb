"""Per-layer metrics of the repository benchmark, and why each exists.

Every per-layer metric comes from a traced run.  Each row records the
end-to-end metric and workload the layer metric should move, and the
workload on which the prediction is *no change* — written down before
any change is measured against it (see ``README.md``).

``BENCHMARK.json`` lists the same names, units and directions; the
self-check (``selfcheck.py``) fails if the two drift apart.

Layers are named after the ``src/repro`` packages.  "Self time" is a
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    what: str
    moves: str              # end-to-end metric it should move
    on: str                 # workload(s) where it should move it
    unchanged_on: str       # workload where the prediction is no change


_m = LayerMetric

LAYER_METRICS: tuple[LayerMetric, ...] = (
    # interp: the simulator's dispatch loop.
    _m("interp.run_s", "s", "lower",
       "self time in Interpreter.run and BatchRunner.run",
       "wall_s", "eval_cold", "eval_warm"),
    _m("interp.instructions", "count", "lower",
       "simulated instructions executed (Interpreter.instructions_executed)",
       "wall_s", "eval_cold", "eval_warm"),
    _m("interp.insts_per_s", "1/s", "higher",
       "interp.instructions over inclusive Interpreter.run/BatchRunner.run time",
       "wall_s", "eval_cold", "eval_warm"),
    _m("hw.mmio_reads", "count", "lower",
       "host calls into a device mmio_read (MMIORegion.read)",
       "wall_s", "eval_cold", "eval_warm"),
    # interp codegen.
    _m("interp.codegen_s", "s", "lower",
       "self time in compile_block + compile_trace, at the caller's names",
       "wall_s", "campaign", "eval_warm"),
    _m("interp.blocks_compiled", "count", "lower",
       "compute_all_rows()['compile'] / envelope blockcompile.blocks_compiled",
       "wall_s", "campaign", "eval_warm"),
    _m("interp.trace_accept_ratio", "ratio", "higher",
       "traces compiled / (traces compiled + traces rejected)",
       "wall_s", "campaign", "eval_warm"),
    _m("interp.trace_entry_share", "ratio", "higher",
       "trace entries / block entries",
       "wall_s", "campaign", "eval_warm"),
    _m("interp.closures_loaded", "count", "higher",
       "closure-cache blocks + traces loaded from the store",
       "wall_s", "campaign", "eval_warm"),
    _m("interp.fallback_steps", "count", "lower",
       "single-step fallbacks of the block tier",
       "wall_s", "campaign", "eval_warm"),
    _m("interp.compile_errors", "count", "lower",
       "blocks whose codegen failed (silent degradation)",
       "wall_s", "campaign", "eval_warm"),
    # hw: simulated counters, identical under any simulator-only change.
    _m("hw.loads", "count", "lower",
       "simulated loads (MachineStats.loads, every simulation run)",
       "none (simulated)", "every workload", "every workload"),
    _m("hw.stores", "count", "lower",
       "simulated stores (MachineStats.stores, every simulation run)",
       "none (simulated)", "every workload", "every workload"),
    _m("hw.faults", "count", "lower",
       "simulated MemManage + BusFault exceptions",
       "none (simulated)", "every workload", "every workload"),
    _m("hw.cycles", "count", "lower",
       "simulated DWT cycles summed over every simulation run",
       "none (simulated)", "every workload", "every workload"),
    _m("hw.region_compile_s", "s", "lower",
       "self time in compile_regions_to_pmp / compile_regions_to_overlay",
       "wall_s", "campaign", "eval_warm"),
    _m("hw.region_compiles", "count", "lower",
       "calls of compile_regions_to_pmp / compile_regions_to_overlay",
       "wall_s", "campaign", "eval_warm"),
    _m("hw.machine_setup_s", "s", "lower",
       "self time in prepare_machine",
       "wall_s, peak_rss_mb", "campaign", "eval_warm"),
    # runtime: the OPEC monitor.
    _m("runtime.switch_s", "s", "lower",
       "self time in OpecMonitor.before_call / after_return",
       "wall_s", "campaign, eval_cold", "eval_warm"),
    _m("runtime.switches", "count", "lower",
       "OpecMonitor.before_call calls",
       "wall_s", "campaign, eval_cold", "eval_warm"),
    _m("runtime.fault_s", "s", "lower",
       "self time in OpecMonitor.handle_memmanage / handle_busfault",
       "wall_s", "campaign, eval_cold", "eval_warm"),
    _m("runtime.faults", "count", "lower",
       "OpecMonitor.handle_memmanage / handle_busfault calls",
       "wall_s", "campaign, eval_cold", "eval_warm"),
    # baselines: ACES.
    _m("baselines.aces_switch_s", "s", "lower",
       "self time in AcesRuntime.before_call / after_return",
       "wall_s", "eval_cold", "eval_warm"),
    _m("baselines.aces_switches", "count", "lower",
       "AcesRuntime.before_call calls",
       "wall_s", "eval_cold", "eval_warm"),
    _m("baselines.aces_build_s", "s", "lower",
       "self time in build_aces",
       "wall_s", "campaign", "eval_warm"),
    # Compiler pipeline: ir / analysis / partition / image.
    _m("ir.verify_s", "s", "lower", "self time in verify_module",
       "wall_s", "campaign", "eval_warm"),
    _m("analysis.andersen_s", "s", "lower", "self time in run_andersen",
       "wall_s", "campaign", "eval_warm"),
    _m("analysis.callgraph_s", "s", "lower",
       "self time in build_call_graph",
       "wall_s", "campaign", "eval_warm"),
    _m("analysis.resources_s", "s", "lower",
       "self time in ResourceAnalysis.function_resources",
       "wall_s", "campaign", "eval_warm"),
    _m("partition.operations_s", "s", "lower",
       "self time in partition_operations",
       "wall_s", "campaign", "eval_warm"),
    _m("partition.policy_s", "s", "lower", "self time in build_policy",
       "wall_s", "campaign", "eval_warm"),
    _m("image.opec_s", "s", "lower", "self time in build_opec_image",
       "wall_s", "campaign", "eval_warm"),
    _m("image.vanilla_s", "s", "lower",
       "self time in build_vanilla_image",
       "wall_s", "campaign", "eval_warm"),
    # cache: the artifact store.
    _m("cache.get_s", "s", "lower", "self time in ArtifactStore.get",
       "wall_s", "eval_warm", "eval_cold"),
    _m("cache.digest_s", "s", "lower",
       "self time in module/build/run/trace digests and the fingerprint",
       "wall_s", "eval_warm", "none: every workload digests"),
    _m("cache.hit_ratio", "ratio", "higher",
       "store hits / (hits + misses), from the returned counters",
       "wall_s", "eval_warm", "eval_cold"),
    _m("cache.bytes_read", "B", "lower",
       "store bytes read, from the returned counters",
       "wall_s", "eval_warm", "eval_cold"),
    _m("cache.put_s", "s", "lower", "self time in ArtifactStore.put",
       "wall_s", "eval_cold, campaign", "eval_warm"),
    _m("cache.bytes_written", "B", "lower",
       "store bytes written, from the returned counters",
       "wall_s", "eval_cold, campaign", "eval_warm"),
    # eval.
    _m("eval.task_trace_s", "s", "lower",
       "inclusive time in trace_tasks (Figure 11 re-simulation)",
       "wall_s", "eval_cold", "eval_warm"),
    # campaign.
    _m("campaign.generate_s", "s", "lower",
       "self time in generate_firmware",
       "wall_s", "campaign", "eval_cold"),
    _m("campaign.firmware_p50_s", "s", "lower",
       "median inclusive time of one evaluate_firmware call",
       "wall_s", "campaign", "eval_cold"),
    _m("campaign.firmware_p90_s", "s", "lower",
       "90th-percentile inclusive time of one evaluate_firmware call",
       "wall_s", "campaign", "eval_cold"),
    _m("campaign.lanes", "count", "higher",
       "attack and baseline lanes classified",
       "wall_s", "campaign", "eval_cold"),
    # obs.
    _m("obs.capture_s", "s", "lower",
       "self time in fleet.begin_capture / end_capture",
       "wall_s (should stay small)", "every workload", "every workload"),
    # The tracer itself.
    _m("trace_overhead_pct", "%", "lower",
       "traced wall_s over the untraced median of the same run, minus 1",
       "none (measurement cost)", "every workload", "every workload"),
)


#: Spans the traced run records: (span name, module, attribute path).
#: A function is replaced at every name a ``repro`` module binds it
#: under, so callers that imported it by name see the wrapper too.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("interp.run", "repro.interp.interpreter", "Interpreter.run"),
    ("interp.run", "repro.interp.batch", "BatchRunner.run"),
    ("interp.codegen", "repro.interp.blockcompile", "compile_block"),
    ("interp.codegen", "repro.interp.tracefuse", "compile_trace"),
    ("hw.region_compile", "repro.hw.pmp", "compile_regions_to_pmp"),
    ("hw.region_compile", "repro.hw.overlay", "compile_regions_to_overlay"),
    ("hw.machine_setup", "repro.pipeline", "prepare_machine"),
    ("runtime.switch_in", "repro.runtime.monitor", "OpecMonitor.before_call"),
    ("runtime.switch_out", "repro.runtime.monitor",
     "OpecMonitor.after_return"),
    ("runtime.fault", "repro.runtime.monitor", "OpecMonitor.handle_memmanage"),
    ("runtime.fault", "repro.runtime.monitor", "OpecMonitor.handle_busfault"),
    ("baselines.aces_switch_in", "repro.baselines.aces.runtime",
     "AcesRuntime.before_call"),
    ("baselines.aces_switch_out", "repro.baselines.aces.runtime",
     "AcesRuntime.after_return"),
    ("baselines.aces_build", "repro.baselines", "build_aces"),
    ("ir.verify", "repro.ir.verifier", "verify_module"),
    ("analysis.andersen", "repro.analysis.andersen", "run_andersen"),
    ("analysis.callgraph", "repro.analysis.callgraph", "build_call_graph"),
    ("analysis.resources", "repro.analysis.resources",
     "ResourceAnalysis.function_resources"),
    ("partition.operations", "repro.partition.operations",
     "partition_operations"),
    ("partition.policy", "repro.partition.policy", "build_policy"),
    ("image.opec", "repro.image.linker", "build_opec_image"),
    ("image.vanilla", "repro.image.layout", "build_vanilla_image"),
    ("cache.get", "repro.cache.store", "ArtifactStore.get"),
    ("cache.put", "repro.cache.store", "ArtifactStore.put"),
    ("cache.digest", "repro.cache.digest", "module_digest"),
    ("cache.digest", "repro.cache.digest", "build_digest"),
    ("cache.digest", "repro.cache.digest", "run_digest"),
    ("cache.digest", "repro.cache.digest", "trace_digest"),
    ("cache.digest", "repro.cache.digest", "pipeline_fingerprint"),
    ("eval.task_trace", "repro.eval.tracing", "trace_tasks"),
    ("campaign.generate", "repro.campaign.generator", "generate_firmware"),
    ("campaign.firmware", "repro.campaign.engine", "evaluate_firmware"),
    ("obs.capture", "repro.obs.fleet", "begin_capture"),
    ("obs.capture", "repro.obs.fleet", "end_capture"),
)

#: Calls counted without a span: too frequent to time one by one.
COUNTS: tuple[tuple[str, str, str], ...] = (
    ("hw.mmio_reads", "repro.hw.memory", "MMIORegion.read"),
)

#: Self-time metrics: metric name -> spans whose self time it sums.
SELF_TIME = {
    "interp.run_s": ("interp.run",),
    "interp.codegen_s": ("interp.codegen",),
    "hw.region_compile_s": ("hw.region_compile",),
    "hw.machine_setup_s": ("hw.machine_setup",),
    "runtime.switch_s": ("runtime.switch_in", "runtime.switch_out"),
    "runtime.fault_s": ("runtime.fault",),
    "baselines.aces_switch_s": ("baselines.aces_switch_in",
                                "baselines.aces_switch_out"),
    "baselines.aces_build_s": ("baselines.aces_build",),
    "ir.verify_s": ("ir.verify",),
    "analysis.andersen_s": ("analysis.andersen",),
    "analysis.callgraph_s": ("analysis.callgraph",),
    "analysis.resources_s": ("analysis.resources",),
    "partition.operations_s": ("partition.operations",),
    "partition.policy_s": ("partition.policy",),
    "image.opec_s": ("image.opec",),
    "image.vanilla_s": ("image.vanilla",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
    "cache.digest_s": ("cache.digest",),
    "campaign.generate_s": ("campaign.generate",),
    "obs.capture_s": ("obs.capture",),
}

#: Inclusive-time metrics: metric name -> spans whose durations it sums.
INCLUSIVE_TIME = {
    "eval.task_trace_s": ("eval.task_trace",),
}

#: Count metrics: metric name -> spans whose number of calls it is.
CALLS = {
    "hw.region_compiles": ("hw.region_compile",),
    "runtime.switches": ("runtime.switch_in",),
    "runtime.faults": ("runtime.fault",),
    "baselines.aces_switches": ("baselines.aces_switch_in",),
}
