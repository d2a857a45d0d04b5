"""repro — reproduction of Lange et al., "On the Estimation of Complex
Circuits Functional Failure Rate by Machine Learning Techniques" (DSN 2019).

The package is organized bottom-up, mirroring the paper's flow (Fig. 1):

``repro.netlist``
    Gate-level netlist model on a NanGate-like cell library, with
    structural Verilog I/O.
``repro.synth``
    RTL abstraction + technology mapping (the Synopsys DC substitute).
``repro.circuits``
    Benchmark designs, most importantly the 10GE-MAC-style core and its
    frame-streaming workload.
``repro.sim``
    The compiled bit-parallel cycle simulator every campaign runs on, plus
    the event-driven (0/1/X) reference simulator, testbench framework and
    activity tracing.  See ``docs/simulators.md``.
``repro.faultinjection``
    SEU campaigns: golden-trajectory replay, bit-parallel forward fault
    simulation, failure classification, FDR statistics.
``repro.campaigns``
    The parallel campaign engine: sharded multi-process execution with a
    persistent, resumable, content-addressed result store.
``repro.features``
    The paper's per-flip-flop feature set (structural / synthesis /
    dynamic) and dataset assembly.
``repro.ml``
    From-scratch models and model selection (Linear Least Squares, k-NN,
    ε-SVR + the future-work models; stratified CV, random+grid search,
    learning curves, the five paper metrics).
``repro.flow``
    The end-to-end estimation flow (the paper's Fig. 1) plus text rendering.
``repro.experiments``
    One runner per paper table/figure (Table I, Figs. 2-4) plus
    future-work, ablation and tuning extensions.
``repro.data``
    Cached dataset generation at three scales (tiny / mini / full).
``repro.verify``
    Differential verification: seeded circuit fuzzer, independent
    reference oracle, engine-vs-oracle diff harness with shrinking.
"""

# Defined before the submodule imports: repro.data records it as dataset
# provenance and imports it back from here.
__version__ = "1.4.0"

from . import (
    campaigns,
    circuits,
    experiments,
    faultinjection,
    features,
    flow,
    ml,
    netlist,
    sim,
    synth,
    verify,
)
from .data import DATASET_PRESETS, DatasetSpec, generate_dataset, get_dataset

__all__ = [
    "campaigns",
    "circuits",
    "experiments",
    "faultinjection",
    "features",
    "flow",
    "ml",
    "netlist",
    "sim",
    "synth",
    "verify",
    "DATASET_PRESETS",
    "DatasetSpec",
    "generate_dataset",
    "get_dataset",
    "__version__",
]
