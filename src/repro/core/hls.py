"""The KV-Direct development toolchain model (section 3.2).

"The KV-Direct development toolchain duplicates the λ several times to
leverage parallelism in FPGA and match computation throughput with PCIe
throughput, then compiles it into reconfigurable hardware logic using an
high-level synthesis (HLS) tool.  The HLS tool automatically extracts data
dependencies in the duplicated function and generates a fully pipelined
programmable logic."

This module models that compilation step:

- the **duplication factor** is computed so that ``duplication x clock``
  element-updates per second match the PCIe payload rate at the λ's
  element width;
- the **resource estimate** charges FPGA logic per λ operation (counted
  from the Python bytecode - a deterministic stand-in for the HLS
  datapath) times the duplication factor, against the Stratix V budget;
- the result is a :class:`CompiledFunction` whose
  :meth:`~CompiledFunction.cycles_for` gives the pipeline occupancy of a
  vector operation, which the KV processor charges.
"""

from __future__ import annotations

import dis
import math
from dataclasses import dataclass
from typing import Dict

from repro import constants
from repro.core.vector import VectorFunction
from repro.errors import KVDirectError

#: Adaptive logic modules on the paper's Intel Stratix V FPGA.
STRATIX_V_ALMS = 234_720

#: ALMs charged per λ bytecode operation per duplicated lane.  Calibrated
#: so that "comparing 10x 13-byte keys in parallel would take 40 % of our
#: FPGA's logic resource" style costs are the right order of magnitude.
ALMS_PER_OP_PER_LANE = 64

#: Fraction of the FPGA available to user λs (the KV processor itself
#: occupies the rest).
USER_LOGIC_BUDGET = 0.4


@dataclass(frozen=True)
class CompiledFunction:
    """A λ after 'hardware compilation'."""

    func: VectorFunction
    #: Parallel λ lanes instantiated.
    duplication: int
    #: Estimated datapath operations per lane (from bytecode).
    operations: int
    #: Estimated FPGA resources consumed.
    alms: int

    def cycles_for(self, nelements: int) -> int:
        """Pipeline cycles to stream a vector through the λ lanes."""
        if nelements <= 0:
            return 0
        return math.ceil(nelements / self.duplication)


class HLSToolchain:
    """Compiles registered λs against the 180 MHz clock, the PCIe rate and
    the Stratix V logic budget."""

    def __init__(self) -> None:
        self.alm_budget = int(STRATIX_V_ALMS * USER_LOGIC_BUDGET)
        self._compiled: Dict[int, CompiledFunction] = {}
        self.alms_used = 0

    # -- compilation ------------------------------------------------------------

    def duplication_for(self, element_size: int) -> int:
        """Lanes needed so computation keeps up with PCIe payload rate."""
        elements_per_sec = constants.PCIE_ACHIEVABLE_BANDWIDTH / element_size
        return max(1, math.ceil(elements_per_sec / constants.KV_CLOCK_HZ))

    @staticmethod
    def estimate_operations(func: VectorFunction) -> int:
        """Datapath size of the λ, counted from its bytecode."""
        try:
            instructions = list(dis.get_instructions(func.fn))
        except TypeError:
            # Builtins (e.g. ``max``) have no bytecode: one fused op.
            return 1
        # Loads/stores melt into wiring; everything else is datapath.
        datapath = [
            ins
            for ins in instructions
            if not ins.opname.startswith(("LOAD_", "STORE_", "RESUME",
                                          "RETURN", "COPY", "PUSH", "POP"))
        ]
        return max(1, len(datapath))

    def compile(self, func: VectorFunction) -> CompiledFunction:
        """'Pre-register and compile to hardware logic before executing'."""
        if func.func_id in self._compiled:
            return self._compiled[func.func_id]
        duplication = self.duplication_for(func.element_size)
        operations = self.estimate_operations(func)
        alms = operations * duplication * ALMS_PER_OP_PER_LANE
        if self.alms_used + alms > self.alm_budget:
            raise KVDirectError(
                f"λ '{func.name}' needs {alms} ALMs; only "
                f"{self.alm_budget - self.alms_used} of the user budget left"
            )
        compiled = CompiledFunction(func, duplication, operations, alms)
        self._compiled[func.func_id] = compiled
        self.alms_used += alms
        return compiled

    # -- lookup -------------------------------------------------------------------

    def lookup(self, func_id: int) -> CompiledFunction:
        try:
            return self._compiled[func_id]
        except KeyError:
            raise KVDirectError(
                f"function {func_id} was not compiled to hardware"
            )

    def __contains__(self, func_id: int) -> bool:
        return func_id in self._compiled

    @property
    def utilization(self) -> float:
        """Fraction of the user logic budget consumed."""
        return self.alms_used / self.alm_budget
