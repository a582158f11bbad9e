"""Workload generators: YCSB-style GET/PUT mixes, uniform and Zipf keys.

Section 5: "For system benchmark, we use YCSB workload.  For skewed Zipf
workload, we choose skewness 0.99 and refer it as long-tail workload."
"""

from repro.workloads.keyspace import KeySpace
from repro.workloads.trace import TraceReader, TraceWriter
from repro.workloads.ycsb import WorkloadSpec, YCSBGenerator
from repro.workloads.ycsb_standard import StandardYCSB
from repro.workloads.zipf import UniformSampler, ZipfSampler

__all__ = [
    "KeySpace",
    "StandardYCSB",
    "TraceReader",
    "TraceWriter",
    "UniformSampler",
    "WorkloadSpec",
    "YCSBGenerator",
    "ZipfSampler",
]
