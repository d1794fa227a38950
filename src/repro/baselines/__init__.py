"""GPU baseline searchers the paper compares against (Section 6.1).

All baselines run functionally on the CPU but are *costed* on the same
simulated device as RTNN, so Fig. 11-style speedups are ratios of
modeled GPU time computed from mechanistic work/traffic counters:

* :mod:`brute` — the exact oracle (tests, the serving tier's degraded
  paths and the workload oracles; no cost model);
* :mod:`cunsearch` — uniform-grid fixed-radius search (cuNSearch);
* :mod:`frnn` — uniform-grid K-nearest-within-radius (FRNN);
* :mod:`pcl_octree` — adaptive linear octree radius/NN search
  (PCL-Octree; KNN supports K = 1 only, as in the paper);
* :mod:`fastrnn` — RT-core KNN *without* RTNN's optimizations
  (Evangelou et al.), i.e. Listing 1 verbatim.
"""

from repro.baselines.brute import brute_force_range, brute_force_knn
from repro.baselines.cunsearch import CuNSearch
from repro.baselines.frnn import FRNN
from repro.baselines.pcl_octree import PCLOctree
from repro.baselines.fastrnn import FastRNN
from repro.baselines.cpu import FlannKdTree, CompactNSearch, CpuSpec

__all__ = [
    "brute_force_range",
    "brute_force_knn",
    "CuNSearch",
    "FRNN",
    "PCLOctree",
    "FastRNN",
    "FlannKdTree",
    "CompactNSearch",
    "CpuSpec",
]
