"""Clustering algorithms for the search-space pruning method.

The paper experiments with three families — x-means, canopy and
agglomerative hierarchical clustering — fitted on a 10 % sample with
the remaining points assigned to the identified clusters.  Each
algorithm here exposes the same two-step interface::

    model = XMeans(max_k=20, seed=7)
    labels = model.fit_assign(sample, full_matrix)

``sample`` is the subset used to discover clusters; ``full_matrix`` is
every observation's feature vector (binary occurrence-matrix rows).
"""

from repro.paper.clustering.canopy import CanopyClustering
from repro.paper.clustering.hierarchical import HierarchicalClustering
from repro.paper.clustering.kmeans import KMeans, assign_to_centroids
from repro.paper.clustering.xmeans import XMeans

__all__ = [
    "KMeans",
    "XMeans",
    "CanopyClustering",
    "HierarchicalClustering",
    "assign_to_centroids",
]
