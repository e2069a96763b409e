"""Sectoral dynamics of startup venture financing.

Funding-round ingestion, investor strategy profiles in sector space,
barycenter trajectories through a PCA plane, tensor component analysis of
the investor x sector x year activity tensor, distance and concentration
metrics with uncertainty propagation, and synthetic ecosystems with
planted ground truth to verify all of it.

Every name lives in its module (``sectorspace.pca``, ``sectorspace.tca``,
...); the package re-exports only the loader, the startup filter and the
sector ontology.
"""
__version__ = "0.1.0"  # pyproject.toml reads it; run manifests record it

from .ingest import filter_startups, load_dataset
from .ontology import SectorOntology
