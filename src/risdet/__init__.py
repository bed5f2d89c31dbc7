"""Surface-assisted radar detection: detectors, experiments, aperture design."""

__version__ = "0.1.0"
