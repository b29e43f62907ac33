"""Polygon-universal graph drawing: distance conditions, triangulation
sketches, plane-instance accommodation, and link-distance witnesses."""

from .model import Instance, PlaneInstance, validate_instance, graph_distances
from .conditions import (check_pair, check_triple, check_universality,
                         PairViolation, TripleViolation, UniversalityResult)
from .geometry import Point2, SimplePolygon, pt
from .triangulation import Triangulation, ear_clip, root_dual, validate_triangulation
from .sketch import sketch_linear, realize, validate_respecting, is_sketch

__all__ = [
    "Instance", "PlaneInstance", "validate_instance", "graph_distances",
    "check_pair", "check_triple", "check_universality",
    "PairViolation", "TripleViolation", "UniversalityResult",
    "Point2", "SimplePolygon", "pt",
    "Triangulation", "ear_clip", "root_dual", "validate_triangulation",
    "sketch_linear", "realize", "validate_respecting", "is_sketch",
]

__version__ = "0.1.0"
