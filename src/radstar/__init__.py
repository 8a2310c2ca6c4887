"""Radius constants of starlikeness for two fixed-second-coefficient
function classes, with exact-region verification oracles."""

from .core import (ClassId, ClassSpec, DiskSpec, Family, RadiusCondition,
                   RadiusResult, TargetSpec, Variant, class_from_coeff_mag,
                   default_target, make_class)
from .bounds import disk
from .regions import containment_threshold, region_boundary
from .solver import assemble_condition, compute_radius, radius_table, smallest_root_in_01
from .extremal import ExtremalId, log_deriv
from .verify import (adjudicate_variant, containment_scan, sharpness_check,
                     verify_cell)

__version__ = "0.1.0"
