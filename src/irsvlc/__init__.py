"""Monte Carlo simulator for indoor optical wireless links with reflector arrays.

The package estimates the symbol error rate of an on-off-keyed downlink whose
receiver has a random orientation and can be shadowed by randomly placed
blockers, with optional assistance from wall-mounted arrays of steerable
mirrors or metasurface patches.
"""

from .channel import (PatchSet, los_gain, nlos_gain, patch_incident_power, shadowed,
                      shadowed_mask, wall_patches)
from .config import (ConfigError, RunConfig, build_layout, build_scene, effective_sections,
                     load_config)
from .geometry import (OrientedBoxes, normalize, segments_intersect_box, unit_normal_from_polar,
                       vec3)
from .irs import (MirrorElement, ReflectorArray, ReflectorBank, mirror_element_gain,
                  optimal_mirror_normal)
from .scene import (BlockerModel, Luminaire, OrientationModel, PhotoDetector, Room, Scene,
                    build_arrays, sample_tilt_deg, sample_ue)
from .simulator import (SER_TARGET, Ensemble, RequiredSnr, Scenario, SerCurve, SnrGrid,
                        TrialGains, q_function, required_snr, run_trials, ser_curve, trial_rng)

__version__ = "0.1.0"

__all__ = [
    "BlockerModel", "ConfigError", "Ensemble", "Luminaire", "MirrorElement",
    "OrientationModel", "OrientedBoxes", "PatchSet", "PhotoDetector", "ReflectorArray",
    "ReflectorBank", "RequiredSnr", "Room", "RunConfig", "SER_TARGET", "Scenario",
    "Scene", "SerCurve", "SnrGrid", "TrialGains", "build_arrays", "build_layout", "build_scene",
    "effective_sections", "load_config", "los_gain", "mirror_element_gain", "nlos_gain",
    "normalize", "optimal_mirror_normal", "patch_incident_power", "q_function",
    "required_snr", "run_trials", "sample_tilt_deg", "sample_ue", "segments_intersect_box",
    "ser_curve", "shadowed", "shadowed_mask", "trial_rng", "unit_normal_from_polar", "vec3",
    "wall_patches",
]
