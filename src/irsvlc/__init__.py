"""Monte Carlo simulator for indoor optical wireless links with reflector arrays.

The package estimates the symbol error rate of an on-off-keyed downlink whose
receiver has a random orientation and can be shadowed by randomly placed
blockers, with optional assistance from wall-mounted arrays of steerable
mirrors or metasurface patches.
"""

from .channel import (PatchSet, WallPatch, diffuse_capture, los_gain, nlos_gain,
                      patch_incident_power, shadowed, shadowed_mask, wall_patches)
from .config import ConfigError, RunConfig, build_scene, effective_sections, load_config
from .geometry import (OrientedBox, Segment, cos_between, normalize, reflect,
                       segment_intersects_box, segments_intersect_box,
                       unit_normal_from_polar, vec3)
from .irs import (IrsChannelVector, MetasurfaceArray, MetasurfacePatch,
                  MirrorArray, MirrorAssignment, MirrorElement, ReflectorBank,
                  assign_mirrors_multi_ue, ma_channel_vector, ma_gain,
                  mirror_element_gain, msa_channel_vector, msa_gain,
                  optimal_mirror_normal)
from .scene import (BlockerModel, Luminaire, OrientationModel, PhotoDetector,
                    Room, Scene, build_metasurface_arrays, build_mirror_arrays,
                    default_scene, sample_blockers, sample_tilt_deg, sample_ue)
from .simulator import (SER_TARGET, Ensemble, RequiredSnr, Scenario, SerCurve,
                        SnrGrid, TrialGains, compute_trial, q_function, required_snr,
                        run_trials, ser_curve, trial_rng)

__version__ = "0.1.0"

__all__ = [
    "BlockerModel", "ConfigError", "Ensemble", "IrsChannelVector", "Luminaire",
    "MetasurfaceArray", "MetasurfacePatch", "MirrorArray", "MirrorAssignment",
    "MirrorElement", "OrientationModel", "OrientedBox", "PatchSet", "ReflectorBank",
    "PhotoDetector", "RequiredSnr", "Room", "RunConfig", "SER_TARGET",
    "Scenario", "Scene", "Segment", "SerCurve", "SnrGrid", "TrialGains",
    "WallPatch", "assign_mirrors_multi_ue", "build_metasurface_arrays",
    "build_mirror_arrays", "build_scene", "compute_trial", "cos_between",
    "default_scene", "diffuse_capture", "effective_sections", "load_config",
    "los_gain", "ma_channel_vector", "ma_gain", "mirror_element_gain",
    "msa_channel_vector", "msa_gain", "nlos_gain", "normalize",
    "optimal_mirror_normal", "patch_incident_power", "q_function",
    "reflect", "required_snr", "run_trials", "sample_blockers", "sample_tilt_deg",
    "sample_ue", "segment_intersects_box", "segments_intersect_box", "ser_curve",
    "shadowed", "shadowed_mask", "trial_rng", "unit_normal_from_polar",
    "vec3", "wall_patches",
]
