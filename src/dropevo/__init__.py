"""dropevo: closed-loop droplet evolution with a virtual robot.

Library layers:

- formulation: genomes, simplex formulations, oil property table
- ga: the generational genetic algorithm and its history bookkeeping
- arena: the synthetic droplet arena (detection streams)
- tracking: droplet identity tracking and behaviour fitness scores
- landscape: RBF kernel ridge regression, face grids, fitness islands
- stats: trajectory statistics
- gcode: line emitters and compilers, pump dialect, virtual firmware
- formats: file format specifications and validators
- evaluators: the formulation -> simulate -> track -> score pipeline
- cli: the `dropevo` command (evolve / landscape / analyze / gcode)
"""

__version__ = "0.1.0"

from .formulation import Formulation, normalize, well_volumes  # noqa: F401
