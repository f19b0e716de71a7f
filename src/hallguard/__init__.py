"""Detection metrics, calibration, and tiered mitigation tooling for LLM
generation logs.

The package operates entirely on offline records: it computes uncertainty
and consistency signals, fits and applies post-hoc calibrators, provides
inference-time distribution filters and chunking, and routes detection
signals through a tier-based detect/mitigate/validate/refine cycle.

Names are imported from their modules, e.g. ``from hallguard.pipeline import
detect``; importing the package loads none of them.  ``import hallguard.cli``
loads the modules that analyze, race, factcheck and pipeline run;
calibration, mitigation and mockgen load only with their own command.
"""

__version__ = "0.1.0"
