"""Detection metrics, calibration, and tiered mitigation tooling for LLM
generation logs.

The package operates entirely on offline records: it computes uncertainty
and consistency signals, fits and applies post-hoc calibrators, provides
inference-time distribution filters and chunking, and routes detection
signals through a tier-based detect/mitigate/validate/refine cycle.

Names are imported from their modules, e.g. ``from hallguard.pipeline import
detect``; importing the package loads none of them.  ``import hallguard.cli``
loads only the standard library and ``hallguard.errors``, no numpy, and each
command loads only the modules it runs:

- ``--help`` and usage errors: ``cli`` and ``errors`` only, no numpy;
- ``chunk``: ``mitigation`` and ``records``, no numpy;
- ``mockgen``: ``grounding``, ``mockgen``, ``records`` and ``uncertainty``;
- ``calibrate``: ``calibration``, ``records`` and ``uncertainty``;
- ``analyze``, ``pipeline``, ``race`` and ``factcheck``: ``consistency``,
  ``grounding``, ``pipeline``, ``records``, ``semantic`` and ``uncertainty``.
"""

__version__ = "0.1.0"
