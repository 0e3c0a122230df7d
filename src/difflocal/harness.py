"""The two names the benchmark reads here: ``_scan_chunk``, which it traces
and calls, now in ``scan``, and ``parse_c`` from ``goodness``.  The scan
and the equality cases live in ``scan``, the lemma suite in ``lemmas``.
The package imports this module so that the tracer finds it loaded.
"""

from .goodness import parse_c
from .scan import _scan_chunk
