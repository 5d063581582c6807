"""Set-up time in a fresh interpreter: import artex, load the stop list and corpus.

    python3 perfbench/setup_probe.py <src dir> <corpus dir>

Prints the seconds from before ``import artex`` to the loaded corpus, that is
everything a batch run does before its first document.
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from artex import CorpusSpec, StopList, load_corpus  # noqa: E402

StopList.bundled("en")
load_corpus(CorpusSpec(sys.argv[2]))
print(time.perf_counter() - started)
