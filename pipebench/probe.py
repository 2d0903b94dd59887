"""Set-up a fresh forumflux process pays before its first stage.

Imports forumflux, loads the config, the bundled lexicon and intent phrases,
and makes one centrality call on a 3-node path, where a kernel warm-up or JIT
compile would land. Prints, as JSON, the centrality backend in use, where
forumflux was imported from and the numpy version.

    python3 pipebench/probe.py CONFIG
"""

import json
import sys

import numpy as np

import forumflux
from forumflux import _kernels, cli, lexifeat


def main(config_path):
    cli.load_config(config_path)
    lexifeat.default_lexicon()
    lexifeat.default_intent_patterns()
    _kernels.centrality_csr(np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]))
    print(json.dumps({"backend": _kernels.active_backend(), "module": forumflux.__file__,
                      "numpy": np.__version__}))


if __name__ == "__main__":
    main(sys.argv[1])
