"""Cold start of the program, timed inside a fresh interpreter.

Usage: python3 setup_probe.py <src-dir>.  Prints the seconds spent importing
the package and running ``cold_start``: the work every CLI call does before
its first result.
"""

import sys
import time


def cold_start() -> None:
    """Build the shipped presets, then the spectral data and Markov chain of free2_sanov."""
    from spherecomb import markov, presets, spectral

    for name in presets.preset_names():
        presets.preset(name)
    graph = presets.preset("free2_sanov").graph
    markov.build_markov(graph, spectral.perron_data(spectral.transition_matrix(graph)))


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    cold_start()
    print(time.perf_counter() - t0)
