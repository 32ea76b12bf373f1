#!/usr/bin/env python3
"""Every object hostbench/wrapped_symbols.txt lists must still reference
its wrapped entry point in the built library.

    python3 tests/test_wrapped_symbols.py <path to libbridge.a>

A traced hostbench run leaves out every metric of a layer when one listed
object stops calling the layer's symbol, so a lost reference would show up
only as missing metrics in a benchmark run. This applies the same rule,
hostbench/run.py's missing_layers, to the given library and fails naming
each missing (symbol, object) pair.
"""
import importlib.util
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no __pycache__ under hostbench/

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    lib = os.path.abspath(sys.argv[1])
    spec = importlib.util.spec_from_file_location(
        "hostbench_run", os.path.join(ROOT, "hostbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    # missing_layers reads <build dir>/bridge/libbridge.a.
    with tempfile.TemporaryDirectory() as bdir:
        os.mkdir(os.path.join(bdir, "bridge"))
        os.symlink(lib, os.path.join(bdir, "bridge", "libbridge.a"))
        missing = run.missing_layers(bdir)
    if missing:
        print("layers with a missing entry point:", ", ".join(sorted(missing)),
              file=sys.stderr)
        return 1
    print(f"{lib}: every listed object references its wrapped entry point")
    return 0


if __name__ == "__main__":
    sys.exit(main())
