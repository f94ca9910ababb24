"""Cold start: a run that meets only dense matrices never loads
``scipy.sparse``.  Each check runs a fresh interpreter, because this
process has scipy loaded already."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(code: str, cwd: Path) -> list[str]:
    """The stdout lines of ``python -c code`` run in ``cwd``."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


DENSE_RUN = """
import sys
import heavinet
import heavinet.cli
print("scipy.sparse" in sys.modules)

def ok(*argv):
    assert heavinet.cli.run(list(argv)) == 0, argv

ok("bounds", "--kind", "skip", "--L", "2000", "--p", "1000", "--s", "1", "-o", "b.csv")
ok("build", "square", "--L", "3", "--p1", "1", "--skips", "1,0", "-o", "square.json")
ok("build", "rect", "--a", "0,0.25", "--b", "0.5,1", "-o", "rect.json")
ok("build", "bits", "--radix", "2,3,2", "-o", "bits.json")
ok("build", "bits", "--kind", "lin", "--L", "4", "-o", "lin.json")
# dense stages written as coordinates, read back as arrays
ok("build", "bits", "--radix", "16,8,4,4", "-o", "tagged.json")
with open("tagged.json") as fh:
    print('"dense": true' in fh.read())
for doc in ("square.json", "rect.json", "bits.json", "lin.json", "tagged.json"):
    ok("validate", doc)
ok("pieces", "tagged.json", "--from", "0", "--to", "1", "-o", "tagged-pieces.json")
ok("eval", "square.json", "--grid", "1000", "-o", "eval.csv")
ok("pieces", "square.json", "--from", "0", "--to", "1", "-o", "exact.json")
ok("pieces", "bits.json", "--from", "0", "--to", "1", "--sampled", "1000", "-o", "count.csv")
print("scipy.sparse" in sys.modules)
"""


def test_dense_runs_never_load_scipy_sparse(tmp_path):
    lines = _fresh(DENSE_RUN, tmp_path)
    assert lines[0] == "False"  # importing heavinet and its CLI
    assert lines[1] == "True"  # tagged.json holds dense-tagged coordinates
    assert lines[-1] == "False"  # after every run


SPARSE_BUILD = """
import sys
import numpy as np
from heavinet.builders import holder_approximator
from heavinet.cli import run
from heavinet.networks import evaluate_batch, issparse
from heavinet.targets import TARGETS

assert run(["build", "holder", "--kind", "skip", "--target", "x1x2",
            "--m", "2", "--n", "0", "-o", "holder.json"]) == 0
net = holder_approximator("skip", TARGETS["x1x2"].holder_config(2, 0, None)).net
print(sum(issparse(layer.W) for layer in net.layers))
X = np.random.default_rng(0).uniform(0, 1, (2000, 2))
np.save("X.npy", X)
np.save("built.npy", evaluate_batch(net, X))
"""

SPARSE_READ = """
import sys
import numpy as np
from heavinet.networks import evaluate_batch, issparse
from heavinet.serialize import from_document

print("scipy.sparse" in sys.modules)
with open("holder.json") as fh:
    net = from_document(fh.read()).net
print(sum(issparse(layer.W) for layer in net.layers))
read = evaluate_batch(net, np.load("X.npy"))
print(read.tobytes() == np.load("built.npy").tobytes())
"""


def test_sparse_build_and_read_import_scipy_where_needed(tmp_path):
    built_sparse = int(_fresh(SPARSE_BUILD, tmp_path)[-1])
    assert built_sparse > 0
    before, read_sparse, same = _fresh(SPARSE_READ, tmp_path)
    assert before == "False"
    assert int(read_sparse) == built_sparse
    assert same == "True"
