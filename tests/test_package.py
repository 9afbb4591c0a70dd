"""``import litclust`` imports a module only when one of its names is used.

Each test runs a fresh interpreter, since the test process has imported
every module already.
"""

import json
import subprocess
import sys

from helpers import subprocess_env

IMPORT_SCRIPT = """
import sys
import litclust
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("numpy", "scipy") or name in ("litclust.ncbi", "urllib.request")))
"""

# What the package namespace gives for each public name, before and
# after every name is looked up.
NAMES_SCRIPT = """
import json, sys
import litclust
public = [name for name in litclust.__all__ if name != "__version__"]
bound_at_import = [name for name in public if name in vars(litclust)]
objects = {name: getattr(litclust, name) for name in public}
starred = {}
exec("from litclust import *", starred)
try:
    litclust.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "bound_at_import": bound_at_import,
    "bound_after_lookup": [name for name in public if name in vars(litclust)],
    "not_home": [name for name, obj in objects.items()
                 if getattr(sys.modules[obj.__module__], name) is not obj],
    "not_starred": sorted(set(litclust.__all__) - set(starred)),
    "not_in_dir": sorted(set(litclust.__all__) - set(dir(litclust))),
    "unknown": unknown,
}))
"""


def run_script(script: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env(), check=True
    ).stdout


def test_import_litclust_loads_no_numpy_scipy_or_network_module():
    assert run_script(IMPORT_SCRIPT).strip() == "[]"


def test_each_public_name_resolves_in_its_home_module_at_every_lookup():
    names = json.loads(run_script(NAMES_SCRIPT))
    assert names["not_home"] == []
    assert names["not_starred"] == []
    assert names["not_in_dir"] == []
    assert names["unknown"] == "module 'litclust' has no attribute 'no_such_name'"
    # No name is bound in the package, at import or by a lookup.  A bound
    # name would keep the object its home module held at the first
    # lookup.  The benchmark's tracer swaps a module's functions for
    # wrappers during a traced repetition and back after it, so a name
    # bound while the wrappers were in place (``litclust.load_corpus`` in
    # the warm-up) would keep every later repetition traced.
    assert names["bound_at_import"] == []
    assert names["bound_after_lookup"] == []
